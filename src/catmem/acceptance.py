"""Executable acceptance checks for the simulator.

Each criterion is a function returning a CheckResult with pass/fail, the
measured numbers and the pinned tolerances, so the validate subcommand and
the test suite share one implementation.  Criteria are independent and may
be run individually; the thermal consistency check is the slow one (about
25 s of Wigner sums and jackknives over 200k- and 800k-trajectory
ensembles on two cores).
"""

from __future__ import annotations

import math
import tempfile
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import signatures as sig
from .engine import protocol_channel, write_gain
from .experiments import (DEFAULT_GAMMA_M, ExperimentConfig, _corrected_ensemble,
                          oracle_query, run_point, write_run_artifacts)
from .model import EnsembleResult, ProtocolSchedule, SystemParams, derive_rates
from .modes import (ModeFunctionSpec, coupler_ode_residual, kappa_source,
                    transfer_amplitude, u_exp_approx, u_in)
from .oracle import decohered_density
from .sampling import sample_cat

__all__ = ["CheckResult", "CRITERIA", "run_criteria"]

# pinned expected values and tolerances
TABLE_ALPHAS = (1.0, 2.0, 3.0, 4.0)
TABLE_INPUT_VARIANCE = (0.2616, 0.4973, 0.5000, 0.5000)
TABLE_READOUT_VARIANCE = (0.3809, 0.4987, 0.5000, 0.5000)
TABLE_READOUT_TOL = 0.005
TABLE_RUNTIME_S = 60.0

DEATH_TIME_ZERO = 0.3466      # storage, units of the mechanical lifetime
DEATH_TIME_TWO = 0.0912

AGREEMENT_TIMES = (0.02, 0.10, 0.20, 0.3466)
AGREEMENT_ALPHAS = (2.0, 3.0, 4.0, 5.0)
AGREEMENT_REL = 0.02
AGREEMENT_ABS = 0.005

FRINGE_ALPHA = 5.0
# The p grid (step 0.01) samples the first trough up to half a step away
# from pi/(2 sqrt(2) alpha_bar); that lowers the contrast by at most
# alpha_bar^2 step^2 / 2 relative, 0.12 % at alpha_bar = 4.9.  The bar is
# the step itself taken as a relative bound: it covers that bias, and the
# storage-only coefficient, which ignores the write and read windows, misses
# by 3.8 %.
FRINGE_REL_TOL = 0.01
FRINGE_LOW = 0.01

TRANSFER_SINGLE = 0.9745
TRANSFER_SINGLE_TOL = 0.002
TRANSFER_SQUARE_TOL = 0.004

THERMAL_TIMES = (0.02, 0.04, 0.06, 0.0912)
THERMAL_SAMPLES = 200_000
THERMAL_SIGMAS = 3.0
THERMAL_RATIO = 2.0
THERMAL_RATIO_TOL = 0.2

MODE_NORM_TOL = 1e-6
COUPLER_RESIDUAL_TOL = 1e-8
HALVING_FACTOR = 14.0

DENSITY_PEAK = 5.0 / math.sqrt(2.0)
DENSITY_LOG_RATIO = -25.0
DENSITY_LOG_TOL = 0.7

WIGNER_NORM_TOL = 1e-4
MARGINAL_TOL = 1e-3


@dataclass
class CheckResult:
    number: int
    name: str
    passed: bool
    runtime_s: float
    lines: list = field(default_factory=list)
    measured: dict = field(default_factory=dict)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number} {self.name}: {status} ({self.runtime_s:.1f} s)"


def _record(lines, ok: bool, text: str) -> bool:
    lines.append(("ok   " if ok else "FAIL ") + text)
    return ok


def _protocol_coherence(alpha0: float, params: SystemParams, t_store: float) -> float:
    """Cat coherence after the whole zero-temperature protocol.

    exp(-2 alpha0^2 (1 - eta)) with the intensity transfer
    eta = T^4 e^{-2 gamma_m t_store}: T, the analytic write (and, mirrored,
    read) amplitude, does not depend on the integrator.
    """
    eta = transfer_amplitude(params) ** 4 * math.exp(-2.0 * params.gamma_m * t_store)
    return math.exp(-2.0 * alpha0 * alpha0 * (1.0 - eta))


def _check_table_reproduction() -> tuple[bool, list, dict]:
    lines: list = []
    measured: dict = {"input": [], "readout": []}
    passed = True
    start = time.perf_counter()
    base = ExperimentConfig(t_store=(0.5 * math.log(2.0)) / DEFAULT_GAMMA_M,
                            signatures=("p_variance",), n_samples=4)
    for alpha0, v_in, v_out in zip(TABLE_ALPHAS, TABLE_INPUT_VARIANCE,
                                   TABLE_READOUT_VARIANCE):
        point = run_point(replace(base, alpha0=alpha0), want_fields=False)
        got_in = point.scalars["p_variance_in"]
        got_out = point.scalars["p_variance_out"]
        measured["input"].append(got_in)
        measured["readout"].append(got_out)
        passed &= _record(lines, round(got_in, 4) == v_in,
                          f"alpha0={alpha0:g} input variance {got_in:.6f} "
                          f"rounds to {v_in} (exact 4 dp)")
        passed &= _record(lines, abs(got_out - v_out) <= TABLE_READOUT_TOL,
                          f"alpha0={alpha0:g} readout variance {got_out:.6f} "
                          f"vs {v_out} +- {TABLE_READOUT_TOL}")
    elapsed = time.perf_counter() - start
    measured["runtime_s"] = elapsed
    passed &= _record(lines, elapsed < TABLE_RUNTIME_S,
                      f"runtime {elapsed:.1f} s < {TABLE_RUNTIME_S:.0f} s")
    return passed, lines, measured


def _check_death_bounds() -> tuple[bool, list, dict]:
    lines: list = []
    passed = True
    t0 = oracle_query("t_positive", {"n_bar": 0.0, "gamma": 1.0})["t_positive"]
    t2 = oracle_query("t_positive", {"n_bar": 2.0, "gamma": 1.0})["t_positive"]
    passed &= _record(lines, round(t0, 4) == DEATH_TIME_ZERO,
                      f"n_bar=0 bound {t0:.6f} rounds to {DEATH_TIME_ZERO}")
    passed &= _record(lines, round(t2, 4) == DEATH_TIME_TWO,
                      f"n_bar=2 bound {t2:.6f} rounds to {DEATH_TIME_TWO}")
    return passed, lines, {"t_zero": t0, "t_two": t2}


def _check_oracle_agreement() -> tuple[bool, list, dict]:
    lines: list = []
    measured: dict = {"points": []}
    passed = True
    base = ExperimentConfig(signatures=("negativity",), n_samples=4)
    for alpha0 in AGREEMENT_ALPHAS:
        for t_rel in AGREEMENT_TIMES:
            cfg = replace(base, alpha0=alpha0, t_store=t_rel / DEFAULT_GAMMA_M)
            point = run_point(cfg, want_fields=False)
            delta = point.scalars["negativity"]
            delta_or = point.scalars["negativity_oracle"]
            tol = max(AGREEMENT_REL * delta_or, AGREEMENT_ABS)
            ok = abs(delta - delta_or) <= tol
            measured["points"].append({"alpha0": alpha0, "t_rel": t_rel,
                                       "sim": delta, "oracle": delta_or})
            passed &= _record(lines, ok,
                              f"alpha0={alpha0:g} t={t_rel:g}/Gm sim={delta:.5f} "
                              f"oracle={delta_or:.5f} tol={tol:.5f}")
            if t_rel == AGREEMENT_TIMES[-1]:
                ok_sim = delta <= AGREEMENT_ABS
                ok_or = delta_or <= AGREEMENT_ABS
                passed &= _record(lines, ok_sim and ok_or,
                                  f"alpha0={alpha0:g} at the bound both "
                                  f"negativities <= {AGREEMENT_ABS}")
    return passed, lines, measured


def _check_fringe_death() -> tuple[bool, list, dict]:
    lines: list = []
    passed = True
    base = ExperimentConfig(alpha0=FRINGE_ALPHA, signatures=("p_distribution",),
                            n_samples=4)
    vis = {}
    for t_rel in (0.02, DEATH_TIME_ZERO):
        point = run_point(replace(base, t_store=t_rel / DEFAULT_GAMMA_M))
        fld = point.fields["p_distribution"]
        alpha_bar = FRINGE_ALPHA * point.scalars["reference_gain_abs"]
        vis[t_rel] = sig.fringe_visibility(fld, alpha_bar)
    short = replace(base, t_store=0.02 / DEFAULT_GAMMA_M)
    t_short = short.schedule().t_store
    coherence = _protocol_coherence(FRINGE_ALPHA, short.system_params(), t_short)
    _, storage_only = decohered_density(t_short, FRINGE_ALPHA, DEFAULT_GAMMA_M)
    rel = abs(vis[0.02] - coherence) / coherence
    rel_storage = abs(storage_only - coherence) / coherence
    passed &= _record(lines, rel <= FRINGE_REL_TOL,
                      f"visibility {vis[0.02]:.5f} at 0.02/Gm vs protocol coherence "
                      f"{coherence:.5f}: rel diff {rel:.2%} <= {FRINGE_REL_TOL:.0%} "
                      f"(storage-only {storage_only:.5f} is {rel_storage:.1%} off)")
    passed &= _record(lines, vis[DEATH_TIME_ZERO] < FRINGE_LOW,
                      f"visibility {vis[DEATH_TIME_ZERO]:.2e} at "
                      f"{DEATH_TIME_ZERO}/Gm < {FRINGE_LOW}")
    return passed, lines, {"visibility": vis, "protocol_coherence": coherence,
                           "storage_only_coherence": storage_only}


def _check_transfer() -> tuple[bool, list, dict]:
    lines: list = []
    passed = True
    params = SystemParams(0.95, 0.05, gamma_m=DEFAULT_GAMMA_M, g_eff=0.6)
    t_w = 10.0 / derive_rates(params).gamma_bar.real
    schedule = ProtocolSchedule.make(t_w, 0.0, 0.1)
    single = abs(write_gain(params, schedule))
    full = abs(protocol_channel(params, schedule)[0])
    passed &= _record(lines, abs(single - TRANSFER_SINGLE) <= TRANSFER_SINGLE_TOL,
                      f"single-pass gain {single:.5f} vs {TRANSFER_SINGLE} "
                      f"+- {TRANSFER_SINGLE_TOL}")
    passed &= _record(lines, abs(full - single * single) <= TRANSFER_SQUARE_TOL,
                      f"write-read gain {full:.5f} vs square {single * single:.5f} "
                      f"+- {TRANSFER_SQUARE_TOL}")
    return passed, lines, {"single": single, "full": full}


def _check_thermal_consistency() -> tuple[bool, list, dict]:
    lines: list = []
    measured: dict = {"points": []}
    passed = True
    base = ExperimentConfig(alpha0=2.0, n_bar=2.0, n_samples=THERMAL_SAMPLES,
                            jackknife_blocks=1000, signatures=("negativity",))
    se_at_ratio_time = None
    ratio_time = THERMAL_TIMES[1]
    for t_rel in THERMAL_TIMES:
        cfg = replace(base, t_store=t_rel / DEFAULT_GAMMA_M)
        point = run_point(cfg, want_fields=False)
        delta = point.scalars["negativity"]
        delta_or = point.scalars["negativity_oracle"]
        se = point.scalars["sampling_error"]
        # the simulated cat also decoheres in the write and read windows, so
        # the reference is the whole protocol; storage-only is printed beside it
        delta_pr = point.scalars["negativity_protocol"]
        z = point.scalars["z_protocol"]
        z_storage = (delta - delta_or) / se
        ok = abs(delta - delta_pr) <= THERMAL_SIGMAS * se
        measured["points"].append({"t_rel": t_rel, "sim": delta, "protocol": delta_pr,
                                   "oracle": delta_or, "se": se})
        passed &= _record(lines, ok,
                          f"t={t_rel:g}/Gm sim={delta:.6g} se={se:.2g} "
                          f"protocol={delta_pr:.6g} z={z:+.2f} "
                          f"(storage-only={delta_or:.6g} z={z_storage:+.2f}) "
                          f"|z| <= {THERMAL_SIGMAS:g}")
        if t_rel == ratio_time:
            se_at_ratio_time = se
    big = run_point(replace(base, t_store=ratio_time / DEFAULT_GAMMA_M,
                            n_samples=4 * THERMAL_SAMPLES), want_fields=False)
    se_big = big.scalars["sampling_error"]
    ratio = se_at_ratio_time / se_big
    measured["se_ratio"] = ratio
    passed &= _record(lines, abs(ratio - THERMAL_RATIO) <= THERMAL_RATIO_TOL,
                      f"se ratio at t={ratio_time:g}/Gm for 4x samples: "
                      f"{ratio:.3f} vs {THERMAL_RATIO} +- {THERMAL_RATIO_TOL}")
    return passed, lines, measured


def _check_mode_functions() -> tuple[bool, list, dict]:
    # imported here, not at module level: scipy.integrate would be most of
    # the import time of every `catmem` command
    from scipy.integrate import quad

    lines: list = []
    measured: dict = {}
    passed = True

    oscillatory = SystemParams(1.0, 0.0, gamma_m=DEFAULT_GAMMA_M, g_eff=0.6)
    overdamped = SystemParams(1.0, 0.0, gamma_m=0.0, g_eff=0.3)
    for label, params in (("oscillatory", oscillatory), ("overdamped", overdamped)):
        spec = ModeFunctionSpec.for_params(params, t_store=1.0)
        norm, _ = quad(lambda t: abs(u_in(t, spec)) ** 2, -np.inf, 0.0, limit=400)
        measured[f"norm_{label}"] = norm
        passed &= _record(lines, abs(norm - 1.0) <= MODE_NORM_TOL,
                          f"{label} mode norm {norm:.9f} within {MODE_NORM_TOL}")

    gamma_bar = derive_rates(overdamped).gamma_bar.real
    ts = np.linspace(-40.0, -1e-3, 4001)
    kap = kappa_source(ts, gamma_bar)
    expo = np.exp(-2.0 * gamma_bar * ts)
    dkap = 2.0 * gamma_bar ** 2 * expo / (expo - 1.0) ** 2
    u0 = u_exp_approx(ts, gamma_bar)
    residual = np.max(np.abs(coupler_ode_residual(kap, dkap, u0, gamma_bar * u0)))
    measured["coupler_residual"] = float(residual)
    passed &= _record(lines, residual <= COUPLER_RESIDUAL_TOL,
                      f"coupler residual {residual:.2e} <= {COUPLER_RESIDUAL_TOL}")

    gains = {}
    for dt in (0.2, 0.1, 0.05):
        schedule = ProtocolSchedule.make(20.0, 0.8, dt)
        gains[dt] = protocol_channel(oscillatory, schedule)[0]
    coarse = abs(gains[0.2] - gains[0.1])
    fine = abs(gains[0.1] - gains[0.05])
    factor = coarse / fine
    measured["halving_factor"] = factor
    passed &= _record(lines, factor >= HALVING_FACTOR,
                      f"step-halving error reduction {factor:.1f}x >= "
                      f"{HALVING_FACTOR:g}x")
    return passed, lines, measured


def _check_density_persistence() -> tuple[bool, list, dict]:
    lines: list = []
    passed = True
    cfg = ExperimentConfig(alpha0=5.0, t_store=DEATH_TIME_ZERO / DEFAULT_GAMMA_M,
                           signatures=("density",), n_samples=4)
    point = run_point(cfg)
    fld = point.fields["density"]
    a = fld.axes[0].points()
    diag = np.diagonal(fld.values)
    anti = np.diagonal(np.fliplr(fld.values))  # (a, -a) since the grid is symmetric

    pos = a > 0
    neg = a < 0
    peak_pos = float(a[pos][np.argmax(diag[pos])])
    peak_neg = float(a[neg][np.argmax(diag[neg])])
    step = fld.axes[0].step
    ok_peaks = (abs(peak_pos - DENSITY_PEAK) <= step
                and abs(peak_neg + DENSITY_PEAK) <= step)
    passed &= _record(lines, ok_peaks,
                      f"diagonal peaks at {peak_neg:g}, {peak_pos:g} vs "
                      f"+-{DENSITY_PEAK:.4f} within {step:g}")

    # Off-diagonal peak taken at the coherence-blob centers (a, -a) = (+-peak, -+peak),
    # the mirror image of the diagonal blob positions.  The global anti-diagonal
    # maximum sits at the origin where the tails of the two diagonal blobs cross,
    # which is not the coherence feature this check is after.
    i_pos = int(np.argmin(np.abs(a - peak_pos)))
    i_neg = int(np.argmin(np.abs(a - peak_neg)))
    diag_peak = float(np.max(diag))
    full_ratio = math.log(max(float(anti[i_pos]), float(anti[i_neg])) / diag_peak)

    # The pinned ratio is the cat coherence.  The full anti-diagonal element
    # also holds the overlap background of the two mixture blobs, so read it
    # from the coherence part of rho: the off-diagonal branches, reweighted
    # by n_sub/n to keep the full ensemble's normalisation.
    _, ens = _corrected_ensemble(cfg)
    off = np.isin(ens.branch, ("+-", "-+"))
    coh = EnsembleResult(alpha_out=ens.alpha_out[off],
                         alpha_out_plus=ens.alpha_out_plus[off],
                         weight=ens.weight[off] * (np.count_nonzero(off) / len(ens)),
                         branch=ens.branch[off])
    coh_anti = np.diagonal(np.fliplr(sig.reconstruct_density(coh, a, a).values))
    log_ratio = math.log(max(float(coh_anti[i_pos]), float(coh_anti[i_neg])) / diag_peak)
    closed = math.log(_protocol_coherence(cfg.alpha0, cfg.system_params(),
                                          cfg.schedule().t_store))
    passed &= _record(lines, abs(log_ratio - DENSITY_LOG_RATIO) <= DENSITY_LOG_TOL,
                      f"coherence/diagonal log-ratio {log_ratio:.3f} vs "
                      f"{DENSITY_LOG_RATIO} +- {DENSITY_LOG_TOL} (closed form "
                      f"{closed:.4f}; full anti-diagonal element {full_ratio:.3f})")
    return passed, lines, {"peak_pos": peak_pos, "peak_neg": peak_neg,
                           "log_ratio": log_ratio, "log_ratio_closed": closed,
                           "full_log_ratio": full_ratio}


def _check_estimator_sanity() -> tuple[bool, list, dict]:
    lines: list = []
    measured: dict = {}
    passed = True

    cfg = ExperimentConfig(alpha0=2.0, t_store=0.02 / DEFAULT_GAMMA_M,
                           signatures=(), n_samples=4)
    inputs, ens = _corrected_ensemble(cfg)

    wgrid = sig.default_wigner_grid(cfg.alpha0)
    wfield = sig.wigner_estimate(ens, wgrid)
    norm = wfield.meta["norm"]
    measured["wigner_norm"] = norm
    passed &= _record(lines, abs(norm - 1.0) <= WIGNER_NORM_TOL,
                      f"Wigner norm {norm:.7f} within {WIGNER_NORM_TOL}")

    quad_points = math.sqrt(2.0) * wgrid.x
    qgrid = sig.QuadratureGrid(theta=0.0, points=quad_points)
    p_x = sig.p_distribution(ens, qgrid)
    marginal = np.trapezoid(wfield.values, dx=wgrid.h, axis=1) / math.sqrt(2.0)
    worst = float(np.max(np.abs(p_x.values - marginal)))
    measured["marginal_mismatch"] = worst
    passed &= _record(lines, worst <= MARGINAL_TOL,
                      f"x-marginal mismatch {worst:.2e} <= {MARGINAL_TOL}")

    delta = sig.wigner_negativity(wfield)
    thermal_cfg = replace(cfg, n_bar=2.0, n_samples=8192,
                          signatures=("negativity",), jackknife_blocks=16)
    thermal = run_point(thermal_cfg, want_fields=False)
    deltas = {"noiseless": delta, "thermal": thermal.scalars["negativity"]}
    measured["negativities"] = deltas
    ok_range = all(0.0 <= d <= 1.0 for d in deltas.values())
    passed &= _record(lines, ok_range,
                      f"negativities {deltas} lie in [0, 1]")

    mean_w = math.fsum(inputs.weight) / len(inputs)
    big = sample_cat(cfg.alpha0, 4096)
    mean_w_big = math.fsum(big.weight) / len(big)
    measured["mean_weights"] = [mean_w, mean_w_big]
    passed &= _record(lines, mean_w == 1.0 and mean_w_big == 1.0,
                      f"stratified mean weights {mean_w!r}, {mean_w_big!r} == 1.0")

    repro_cfg = replace(cfg, n_bar=0.5, n_samples=4096,
                        signatures=("p_distribution", "wigner", "negativity"),
                        jackknife_blocks=8)

    def artifact_hashes(config) -> dict:
        with tempfile.TemporaryDirectory() as tmp:
            point = run_point(config)
            manifest = write_run_artifacts(config, point, tmp, 0.0)
            hashes = {name: info["sha256"]
                      for name, info in manifest["artifacts"].items()}
            hashes["negativity"] = point.scalars["negativity"]
            return hashes

    first = artifact_hashes(repro_cfg)
    second = artifact_hashes(repro_cfg)
    reseeded = artifact_hashes(replace(repro_cfg, master_seed=repro_cfg.master_seed + 1))
    passed &= _record(lines, first == second,
                      "identical config and seed give byte-identical artifacts")
    passed &= _record(lines, first["negativity"] != reseeded["negativity"],
                      "changing the seed changes the thermal result")
    return passed, lines, measured


CRITERIA = (
    (1, "table_reproduction", _check_table_reproduction),
    (2, "negativity_death_bounds", _check_death_bounds),
    (3, "oracle_agreement", _check_oracle_agreement),
    (4, "fringe_death", _check_fringe_death),
    (5, "transfer_amplitude", _check_transfer),
    (6, "thermal_consistency", _check_thermal_consistency),
    (7, "mode_functions", _check_mode_functions),
    (8, "density_persistence", _check_density_persistence),
    (9, "estimator_sanity", _check_estimator_sanity),
)


def run_criteria(numbers=None, progress=None) -> list[CheckResult]:
    """Run the selected (default: all) criteria and collect the results."""
    wanted = set(numbers) if numbers is not None else {n for n, _, _ in CRITERIA}
    results = []
    for number, name, func in CRITERIA:
        if number not in wanted:
            continue
        start = time.perf_counter()
        passed, lines, measured = func()
        # clauses compare numpy scalars; validate.json needs a plain bool
        result = CheckResult(number=number, name=name, passed=bool(passed),
                             runtime_s=time.perf_counter() - start,
                             lines=lines, measured=measured)
        if progress is not None:
            progress(result)
        results.append(result)
    return results
