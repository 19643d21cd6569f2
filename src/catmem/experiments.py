"""Experiment configuration, presets and artifact-producing pipelines.

A run resolves a flat configuration into parameter objects, samples the
input cat, sends it through the protocol channel in the frame where the
coherent-input gain is real (the phase correction) and evaluates the
requested signatures, with closed-form references and a time-step error
taken from the channel at half the step, not from a second Monte Carlo
pass.  Sweeps repeat that over one or two parameter axes with per-point
checkpoints that carry their own digest, so interrupted long jobs resume.
Artifacts are CSV fields plus a JSON manifest; every CSV embeds the
fingerprint of the resolved configuration so the numbers in it can be
traced back to exactly one parameter set.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import engine, oracle
from .engine import ENGINE_VERSION, run_ensemble
from .model import (EnsembleResult, ProtocolSchedule, SystemParams, derive_rates,
                    open_atomic, parse_storage_time)
from .modes import default_write_duration, transfer_amplitude
from .sampling import sample_cat
from . import signatures as sig

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "PointResult",
    "PRESETS",
    "preset",
    "parse_config_text",
    "load_config",
    "config_fingerprint",
    "run_point",
    "write_run_artifacts",
    "run_sweep",
    "oracle_query",
    "oracle_negativity",
    "protocol_negativity",
]

# Reference device: 17.5 Hz mechanical linewidth against a 170 kHz cavity.
DEFAULT_GAMMA_M = 17.5 / 170e3
DEFAULT_SEED = 846290731

KNOWN_SIGNATURES = ("p_distribution", "wigner", "negativity", "density", "p_variance")
SWEEP_FIELDS = ("t_store", "alpha0", "n_bar", "gamma_int")
# The largest one-decimal alpha0 whose cat overlap exp(-2 alpha0^2) is a
# normal double.  Beyond it the overlap and the off-diagonal branch weight
# are subnormal, losing digits, and then zero (see sampling.branch_weights),
# while the kernels' exp(2 |G alpha0|^2) factors head for overflow: at 19.3
# the Wigner estimate and the oracle return NaN.
ALPHA0_MAX = 18.8


class ConfigError(ValueError):
    """Configuration problem, annotated with the offending line when known."""

    def __init__(self, message: str, line: int | None = None):
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)
        self.line = line


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat, fully explicit description of one run or sweep."""

    gamma_ext: float = 1.0
    gamma_int: float = 0.0
    gamma_m: float = DEFAULT_GAMMA_M
    g_eff: float = 0.6
    n_bar: float = 0.0        # mechanical bath occupation during the protocol
    n_init: float = 0.0       # occupation of the initial mechanical state
    alpha0: float = 2.0
    t_store: float = 0.02 / DEFAULT_GAMMA_M
    t_write: float | None = None  # None: ten retrieval lifetimes
    dt: float = 0.1
    n_samples: int = 4
    master_seed: int = DEFAULT_SEED
    signatures: tuple = ("p_distribution", "wigner", "negativity", "p_variance")
    quad_theta: float = math.pi / 2.0
    quad_step: float = 0.01
    wigner_h: float = 0.05
    wigner_pad: float = 4.0
    density_step: float = 0.1
    jackknife_blocks: int = 100
    sweep: tuple = ()  # ((field, (values, ...)), ...), at most two axes
    out_dir: str = "artifacts"

    def system_params(self) -> SystemParams:
        return SystemParams(self.gamma_ext, self.gamma_int,
                            gamma_m=self.gamma_m, g_eff=self.g_eff,
                            n_th_mech=self.n_bar, n_init_mech=self.n_init)

    def schedule(self) -> ProtocolSchedule:
        params = self.system_params()
        t_w = self.t_write if self.t_write is not None else default_write_duration(params)
        return ProtocolSchedule.make(t_w, self.t_store, self.dt)

    def validate(self) -> None:
        """Build every parameter object and grid a run builds, here and at
        every sweep point, so that a bad value fails as a ConfigError before
        any work starts."""
        for name in self.signatures:
            if name not in KNOWN_SIGNATURES:
                raise ConfigError(f"unknown signature {name!r}")
        if len(self.sweep) > 2:
            raise ConfigError("at most two sweep axes are supported")
        for axis_field, values in self.sweep:
            if axis_field not in SWEEP_FIELDS:
                raise ConfigError(f"cannot sweep over {axis_field!r}")
            if len(values) == 0:
                raise ConfigError(f"sweep axis {axis_field!r} has no values")
        if self.jackknife_blocks < 2:
            raise ConfigError("jackknife_blocks must be at least 2")
        if self.n_samples < 4 or self.n_samples % 4 != 0:
            raise ConfigError("n_samples must be a positive multiple of 4, one "
                              "quarter per branch")
        if not 0 <= self.master_seed < 2 ** 64:
            raise ConfigError("master_seed must fit in 64 bits")
        _check_alpha0(self.alpha0)
        try:
            self.schedule()  # builds the system parameters too
            sig.default_quadrature_grid(self.alpha0, self.quad_theta, self.quad_step)
            sig.default_wigner_grid(self.alpha0, self.wigner_h, self.wigner_pad)
            sig.default_density_axis(self.alpha0, self.density_step)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.sweep:
            for _, sub in sweep_points(self):
                sub.validate()


def _check_alpha0(alpha0: float) -> None:
    if isinstance(alpha0, (complex, np.complexfloating)) or not (
            math.isfinite(alpha0) and alpha0 != 0):
        raise ConfigError(f"alpha0 must be real, finite and nonzero, got {alpha0!r}")
    if abs(alpha0) > ALPHA0_MAX:
        raise ConfigError(f"|alpha0| = {abs(alpha0):g} exceeds {ALPHA0_MAX}, beyond "
                          "which the cat overlap exp(-2 alpha0^2) underflows")


def _preset_table1() -> ExperimentConfig:
    return ExperimentConfig(
        t_store=(0.5 * math.log(2.0)) / DEFAULT_GAMMA_M,
        signatures=("p_variance",),
        sweep=(("alpha0", (1.0, 2.0, 3.0, 4.0)),),
    )


def _preset_fig5() -> ExperimentConfig:
    return ExperimentConfig(alpha0=5.0, t_store=0.02 / DEFAULT_GAMMA_M,
                            signatures=("p_distribution", "wigner", "negativity"))


def _preset_fig6() -> ExperimentConfig:
    return replace(_preset_fig5(), t_store=0.3466 / DEFAULT_GAMMA_M)


def _preset_fig9() -> ExperimentConfig:
    times = tuple(x / DEFAULT_GAMMA_M for x in (0.02, 0.10, 0.20, 0.3466))
    return ExperimentConfig(
        signatures=("negativity",),
        sweep=(("t_store", times), ("alpha0", (2.0, 3.0, 4.0, 5.0))),
    )


def _preset_fig10() -> ExperimentConfig:
    times = tuple(x / DEFAULT_GAMMA_M for x in (0.02, 0.04, 0.06, 0.0912))
    return ExperimentConfig(
        alpha0=2.0, n_bar=2.0, n_samples=200_000, jackknife_blocks=1000,
        signatures=("negativity",), sweep=(("t_store", times),),
    )


def _preset_fig11() -> ExperimentConfig:
    times = tuple(x / DEFAULT_GAMMA_M for x in (0.02, 0.05, 0.0912, 0.15, 0.25, 0.3466))
    return ExperimentConfig(
        alpha0=2.0, n_samples=200_000, jackknife_blocks=100,
        signatures=("negativity",),
        sweep=(("n_bar", (0.0, 1.0, 2.0, 3.0, 4.0)), ("t_store", times)),
    )


def _preset_fig12() -> ExperimentConfig:
    return replace(_preset_fig9(), gamma_ext=0.95, gamma_int=0.05)


PRESETS = {
    "table1": _preset_table1,
    "fig5": _preset_fig5,
    "fig6": _preset_fig6,
    "fig9": _preset_fig9,
    "fig10": _preset_fig10,
    "fig11": _preset_fig11,
    "fig12": _preset_fig12,
}


def preset(name: str) -> ExperimentConfig:
    try:
        return PRESETS[name]()
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}") from None


_FLOAT_FIELDS = ("gamma_ext", "gamma_int", "gamma_m", "g_eff", "n_bar", "n_init",
                 "alpha0", "dt", "quad_theta", "quad_step", "wigner_h",
                 "wigner_pad", "density_step")
_INT_FIELDS = ("n_samples", "master_seed", "jackknife_blocks")


def _parse_number(raw: str, key: str, line: int, gamma_m: float | None = None) -> float:
    """A finite float; with gamma_m, a storage time that may take the '/Gm' form."""
    try:
        value = float(raw) if gamma_m is None else parse_storage_time(raw, gamma_m)
    except ValueError as exc:
        detail = f"expected a number for {key}, got {raw!r}" if gamma_m is None else str(exc)
        raise ConfigError(detail, line) from None
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {raw!r}", line)
    return value


def parse_config_text(text: str, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Parse 'key = value' lines into a configuration.

    Unknown keys fail with the line number.  Storage times accept the
    '/Gm' suffix form; since gamma_m may itself appear in the file, storage
    entries are resolved after every plain scalar.
    """
    config = base if base is not None else ExperimentConfig()
    entries: list[tuple[int, str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value', got {stripped!r}", lineno)
        key, value = stripped.split("=", 1)
        entries.append((lineno, key.strip(), value.strip()))

    updates: dict = {}
    storage_entries: list[tuple[int, str, str]] = []
    sweep_axes: dict[str, tuple] = {axis_field: vals for axis_field, vals in config.sweep}
    sweep_order: list[str] = [axis_field for axis_field, _ in config.sweep]

    for lineno, key, value in entries:
        if key == "t_store" or key.startswith("sweep."):
            storage_entries.append((lineno, key, value))
            continue
        if key in _FLOAT_FIELDS:
            updates[key] = _parse_number(value, key, lineno)
        elif key in _INT_FIELDS:
            try:
                updates[key] = int(value)
            except ValueError:
                raise ConfigError(f"expected an integer for {key}, got {value!r}", lineno) from None
        elif key == "t_write":
            updates[key] = (None if value.lower() in ("auto", "none")
                            else _parse_number(value, key, lineno))
        elif key == "signatures":
            if value.lower() in ("", "none"):
                updates[key] = ()
            else:
                names = tuple(v.strip() for v in value.split(",") if v.strip())
                for name in names:
                    if name not in KNOWN_SIGNATURES:
                        raise ConfigError(f"unknown signature {name!r}", lineno)
                updates[key] = names
        elif key == "out_dir":
            updates[key] = value
        else:
            raise ConfigError(f"unknown key {key!r}", lineno)

    gamma_m = updates.get("gamma_m", config.gamma_m)
    for lineno, key, value in storage_entries:
        if key == "t_store":
            updates[key] = _parse_number(value, key, lineno, gamma_m)
            continue
        axis_field = key[len("sweep."):]
        if axis_field not in SWEEP_FIELDS:
            raise ConfigError(f"cannot sweep over {axis_field!r}", lineno)
        parts = [v.strip() for v in value.split(",") if v.strip()]
        if not parts:
            raise ConfigError(f"sweep axis {axis_field!r} has no values", lineno)
        axis_gamma_m = gamma_m if axis_field == "t_store" else None
        vals = tuple(_parse_number(p, key, lineno, axis_gamma_m) for p in parts)
        if axis_field not in sweep_axes:
            sweep_order.append(axis_field)
        sweep_axes[axis_field] = vals

    updates["sweep"] = tuple((axis_field, sweep_axes[axis_field]) for axis_field in sweep_order)
    resolved = replace(config, **updates)
    resolved.validate()
    return resolved


def load_config(path, base: ExperimentConfig | None = None) -> ExperimentConfig:
    return parse_config_text(Path(path).read_text(encoding="utf-8"), base)


def config_fingerprint(config: ExperimentConfig) -> str:
    """Digest of everything that determines the output numbers.

    The engine version is part of it, so results of an engine that draws
    different numbers are never reused.  The output directory is excluded
    on purpose: it does not change the results.
    """
    payload = dataclasses.asdict(config)
    payload.pop("out_dir")
    payload["engine_version"] = ENGINE_VERSION
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def oracle_negativity(alpha0: float, t_store: float, n_bar: float, gamma_m: float,
                      grid: sig.WignerGrid) -> float:
    """Negativity of the ideal decohered cat evaluated on the same grid."""
    return oracle.channel_negativity(grid.x, grid.y, alpha0,
                                     *oracle.damping_channel(t_store, n_bar, gamma_m))


def protocol_negativity(alpha0: float, gain: complex, noise_var: float,
                        grid: sig.WignerGrid) -> float:
    """Negativity of the input cat sent through the protocol's exact Gaussian
    channel (gain, noise_var) from ``engine.protocol_channel``, evaluated on
    the same grid."""
    return oracle.channel_negativity(grid.x, grid.y, alpha0, abs(gain), noise_var)


@dataclass
class PointResult:
    """Signature values for a single parameter point."""

    scalars: dict
    fields: dict = field(default_factory=dict)


def _corrected_ensemble(config: ExperimentConfig) -> tuple[EnsembleResult, EnsembleResult]:
    """Sample the input cat and send it through the protocol channel,
    phase-corrected: (input ensemble, output ensemble).  The one place a run
    forms its ensemble; the channel rides on the ensemble."""
    inputs = sample_cat(config.alpha0, config.n_samples)
    return inputs, run_ensemble(inputs, config.system_params(), config.schedule(),
                                config.master_seed)


def _point_core(config: ExperimentConfig, inputs: EnsembleResult, ens: EnsembleResult,
                want_fields: bool) -> PointResult:
    """Estimate the requested signatures of one corrected ensemble."""
    params = config.system_params()
    schedule = config.schedule()
    rates = derive_rates(params)
    gain = ens.gain

    in_moments = sig.quadrature_moments(inputs)
    scalars: dict = {
        "mean_weight": in_moments["mean_weight"],
        "reference_gain_abs": abs(gain),
        "reference_gain_phase": math.atan2(gain.imag, gain.real),
        "transfer_amplitude_analytic": transfer_amplitude(params),
        "p_variance_in": in_moments["p_variance"],
        "t_write_resolved": schedule.t_write,
        "t_store_resolved": schedule.t_store,
        "dt": schedule.dt,
        "gamma_bar_re": rates.gamma_bar.real,
        "noisy": bool(params.n_th_mech > 0 or params.n_init_mech > 0),
    }
    fields: dict = {}

    sigs = config.signatures
    if "p_distribution" in sigs:
        grid = sig.default_quadrature_grid(config.alpha0, config.quad_theta,
                                           config.quad_step)
        fields["p_distribution"] = sig.p_distribution(ens, grid)
    need_wigner = "wigner" in sigs or "negativity" in sigs
    if need_wigner:
        wgrid = sig.default_wigner_grid(config.alpha0, config.wigner_h,
                                        config.wigner_pad)
        if "negativity" in sigs and scalars["noisy"]:
            jack = sig.negativity_with_error(ens, wgrid,
                                             n_blocks=config.jackknife_blocks)
            wfield = jack.pop("field")
            scalars["negativity"] = jack["negativity"]
            scalars["sampling_error"] = jack["jackknife_se"]
            scalars["jackknife_blocks"] = jack["n_blocks"]
        else:
            wfield = sig.wigner_estimate(ens, wgrid)
            if "negativity" in sigs:
                scalars["negativity"] = sig.wigner_negativity(wfield)
                if not scalars["noisy"]:
                    scalars["sampling_error"] = 0.0
        scalars["wigner_norm"] = wfield.meta["norm"]
        scalars["wigner_max_imag_residual"] = wfield.meta["max_imag_residual"]
        if "wigner" in sigs and want_fields:
            fields["wigner"] = wfield
    if "density" in sigs:
        axis = sig.default_density_axis(config.alpha0, config.density_step)
        fields["density"] = sig.reconstruct_density(ens, axis, axis)
    if "p_variance" in sigs:
        out_moments = sig.quadrature_moments(ens)
        scalars["p_variance_out"] = out_moments["p_variance"]
        scalars["mixture_falsified"] = sig.is_mixture_falsified(scalars["p_variance_out"])
        scalars["p_moment_imag_residual"] = max(
            abs(out_moments["p_mean"].imag), abs(out_moments["p_sq"].imag))

    if not want_fields:
        fields = {}
    return PointResult(scalars=scalars, fields=fields)


def _add_references(config: ExperimentConfig, ens: EnsembleResult, scalars: dict) -> None:
    """Closed-form negativities on the run's Wigner grid, the z-score against
    the protocol reference, and the time-step error of that reference.

    ``negativity_protocol`` is s(dt), the negativity of the input cat sent
    through the channel the ensemble was sampled from.  The channel is
    evaluated once more on the same schedule at half the step (its grid
    holds the snapped t_write and t_store), and the time-step error is the
    first-order Richardson estimate 2 |s(dt) - s(dt/2)|.
    """
    schedule = config.schedule()
    wgrid = sig.default_wigner_grid(config.alpha0, config.wigner_h, config.wigner_pad)
    if config.gamma_int == 0 and config.n_init == 0:
        scalars["negativity_oracle"] = oracle_negativity(
            config.alpha0, schedule.t_store, config.n_bar, config.gamma_m, wgrid)
    reference = protocol_negativity(config.alpha0, ens.gain, ens.noise_var, wgrid)
    half_step = ProtocolSchedule(schedule.t_write, schedule.t_store, schedule.dt / 2.0)
    ts_err = 2.0 * abs(reference - protocol_negativity(
        config.alpha0, *engine.protocol_channel(config.system_params(), half_step), wgrid))
    se = scalars["sampling_error"]
    scalars["negativity_protocol"] = reference
    scalars["time_step_error"] = ts_err
    scalars["error_quadrature_sum"] = math.hypot(se, ts_err)
    if se > 0:
        scalars["z_protocol"] = (scalars["negativity"] - reference) / se


def run_point(config: ExperimentConfig, want_fields: bool = True) -> PointResult:
    """Run one point: sample the input cat, send it through the protocol
    channel and estimate the requested signatures.

    With "negativity" requested the scalars also hold the closed-form
    references and the error budget (``_add_references``): the sampling
    error (the jackknife se, 0 on noiseless points), the time-step error and
    their quadrature sum.  On a noiseless point the four weighted samples
    carry the exact cat, so ``negativity_protocol`` matches the negativity
    to rounding: a check of the estimator, not of the statistics.  The
    time-step error needs no second ensemble: a run at another step draws
    the same noise, so it would differ from this one by a fixed function of
    the two channels.
    """
    config.validate()
    inputs, ens = _corrected_ensemble(config)
    point = _point_core(config, inputs, ens, want_fields)
    if "negativity" in config.signatures:
        _add_references(config, ens, point.scalars)
    return point


def _json_safe(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    return value


def _write_atomic(path: Path, text: str) -> str:
    """Write text as UTF-8 through ``open_atomic``, so that an interrupted
    write never leaves a partial file; returns the SHA-256 hex digest of
    the bytes written."""
    data = text.encode("utf-8")
    with open_atomic(path) as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def _row_digest(row: dict) -> str:
    """SHA-256 of a sweep row's canonical JSON: every entry but its timing
    and the digest itself."""
    payload = {k: row[k] for k in ("index", "labels", "scalars", "config_sha256")}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _read_checkpoint(path: Path, expected: dict) -> dict | None:
    """The checkpoint row at path, or None unless it parses, holds exactly
    the row keys, carries the digest of its own payload and agrees with
    `expected` (the point's index, labels and config fingerprint)."""
    try:
        row = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(row, dict) or row.keys() != expected.keys() | {
            "scalars", "row_sha256", "wall_time_s"}:
        return None
    if any(row[k] != v for k, v in expected.items()) or row["row_sha256"] != _row_digest(row):
        return None
    return row


def write_run_artifacts(config: ExperimentConfig, point: PointResult,
                        out_dir, wall_time_s: float) -> dict:
    """Write each field's CSV and JSON, then the run manifest; returns the
    manifest.

    Every file is written to a temporary file and renamed into place
    (``model.open_atomic``).  The byte format of the field files is the
    one ``GridField.write_files`` states; each field's CSV carries the
    configuration fingerprint in its first line, and its manifest
    ``sha256`` is the digest of the CSV bytes as they were written.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    fingerprint = config_fingerprint(config)

    artifacts = {}
    for name, fld in point.fields.items():
        digest = fld.write_files(out / f"{name}.csv", out / f"{name}.json", fingerprint)
        artifacts[name] = {"csv": f"{name}.csv", "json": f"{name}.json", "sha256": digest}

    manifest = {
        "config": {k: _json_safe(v) for k, v in dataclasses.asdict(config).items()},
        "config_sha256": fingerprint,
        "scalars": {k: _json_safe(v) for k, v in point.scalars.items()},
        "artifacts": artifacts,
        "engine_version": ENGINE_VERSION,
        "wall_time_s": round(wall_time_s, 3),
    }
    _write_atomic(out / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True))
    return manifest


def _apply_axis(config: ExperimentConfig, axis_field: str, value: float) -> ExperimentConfig:
    if axis_field == "gamma_int":
        total = config.gamma_ext + config.gamma_int
        if value >= total:
            raise ConfigError("gamma_int must stay below the total optical rate")
        return replace(config, gamma_int=value, gamma_ext=total - value)
    return replace(config, **{axis_field: value})


def sweep_points(config: ExperimentConfig) -> list[tuple[dict, ExperimentConfig]]:
    """Expand the sweep axes into (labels, sub-configuration) pairs."""
    if not config.sweep:
        raise ConfigError("sweep requested but no sweep axes configured")
    grids: list[list[tuple[str, float]]] = [
        [(axis_field, v) for v in values] for axis_field, values in config.sweep]
    points = []
    if len(grids) == 1:
        combos = [[g] for g in grids[0]]
    else:
        combos = [[g0, g1] for g0 in grids[0] for g1 in grids[1]]
    for combo in combos:
        sub = replace(config, sweep=())
        labels = {}
        for axis_field, value in combo:
            sub = _apply_axis(sub, axis_field, value)
            labels[axis_field] = value
        points.append((labels, sub))
    return points


_SWEEP_SCALAR_COLUMNS = ("negativity", "negativity_oracle", "negativity_protocol",
                         "z_protocol", "sampling_error",
                         "time_step_error", "error_quadrature_sum",
                         "p_variance_in", "p_variance_out", "mean_weight",
                         "reference_gain_abs", "wigner_norm")


def run_sweep(config: ExperimentConfig, out_dir, progress=None) -> list[dict]:
    """Run every sweep point, checkpointing each as it completes.

    A checkpoint is reused only when its configuration fingerprint, index
    and labels match the point and its row digest matches its contents, so
    edits to the config (or a new engine version) invalidate stale points
    automatically, and an unreadable, incomplete or edited checkpoint is
    recomputed.  Checkpoints and outputs are written atomically.
    """
    out = Path(out_dir)
    ckpt_dir = out / "checkpoints"
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    points = sweep_points(config)
    rows = []
    for index, (labels, sub) in enumerate(points):
        expected = {"index": index,
                    "labels": {k: _json_safe(v) for k, v in labels.items()},
                    "config_sha256": config_fingerprint(sub)}
        ckpt = ckpt_dir / f"point_{index:04d}.json"
        row = _read_checkpoint(ckpt, expected)
        if row is None:
            start = time.perf_counter()
            point = run_point(sub, want_fields=False)
            row = expected | {
                "scalars": {k: _json_safe(v) for k, v in point.scalars.items()}}
            row["row_sha256"] = _row_digest(row)
            row["wall_time_s"] = round(time.perf_counter() - start, 3)
            _write_atomic(ckpt, json.dumps(row, sort_keys=True))
        if progress is not None:
            progress(f"point {index + 1}/{len(points)} "
                     + " ".join(f"{k}={v:g}" for k, v in row["labels"].items()))
        rows.append(row)

    axis_names = [axis_field for axis_field, _ in config.sweep]
    fingerprint = config_fingerprint(config)
    csv_path = out / "sweep.csv"
    lines = [f"# manifest_sha256 = {fingerprint}\n",
             ",".join(axis_names + list(_SWEEP_SCALAR_COLUMNS)) + "\r\n"]
    for row in rows:
        cells = [repr(float(row["labels"][a])) for a in axis_names]
        for col in _SWEEP_SCALAR_COLUMNS:
            value = row["scalars"].get(col, "")
            cells.append(repr(float(value)) if value != "" else "")
        lines.append(",".join(cells) + "\r\n")
    csv_digest = _write_atomic(csv_path, "".join(lines))

    manifest = {
        "config": {k: _json_safe(v) for k, v in dataclasses.asdict(config).items()},
        "config_sha256": fingerprint,
        "axes": {axis_field: list(values) for axis_field, values in config.sweep},
        "rows": rows,
        "artifacts": {"sweep": {"csv": csv_path.name, "sha256": csv_digest}},
        "engine_version": ENGINE_VERSION,
    }
    _write_atomic(out / "sweep_manifest.json", json.dumps(manifest, indent=2, sort_keys=True))
    return rows


def oracle_query(name: str, params: dict) -> dict:
    """Evaluate a named closed-form quantity; used by the oracle subcommand."""
    gamma = float(params.get("gamma", 1.0))
    n_bar = float(params.get("n_bar", 0.0))
    alpha0 = float(params.get("alpha0", 2.0))
    if name == "t_positive":
        return {"t_positive": oracle.t_positive(n_bar, gamma)}
    if name == "t_p_bound":
        return {"t_p_bound": oracle.t_p_bound(n_bar, gamma)}
    if name == "cat_variance":
        return {"cat_variance": oracle.cat_variance(alpha0)}
    if name == "q_parameter":
        t = float(params["t"])
        return {"q_parameter": oracle.q_parameter(t, n_bar, gamma)}
    if name == "decohered_density":
        t = float(params["t"])
        amp, coeff = oracle.decohered_density(t, alpha0, gamma)
        return {"amplitude": amp, "coefficient": coeff}
    if name == "transfer_amplitude":
        gamma_int = float(params.get("gamma_int", 0.0))
        gamma_ext = float(params.get("gamma_ext", 1.0 - gamma_int))
        sys_params = SystemParams(gamma_ext, gamma_int,
                                  gamma_m=float(params.get("gamma_m", DEFAULT_GAMMA_M)),
                                  g_eff=float(params.get("g_eff", 0.6)))
        return {"transfer_amplitude": transfer_amplitude(sys_params)}
    if name == "negativity":
        t = float(params.get("t", 0.0))
        grid = sig.default_wigner_grid(alpha0)
        return {"negativity": oracle_negativity(alpha0, t, n_bar,
                                                float(params.get("gamma", DEFAULT_GAMMA_M)),
                                                grid)}
    raise ConfigError(f"unknown oracle query {name!r}")
