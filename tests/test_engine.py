"""Protocol integrator: stepper accuracy, noise statistics, reproducibility.

The private block integrator (``engine._run_block``) steps every trajectory
and is the reference that the channel-sampled ``run_ensemble`` and the
scalar ``reference_gain`` are checked against.  ``run_ensemble`` returns the
phase-corrected frame, where the coherent-input gain is |G|; the stepped
reference is rotated into that frame by the phase of its own gain.
"""

import cmath
import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import expm

from catmem import engine, experiments
from catmem.engine import (DriveContext, g_of_t,
                           noise_increment, protocol_channel, reference_gain,
                           rk4_decay_factor, run_ensemble, run_protocol,
                           step_rk4, write_gain)
from catmem.model import (CatParams, PhaseSpaceState, ProtocolSchedule,
                          SystemParams, WeightedSample)
from catmem.modes import (ModeFunctionSpec, default_write_duration,
                          transfer_amplitude)
from catmem.sampling import RNG_BLOCK_SIZE, SamplerConfig, block_stream, sample_cat

GM = 17.5 / 170e3


def default_params(**kwargs):
    base = dict(gamma_m=GM, g_eff=0.6, n_th_mech=0.0, n_init_mech=0.0)
    base.update(kwargs)
    gamma_int = base.pop("gamma_int", 0.0)
    return SystemParams.make(1.0 - gamma_int, gamma_int, **base)


def schedule_for(params, t_store, dt=0.1):
    return ProtocolSchedule.make(default_write_duration(params), t_store, dt)


def cat_samples(alpha0, n, seed=0):
    return sample_cat(SamplerConfig(cat=CatParams.make(alpha0), n_samples=n,
                                    master_seed=seed))


def stepped_outputs(samples, p, sched, master_seed):
    # the reference: every trajectory stepped through the write and read
    # windows, in RNG_BLOCK_SIZE blocks with one stream per block
    a_in = np.array([s.alpha_in for s in samples], dtype=np.complex128)
    a_in_p = np.array([s.alpha_in_plus for s in samples], dtype=np.complex128)
    tables = engine._make_tables(p, sched, ModeFunctionSpec.for_params(p, sched.t_store))
    out = np.empty_like(a_in)
    out_p = np.empty_like(a_in)
    for block, lo in enumerate(range(0, len(samples), RNG_BLOCK_SIZE)):
        sl = slice(lo, lo + RNG_BLOCK_SIZE)
        out[sl], out_p[sl] = engine._run_block(a_in[sl], a_in_p[sl], p, sched, tables,
                                               block_stream(master_seed, block))
    return out, out_p


def stepped_gain(p, sched):
    quiet = default_params(gamma_m=p.gamma_m, g_eff=p.g_eff, gamma_int=p.gamma_int)
    return complex(stepped_outputs(
        [WeightedSample(alpha_in=1.0, alpha_in_plus=1.0, weight=1.0, branch="++")],
        quiet, sched, master_seed=0)[0][0])


def stepped_ensemble(samples, p, sched, master_seed):
    # the stepped reference in the phase-corrected frame
    out, out_p = stepped_outputs(samples, p, sched, master_seed)
    rot = cmath.exp(-1j * cmath.phase(stepped_gain(p, sched)))
    return engine.EnsembleResult(alpha_out=out * rot, alpha_out_plus=out_p * rot.conjugate(),
                                 weight=np.array([s.weight for s in samples]),
                                 branch=np.array([s.branch for s in samples]))


def test_coupling_window():
    sched = ProtocolSchedule.make(2.0, 1.0, 0.1)
    assert g_of_t(-1.0, sched, 0.6) == 0.6
    assert g_of_t(0.5, sched, 0.6) == 0.0
    assert g_of_t(1.5, sched, 0.6) == 0.6
    assert g_of_t(3.5, sched, 0.6) == 0.0
    assert g_of_t(-2.5, sched, 0.6) == 0.0


def test_step_matches_matrix_exponential():
    # constant-g, no pump: one RK4 step against expm of the generator
    p = default_params()
    A = np.array([[-p.gamma_o, 0, -1j * p.g_eff, 0],
                  [0, -p.gamma_o, 0, 1j * p.g_eff],
                  [-1j * p.g_eff, 0, -p.gamma_m, 0],
                  [0, 1j * p.g_eff, 0, -p.gamma_m]])
    spec = ModeFunctionSpec.for_params(p, 0.0)
    sched = ProtocolSchedule.make(2.0, 0.0, 0.1)
    ctx = DriveContext(alpha_in=0j, alpha_in_plus=0j, mode_spec=spec,
                       schedule=sched, params=p, g_override=0.6)
    state = PhaseSpaceState(0.3 + 0.1j, 0.3 - 0.1j, -0.2 + 0.4j, -0.2 - 0.4j)
    out = step_rk4(state, 5.0, 0.1, ctx, block_stream(0, 0))  # pump is zero at t=5
    got = np.array([out.alpha, out.alpha_plus, out.beta, out.beta_plus])
    ref = expm(A * 0.1) @ np.array([state.alpha, state.alpha_plus,
                                    state.beta, state.beta_plus])
    assert np.max(np.abs(got - ref)) < 1e-8


def test_decay_factor_is_fourth_order():
    err1 = abs(rk4_decay_factor(-0.1) - math.exp(-0.1))
    err2 = abs(rk4_decay_factor(-0.05) - math.exp(-0.05))
    assert err1 < 1e-7
    assert err1 / err2 > 25.0  # fifth-order local error: factor 32 per halving


def test_noise_increment_statistics():
    p = default_params(n_th_mech=1.5)
    rng = block_stream(1, 0)
    draws = [noise_increment(0.1, p, rng) for _ in range(20000)]
    db = np.array([d.beta for d in draws])
    assert all(d.alpha == 0 and d.alpha_plus == 0 for d in draws[:100])
    assert all(d.beta_plus == d.beta.conjugate() for d in draws[:100])
    var = float(np.mean(np.abs(db) ** 2))
    assert var == pytest.approx(2.0 * p.gamma_m * 1.5 * 0.1, rel=0.03)
    assert abs(np.mean(db)) < 3e-4


def test_noise_increment_quiet_without_occupation():
    p = default_params()
    rng = block_stream(1, 0)
    d = noise_increment(0.1, p, rng)
    assert d.beta == 0 and d.beta_plus == 0
    assert rng.standard_normal() == block_stream(1, 0).standard_normal()


def test_trajectory_conjugacy_by_branch():
    p = default_params()
    sched = schedule_for(p, 10.0)
    rng = block_stream(0, 0)
    diag = WeightedSample(alpha_in=2.0, alpha_in_plus=2.0, weight=1.0, branch="++")
    off = WeightedSample(alpha_in=2.0, alpha_in_plus=-2.0, weight=0.1, branch="+-")
    r_diag = run_protocol(diag, 0j, p, sched, rng)
    r_off = run_protocol(off, 0j, p, sched, rng)
    assert r_diag.alpha_out_plus == pytest.approx(r_diag.alpha_out.conjugate())
    assert r_off.alpha_out_plus == pytest.approx(-r_off.alpha_out.conjugate())


def test_output_linear_in_input():
    p = default_params()
    sched = schedule_for(p, 10.0)
    samples = [WeightedSample(alpha_in=a, alpha_in_plus=a, weight=1.0, branch="++")
               for a in (1.0, 2.5)]
    res = run_ensemble(samples, p, sched, master_seed=0)
    assert res.alpha_out[1] == pytest.approx(2.5 * res.alpha_out[0], rel=1e-12)


def test_batch_matches_stepwise_integration():
    p = default_params()
    sched = schedule_for(p, 10.0)
    samples = cat_samples(2.0, 8)
    batch = run_ensemble(samples, p, sched, master_seed=0)
    rng = block_stream(0, 0)  # noiseless: stream never consumed
    rot = cmath.exp(-1j * cmath.phase(stepped_gain(p, sched)))
    for k, s in enumerate(samples):
        single = run_protocol(s, 0j, p, sched, rng)
        assert batch.alpha_out[k] == pytest.approx(single.alpha_out * rot, rel=1e-10)
        assert batch.alpha_out_plus[k] == pytest.approx(
            single.alpha_out_plus * rot.conjugate(), rel=1e-10)


def test_reference_gain_closed_form():
    p = default_params()
    t_store = 0.5 * math.log(2.0) / GM
    gain = reference_gain(p, schedule_for(p, t_store))
    sched = schedule_for(p, t_store)
    expected = math.exp(-GM * sched.t_store) * transfer_amplitude(p) ** 2
    assert abs(gain) == pytest.approx(expected, abs=1e-5)
    assert abs(gain) == pytest.approx(0.706833, abs=1e-5)
    assert cmath.phase(gain) == pytest.approx(math.pi, abs=1e-9)


def test_write_gain_matches_transfer_amplitude():
    for gamma_int in (0.0, 0.05):
        p = default_params(gamma_int=gamma_int)
        gain = write_gain(p, schedule_for(p, 0.0))
        assert abs(gain) == pytest.approx(transfer_amplitude(p), abs=2e-5)
    assert abs(write_gain(default_params(gamma_int=0.05),
                          schedule_for(default_params(gamma_int=0.05), 0.0))) \
        == pytest.approx(0.97449, abs=1e-4)


def test_storage_decay_rate():
    # the transfer factors cancel in the ratio, leaving pure mechanical decay
    p = default_params()
    g1 = reference_gain(p, schedule_for(p, 10.0))
    g2 = reference_gain(p, schedule_for(p, 60.0))
    assert abs(g2) / abs(g1) == pytest.approx(math.exp(-GM * 50.0), rel=1e-10)


def test_free_storage_thermal_variance():
    # aggregated storage noise against the continuum Ornstein-Uhlenbeck variance
    p = SystemParams.make(1.0, gamma_m=0.01, g_eff=0.6, n_th_mech=1.0)
    dt, n_steps = 0.1, 500
    nu = math.sqrt(2.0 * p.gamma_m * p.n_th_mech * dt)
    z = np.zeros(100_000, dtype=np.complex128)
    _, _, b, bp = engine._free_storage(z.copy(), z.copy(), z.copy(), z.copy(),
                                       p, dt, n_steps, nu, block_stream(2, 0))
    occupancy = float(np.mean(np.abs(b) ** 2))
    assert occupancy == pytest.approx(1.0 - math.exp(-2.0 * 0.01 * 50.0), abs=0.01)
    assert np.array_equal(bp, np.conj(b))


def test_seed_determinism_and_sensitivity():
    p = default_params(n_th_mech=2.0)
    sched = schedule_for(p, 10.0)
    samples = cat_samples(2.0, 64)
    a = run_ensemble(samples, p, sched, master_seed=5)
    b = run_ensemble(samples, p, sched, master_seed=5)
    c = run_ensemble(samples, p, sched, master_seed=6)
    assert np.array_equal(a.alpha_out, b.alpha_out)
    assert not np.array_equal(a.alpha_out, c.alpha_out)


def test_protocol_adds_expected_thermal_occupation():
    # a vanishing input leaves only protocol noise: storage-dominated occupancy
    p = default_params(n_th_mech=2.0)
    t_store = 0.02 / GM
    sched = schedule_for(p, t_store)
    samples = cat_samples(1e-6, 8192)
    res = run_ensemble(samples, p, sched, master_seed=9)
    n_add = float(np.average((res.alpha_out_plus * res.alpha_out).real,
                             weights=res.weight))
    assert n_add == pytest.approx(2.0 * (1.0 - math.exp(-2.0 * GM * t_store)),
                                  abs=0.01)


def assert_channel_residual(p, sched, run=stepped_ensemble, n=16384, seed=11):
    # a phase-corrected ensemble against the channel: alpha_out - |G| alpha_in
    # is circular Gaussian noise with variance noise_var, each moment within
    # 4 se
    gain, noise_var = protocol_channel(p, sched)
    samples = cat_samples(2.0, n)
    res = run(samples, p, sched, seed)
    r = res.alpha_out - abs(gain) * np.array([s.alpha_in for s in samples])
    mean = np.mean(r)
    assert abs(mean) <= 4.0 * math.sqrt(np.mean(np.abs(r - mean) ** 2) / n)
    pseudo = np.mean(r * r)
    assert abs(pseudo) <= 4.0 * math.sqrt(np.mean(np.abs(r * r - pseudo) ** 2) / n)
    var = np.abs(r) ** 2
    assert abs(np.mean(var) - noise_var) <= 4.0 * np.std(var) / math.sqrt(n)
    return noise_var


def test_protocol_channel_gain_is_reference_gain():
    p = default_params(n_th_mech=2.0, n_init_mech=0.5)
    sched = schedule_for(p, 10.0)
    assert protocol_channel(p, sched)[0] == reference_gain(p, sched)


def test_protocol_channel_quiet_without_occupation(monkeypatch):
    p = default_params()
    sched = schedule_for(p, 0.02 / GM)
    monkeypatch.setattr(engine, "block_stream", None)  # draws no random numbers
    assert protocol_channel(p, sched)[1] == 0.0
    samples = cat_samples(2.0, 8)
    res = run_ensemble(samples, p, sched, master_seed=0)
    gain = reference_gain(p, sched)
    assert np.array_equal(res.alpha_out,
                          abs(gain) * np.array([s.alpha_in for s in samples]))


def test_protocol_channel_matches_stepped_ensemble():
    # the fig10 point: n_bar = 2 after 0.02 mechanical lifetimes of storage
    p = default_params(n_th_mech=2.0)
    noise_var = assert_channel_residual(p, schedule_for(p, 0.02 / GM))
    assert noise_var == pytest.approx(0.079920, abs=1e-6)


def test_run_ensemble_samples_the_channel():
    # the fig10 point again, now sampled from the channel itself
    p = default_params(n_th_mech=2.0)
    sched = schedule_for(p, 0.02 / GM)
    assert_channel_residual(p, sched, run=run_ensemble)
    samples = cat_samples(2.0, 64)
    res = run_ensemble(samples, p, sched, master_seed=3)
    gain = reference_gain(p, sched)
    assert (res.gain, res.noise_var) == protocol_channel(p, sched)
    a_in = np.array([s.alpha_in for s in samples])
    r = res.alpha_out - abs(gain) * a_in
    r_plus = res.alpha_out_plus - abs(gain) * np.array([s.alpha_in_plus
                                                         for s in samples])
    # the plus column carries the conjugate noise: exactly on the diagonal
    # branches; on the off-diagonal ones |G| a_in enters with the opposite
    # sign, so the two sums round differently, by at most one ulp of alpha_out
    diag = res.branch == np.array([b[0] + b[0] for b in res.branch])
    assert np.array_equal(r_plus[diag], np.conj(r[diag]))
    ulp = np.spacing(np.abs(gain * a_in) + np.abs(r))
    assert np.all(np.abs(r_plus - np.conj(r)) <= 2.0 * ulp)


def test_reference_gain_is_stepped_gain():
    # the scalar pass against a one-trajectory stepped block, at the fig10
    # point and at criterion 7's oscillatory parameters
    p = default_params(n_th_mech=2.0)
    cases = [(p, schedule_for(p, 0.02 / GM))]
    cases += [(default_params(), ProtocolSchedule.make(20.0, 0.8, dt))
              for dt in (0.2, 0.1, 0.05)]
    for params, sched in cases:
        gain = reference_gain(params, sched)
        assert gain == pytest.approx(stepped_gain(params, sched), rel=1e-12, abs=0.0)


def test_time_steps_share_the_noise_draw():
    # the dt and 2 dt runs of one seed scale the same normal pairs
    p = default_params(n_th_mech=2.0)
    samples = cat_samples(2.0, 2 * RNG_BLOCK_SIZE + 8)
    a_in = np.array([s.alpha_in for s in samples])
    etas = []
    for dt in (0.1, 0.2):
        sched = schedule_for(p, 10.0, dt=dt)
        gain, noise_var = protocol_channel(p, sched)
        res = run_ensemble(samples, p, sched, master_seed=4)
        # undo the phase correction of the noise to recover the normal pairs
        rot = cmath.exp(-1j * cmath.phase(gain))
        etas.append((res.alpha_out - abs(gain) * a_in) / (math.sqrt(noise_var) * rot))
    assert np.allclose(etas[0], etas[1], rtol=0.0, atol=1e-12)
    assert np.std(etas[0]) == pytest.approx(1.0, abs=0.05)


def test_protocol_channel_includes_thermal_start():
    # a short write window leaves part of the initial occupation in the mode
    sched = ProtocolSchedule.make(2.0, 10.0, 0.1)
    start = assert_channel_residual(default_params(n_init_mech=1.0), sched)
    bath = protocol_channel(default_params(n_th_mech=2.0), sched)[1]
    both = protocol_channel(default_params(n_th_mech=2.0, n_init_mech=1.0), sched)[1]
    assert start > 0.01
    assert both == pytest.approx(bath + start, rel=1e-12)


def test_unstable_step_reports_nonfinite():
    p = default_params(g_eff=40.0)
    sched = ProtocolSchedule.make(50.0, 0.0, 0.1)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(FloatingPointError):
        run_ensemble(cat_samples(1.0, 4), p, sched, master_seed=0)


def test_phase_correction(monkeypatch):
    # a channel with gain 2i: the corrected frame has gain 2, and the noise
    # turns by -pi/2 (the plus column the other way, so pairs stay conjugate)
    p = default_params(n_th_mech=2.0)
    sched = schedule_for(p, 10.0)
    samples = [WeightedSample(alpha_in=1j, alpha_in_plus=-1j, weight=1.0, branch="++")]
    monkeypatch.setattr(engine, "protocol_channel", lambda params, schedule: (2j, 0.5))
    fixed = run_ensemble(samples, p, sched, master_seed=0)
    x, y = block_stream(0, 0).standard_normal((2, 1))
    noise = 0.5 * (x[0] + 1j * y[0]) * -1j
    assert fixed.alpha_out[0] == pytest.approx(2j + noise, rel=1e-15)
    assert fixed.alpha_out_plus[0] == pytest.approx(-2j + noise.conjugate(), rel=1e-15)
    assert fixed.gain == 2j and fixed.noise_var == 0.5
    monkeypatch.setattr(engine, "protocol_channel", lambda params, schedule: (0j, 0.5))
    with pytest.raises(ValueError):
        run_ensemble(samples, p, sched, master_seed=0)


@pytest.mark.parametrize("n_bar", [0.0, 2.0])
def test_corrected_ensemble_is_exactly_real(n_bar):
    # for real alpha0 mu_x = (alpha_out + alpha_out_plus)/2 is real on every
    # row, at dt and 2 dt, so the Wigner kernel builds no x sine table
    from catmem.signatures import _kernel_tables, default_wigner_grid

    grid = default_wigner_grid(2.0)
    base = experiments.ExperimentConfig(alpha0=2.0, n_bar=n_bar, n_samples=8192)
    for config in (base, dataclasses.replace(base, dt=2.0 * base.dt)):
        _, ens = experiments._corrected_ensemble(config)
        mu_x = 0.5 * (ens.alpha_out + ens.alpha_out_plus)
        assert np.all(mu_x.imag == 0.0)
        rows = slice(None, None, 16)  # every branch, off-diagonal ones included
        _, _, phased, sx, _ = _kernel_tables(ens.alpha_out[rows], ens.alpha_out_plus[rows],
                                             ens.weight[rows], grid.x, grid.y)
        assert sx is None and phased.size > 0
