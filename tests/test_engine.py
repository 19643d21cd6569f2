"""Protocol channel and ensemble sampler against a stepped reference.

No trajectory is stepped in the package: ``run_ensemble`` samples the
ensemble from the protocol's exact Gaussian channel (``protocol_channel``).
The reference here steps every trajectory, one RK4 step plus one
mechanical kick at a time, through the write, storage and read windows.  It
samples the drive and the output projection on the engine's time grid, and
steps the storage window instead of using the engine's storage aggregate,
so it checks that too.  ``run_ensemble`` returns the
phase-corrected frame, where the coherent-input gain is |G|; the stepped
reference is rotated into that frame by the phase of its own gain.
"""

import cmath
import dataclasses
import decimal
import math

import numpy as np
import pytest
from scipy.linalg import expm

from catmem import engine, experiments
from catmem.engine import protocol_channel, run_ensemble, write_gain
from catmem.model import EnsembleResult, ProtocolSchedule, SystemParams
from catmem.modes import (ModeFunctionSpec, default_write_duration,
                          transfer_amplitude, u_in, u_out)
from catmem.sampling import RNG_BLOCK_SIZE, block_stream, sample_cat

GM = 17.5 / 170e3


def default_params(**kwargs):
    base = dict(gamma_m=GM, g_eff=0.6, n_th_mech=0.0, n_init_mech=0.0)
    base.update(kwargs)
    gamma_int = base.pop("gamma_int", 0.0)
    return SystemParams(1.0 - gamma_int, gamma_int, **base)


def schedule_for(params, t_store, dt=0.1):
    return ProtocolSchedule.make(default_write_duration(params), t_store, dt)


def inputs_of(alpha_in, alpha_in_plus, branch):
    # a hand-built input ensemble of unit weights
    return EnsembleResult(alpha_out=np.array(alpha_in, dtype=np.complex128),
                          alpha_out_plus=np.array(alpha_in_plus, dtype=np.complex128),
                          weight=np.ones(len(branch)), branch=np.array(branch))


# -- the stepped reference ---------------------------------------------------

def drive_tables(params, schedule):
    """The write drive sqrt(2 gamma_ext) u_in at the write grid points and
    step midpoints, and u_out with its trapezoid weights at the read grid
    points."""
    spec = ModeFunctionSpec.for_params(params, schedule.t_store)
    dt = schedule.dt
    tw = -schedule.t_write + dt * np.arange(schedule.n_write + 1)
    tr = schedule.t_store + dt * np.arange(schedule.n_read + 1)
    trap = np.full(schedule.n_read + 1, dt)
    trap[0] *= 0.5
    trap[-1] *= 0.5
    sq = math.sqrt(2.0 * params.gamma_ext)
    return sq * u_in(tw, spec), sq * u_in(tw[:-1] + 0.5 * dt, spec), u_out(tr, spec), trap


def sample_thermal(n_occupation, count, rng):
    """Thermal starts: count complex beta with <|beta|^2> = n_occupation and
    <beta^2> = 0.  Zero occupation gives exact zeros and draws nothing."""
    if n_occupation < 0:
        raise ValueError("occupation must be non-negative")
    if count < 0:
        raise ValueError("count must be non-negative")
    if n_occupation == 0:
        return np.zeros(count, dtype=np.complex128)
    xy = rng.standard_normal((2, count))
    return math.sqrt(n_occupation / 2.0) * (xy[0] + 1j * xy[1])


def kick(b, bp, nu, rng):
    """One mechanical noise kick of standard deviation nu, conjugate on bp."""
    if nu == 0:
        return b, bp
    xy = rng.standard_normal((2, b.size))
    eta = (xy[0] + 1j * xy[1]) / math.sqrt(2.0)
    return b + nu * eta, bp + nu * np.conj(eta)


def stepped_span(a, ap, b, bp, params, dt, n_steps, d_grid, d_mid, a_in, a_in_p,
                 nu, rng, uo_grid=None, trap=None, sq=0.0):
    """Step a trajectory block through a constant-g window, one RK4 step and
    one mechanical kick of standard deviation nu at a time.

    Optionally applies the mode-matched drive (write) and accumulates the
    output projection on the fly (read).  Returns the state and, when
    projecting, the running output integrals.
    """
    go, gm, g = params.gamma_o, params.gamma_m, params.g_eff
    half = 0.5 * dt
    acc = acc_p = None
    if uo_grid is not None:
        acc = trap[0] * uo_grid[0] * sq * a
        acc_p = trap[0] * np.conj(uo_grid[0]) * sq * ap

    for k in range(n_steps):
        if d_grid is not None:
            d0, dh, d1 = d_grid[k], d_mid[k], d_grid[k + 1]
        else:
            d0 = dh = d1 = 0.0j

        k1a = -go * a - 1j * g * b + d0 * a_in
        k1ap = -go * ap + 1j * g * bp + d0.conjugate() * a_in_p
        k1b = -gm * b - 1j * g * a
        k1bp = -gm * bp + 1j * g * ap

        a2 = a + half * k1a
        ap2 = ap + half * k1ap
        b2 = b + half * k1b
        bp2 = bp + half * k1bp
        k2a = -go * a2 - 1j * g * b2 + dh * a_in
        k2ap = -go * ap2 + 1j * g * bp2 + dh.conjugate() * a_in_p
        k2b = -gm * b2 - 1j * g * a2
        k2bp = -gm * bp2 + 1j * g * ap2

        a3 = a + half * k2a
        ap3 = ap + half * k2ap
        b3 = b + half * k2b
        bp3 = bp + half * k2bp
        k3a = -go * a3 - 1j * g * b3 + dh * a_in
        k3ap = -go * ap3 + 1j * g * bp3 + dh.conjugate() * a_in_p
        k3b = -gm * b3 - 1j * g * a3
        k3bp = -gm * bp3 + 1j * g * ap3

        a4 = a + dt * k3a
        ap4 = ap + dt * k3ap
        b4 = b + dt * k3b
        bp4 = bp + dt * k3bp
        k4a = -go * a4 - 1j * g * b4 + d1 * a_in
        k4ap = -go * ap4 + 1j * g * bp4 + d1.conjugate() * a_in_p
        k4b = -gm * b4 - 1j * g * a4
        k4bp = -gm * bp4 + 1j * g * ap4

        sixth = dt / 6.0
        a = a + sixth * (k1a + 2.0 * (k2a + k3a) + k4a)
        ap = ap + sixth * (k1ap + 2.0 * (k2ap + k3ap) + k4ap)
        b = b + sixth * (k1b + 2.0 * (k2b + k3b) + k4b)
        bp = bp + sixth * (k1bp + 2.0 * (k2bp + k3bp) + k4bp)

        b, bp = kick(b, bp, nu, rng)

        if uo_grid is not None:
            w = trap[k + 1]
            acc = acc + w * uo_grid[k + 1] * sq * a
            acc_p = acc_p + w * np.conj(uo_grid[k + 1]) * sq * ap

    return a, ap, b, bp, acc, acc_p


def stepped_storage(a, ap, b, bp, params, dt, n_steps, nu, rng):
    """Step the uncoupled storage window, one RK4 step and one kick at a time.

    With g = 0 and no drive every variable decays on its own, so an RK4 step
    adds a fixed multiple of it: the increment of y' = lambda y over one step
    from y = 1, taken from the four RK4 stages.
    """
    def increment(lam):
        k1 = lam
        k2 = lam * (1.0 + 0.5 * dt * k1)
        k3 = lam * (1.0 + 0.5 * dt * k2)
        k4 = lam * (1.0 + dt * k3)
        return dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)

    d_o, d_m = increment(-params.gamma_o), increment(-params.gamma_m)
    for _ in range(n_steps):
        a, ap = a + d_o * a, ap + d_o * ap
        b, bp = kick(b + d_m * b, bp + d_m * bp, nu, rng)
    return a, ap, b, bp


def stepped_block(a_in, a_in_p, params, schedule, tables, stream):
    """Output-mode amplitudes of one trajectory block, every window stepped."""
    d_grid, d_mid, uo_grid, trap = tables
    n = a_in.size
    dt = schedule.dt
    nu = math.sqrt(2.0 * params.gamma_m * params.n_th_mech * dt) \
        if params.gamma_m > 0 and params.n_th_mech > 0 else 0.0
    beta0 = sample_thermal(params.n_init_mech, n, stream)
    a = np.zeros(n, dtype=np.complex128)
    ap = np.zeros(n, dtype=np.complex128)
    b = beta0.astype(np.complex128)
    bp = np.conj(beta0)

    a, ap, b, bp, _, _ = stepped_span(a, ap, b, bp, params, dt, schedule.n_write,
                                      d_grid, d_mid, a_in, a_in_p,
                                      nu, stream)
    a, ap, b, bp = stepped_storage(a, ap, b, bp, params, dt, schedule.n_store, nu, stream)
    _, _, _, _, acc, acc_p = stepped_span(a, ap, b, bp, params, dt, schedule.n_read,
                                          None, None, a_in, a_in_p, nu, stream,
                                          uo_grid=uo_grid, trap=trap,
                                          sq=math.sqrt(2.0 * params.gamma_ext))
    return acc, acc_p


def stepped_outputs(inputs, p, sched, master_seed):
    # every trajectory stepped, in RNG_BLOCK_SIZE blocks with one stream per
    # block
    a_in, a_in_p = inputs.alpha_out, inputs.alpha_out_plus
    tables = drive_tables(p, sched)
    out = np.empty_like(a_in)
    out_p = np.empty_like(a_in)
    for block, lo in enumerate(range(0, len(inputs), RNG_BLOCK_SIZE)):
        sl = slice(lo, lo + RNG_BLOCK_SIZE)
        out[sl], out_p[sl] = stepped_block(a_in[sl], a_in_p[sl], p, sched, tables,
                                           block_stream(master_seed, block))
    return out, out_p


def stepped_gain(p, sched):
    quiet = default_params(gamma_m=p.gamma_m, g_eff=p.g_eff, gamma_int=p.gamma_int)
    return complex(stepped_outputs(inputs_of([1.0], [1.0], ["++"]), quiet, sched,
                                   master_seed=0)[0][0])


def stepped_ensemble(inputs, p, sched, master_seed):
    # the stepped reference in the phase-corrected frame
    out, out_p = stepped_outputs(inputs, p, sched, master_seed)
    rot = cmath.exp(-1j * cmath.phase(stepped_gain(p, sched)))
    return EnsembleResult(alpha_out=out * rot, alpha_out_plus=out_p * rot.conjugate(),
                          weight=inputs.weight, branch=inputs.branch)


def test_thermal_moments():
    rng = block_stream(3, 0)
    beta = sample_thermal(1.7, 200_000, rng)
    n_est = float(np.mean(np.abs(beta) ** 2))
    assert n_est == pytest.approx(1.7, abs=0.02)
    assert abs(np.mean(beta)) < 0.01
    assert abs(np.mean(beta ** 2)) < 0.02


def test_thermal_zero_occupation_consumes_no_randomness():
    rng = block_stream(5, 1)
    zeros = sample_thermal(0.0, 16, rng)
    assert np.all(zeros == 0.0)
    fresh = block_stream(5, 1)
    assert rng.standard_normal() == fresh.standard_normal()


def test_thermal_validation():
    rng = block_stream(0, 0)
    with pytest.raises(ValueError):
        sample_thermal(-0.1, 4, rng)
    with pytest.raises(ValueError):
        sample_thermal(1.0, -1, rng)


# -- the engine --------------------------------------------------------------

def test_step_matches_matrix_exponential():
    # constant g, no drive: the RK4 step matrix of (alpha, beta) against expm
    # of the generator
    p = default_params()
    A = np.array([[-p.gamma_o, -1j * p.g_eff],
                  [-1j * p.g_eff, -p.gamma_m]])
    state = np.array([0.3 + 0.1j, -0.2 + 0.4j])
    got = np.array(engine._step(p, 0.1)[0]) @ state
    assert np.max(np.abs(got - expm(A * 0.1) @ state)) < 1e-8


def test_driven_step_is_one_stepped_step():
    # the affine step against one step of the stepped reference, with
    # distinct drive values at the start, the midpoint and the end
    p = default_params()
    dt = 0.1
    m, m0, mh, m1 = (np.array(part) for part in engine._step(p, dt))
    a, b = 0.3 + 0.1j, -0.2 + 0.4j
    d0, dh, d1 = 0.7 - 0.2j, 0.5 + 0.3j, 0.2 + 0.6j
    got = m @ np.array([a, b]) + m0 * d0 + mh * dh + m1 * d1
    a1, _, b1, _, _, _ = stepped_span(np.array([a]), np.array([a.conjugate()]),
                                      np.array([b]), np.array([b.conjugate()]),
                                      p, dt, 1, [d0, d1], [dh], 1.0, 1.0, 0.0, None)
    for value, ref in zip(got, (a1[0], b1[0])):
        assert abs(value - ref) <= 1e-15 * abs(ref)


def test_decay_factor_is_fourth_order():
    err1 = abs(engine._rk4_increment(-0.1) - math.expm1(-0.1))
    err2 = abs(engine._rk4_increment(-0.05) - math.expm1(-0.05))
    assert err1 < 1e-7
    assert err1 / err2 > 25.0  # fifth-order local error: factor 32 per halving


@pytest.mark.parametrize("n_store", [1943, 8859, 33670])
def test_storage_aggregate_matches_decimal(n_store):
    # the storage times 0.02, 0.0912 and 0.3466/Gm at dt = 0.1: the
    # mechanical factor and the kick variance sum against 40-digit
    # arithmetic on the same step factor
    p = default_params()
    dt = 0.1
    _, r_m, var_sum = engine._storage_aggregate(p, dt, n_store)
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        x = decimal.Decimal(-p.gamma_m * dt)
        factor = 1 + x + x ** 2 / 2 + x ** 3 / 6 + x ** 4 / 24
        r_ref = float(factor ** n_store)
        var_ref = float((1 - factor ** (2 * n_store)) / (1 - factor ** 2))
    assert abs(r_m - r_ref) <= 1e-14 * r_ref
    assert abs(var_sum - var_ref) <= 1e-14 * var_ref


def test_trajectory_conjugacy_by_branch():
    p = default_params()
    sched = schedule_for(p, 10.0)
    out, out_p = stepped_outputs(inputs_of([2.0, 2.0], [2.0, -2.0], ["++", "+-"]),
                                 p, sched, master_seed=0)
    assert out_p[0] == pytest.approx(out[0].conjugate())
    assert out_p[1] == pytest.approx(-out[1].conjugate())


def test_output_linear_in_input():
    p = default_params()
    sched = schedule_for(p, 10.0)
    res = run_ensemble(inputs_of([1.0, 2.5], [1.0, 2.5], ["++", "++"]), p, sched,
                       master_seed=0)
    assert res.alpha_out[1] == pytest.approx(2.5 * res.alpha_out[0], rel=1e-12)


def test_batch_matches_stepwise_integration():
    # noiseless: the sampled ensemble is the stepped one up to rounding
    p = default_params()
    sched = schedule_for(p, 10.0)
    inputs = sample_cat(2.0, 8)
    batch = run_ensemble(inputs, p, sched, master_seed=0)
    stepped = stepped_ensemble(inputs, p, sched, master_seed=0)
    assert batch.alpha_out == pytest.approx(stepped.alpha_out, rel=1e-10)
    assert batch.alpha_out_plus == pytest.approx(stepped.alpha_out_plus, rel=1e-10)


def test_reference_gain_closed_form():
    p = default_params()
    t_store = 0.5 * math.log(2.0) / GM
    sched = schedule_for(p, t_store)
    gain = protocol_channel(p, sched)[0]
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
    g1 = protocol_channel(p, schedule_for(p, 10.0))[0]
    g2 = protocol_channel(p, schedule_for(p, 60.0))[0]
    assert abs(g2) / abs(g1) == pytest.approx(math.exp(-GM * 50.0), rel=1e-10)


def test_free_storage_thermal_variance():
    # stepped storage noise against the engine's aggregate variance, and that
    # against the continuum Ornstein-Uhlenbeck variance
    p = SystemParams(1.0, gamma_m=0.01, g_eff=0.6, n_th_mech=1.0)
    dt, n_steps, n = 0.1, 500, 16384
    nu = math.sqrt(2.0 * p.gamma_m * p.n_th_mech * dt)
    aggregate = nu ** 2 * engine._storage_aggregate(p, dt, n_steps)[2]
    assert aggregate == pytest.approx(1.0 - math.exp(-2.0 * 0.01 * 50.0), abs=0.01)
    z = np.zeros(n, dtype=np.complex128)
    _, _, b, bp = stepped_storage(z, z, z, z, p, dt, n_steps, nu, block_stream(2, 0))
    occupancy = np.abs(b) ** 2
    assert abs(np.mean(occupancy) - aggregate) <= 4.0 * np.std(occupancy) / math.sqrt(n)
    assert np.array_equal(bp, np.conj(b))


def test_seed_determinism_and_sensitivity():
    p = default_params(n_th_mech=2.0)
    sched = schedule_for(p, 10.0)
    inputs = sample_cat(2.0, 64)
    a = run_ensemble(inputs, p, sched, master_seed=5)
    b = run_ensemble(inputs, p, sched, master_seed=5)
    c = run_ensemble(inputs, p, sched, master_seed=6)
    assert np.array_equal(a.alpha_out, b.alpha_out)
    assert not np.array_equal(a.alpha_out, c.alpha_out)


def test_protocol_adds_expected_thermal_occupation():
    # a vanishing input leaves only protocol noise: storage-dominated occupancy
    p = default_params(n_th_mech=2.0)
    t_store = 0.02 / GM
    sched = schedule_for(p, t_store)
    res = run_ensemble(sample_cat(1e-6, 8192), p, sched, master_seed=9)
    n_add = float(np.average((res.alpha_out_plus * res.alpha_out).real,
                             weights=res.weight))
    assert n_add == pytest.approx(2.0 * (1.0 - math.exp(-2.0 * GM * t_store)),
                                  abs=0.01)


def assert_channel_residual(p, sched, run=stepped_ensemble, n=16384, seed=11):
    # a phase-corrected ensemble against the channel: alpha_out - |G| alpha_in
    # is circular Gaussian noise with variance noise_var, each moment within
    # 4 se
    gain, noise_var = protocol_channel(p, sched)
    inputs = sample_cat(2.0, n)
    res = run(inputs, p, sched, seed)
    r = res.alpha_out - abs(gain) * inputs.alpha_out
    mean = np.mean(r)
    assert abs(mean) <= 4.0 * math.sqrt(np.mean(np.abs(r - mean) ** 2) / n)
    pseudo = np.mean(r * r)
    assert abs(pseudo) <= 4.0 * math.sqrt(np.mean(np.abs(r * r - pseudo) ** 2) / n)
    var = np.abs(r) ** 2
    assert abs(np.mean(var) - noise_var) <= 4.0 * np.std(var) / math.sqrt(n)
    return noise_var


def test_protocol_channel_quiet_without_occupation(monkeypatch):
    p = default_params()
    sched = schedule_for(p, 0.02 / GM)
    monkeypatch.setattr(engine, "block_stream", None)  # draws no random numbers
    gain, noise_var = protocol_channel(p, sched)
    assert noise_var == 0.0
    inputs = sample_cat(2.0, 8)
    res = run_ensemble(inputs, p, sched, master_seed=0)
    assert np.array_equal(res.alpha_out, abs(gain) * inputs.alpha_out)


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
    inputs = sample_cat(2.0, 64)
    res = run_ensemble(inputs, p, sched, master_seed=3)
    gain = res.gain
    assert (res.gain, res.noise_var) == protocol_channel(p, sched)
    r = res.alpha_out - abs(gain) * inputs.alpha_out
    r_plus = res.alpha_out_plus - abs(gain) * inputs.alpha_out_plus
    # the plus column carries the conjugate noise: exactly on the diagonal
    # branches; on the off-diagonal ones |G| a_in enters with the opposite
    # sign, so the two sums round differently, by at most one ulp of alpha_out
    diag = res.branch == np.array([b[0] + b[0] for b in res.branch])
    assert np.array_equal(r_plus[diag], np.conj(r[diag]))
    ulp = np.spacing(np.abs(gain * inputs.alpha_out) + np.abs(r))
    assert np.all(np.abs(r_plus - np.conj(r)) <= 2.0 * ulp)


def test_reference_gain_is_stepped_gain():
    # the channel's gain against a one-trajectory stepped block, at the
    # fig10 point and at criterion 7's oscillatory parameters
    p = default_params(n_th_mech=2.0)
    cases = [(p, schedule_for(p, 0.02 / GM))]
    cases += [(default_params(), ProtocolSchedule.make(20.0, 0.8, dt))
              for dt in (0.2, 0.1, 0.05)]
    for params, sched in cases:
        gain = protocol_channel(params, sched)[0]
        assert gain == pytest.approx(stepped_gain(params, sched), rel=1e-12, abs=0.0)


def test_protocol_gain_is_stepped_gain_over_long_storage():
    # the storage aggregate keeps its accuracy over thousands of steps: the
    # fig10 points at 0.02 and 0.0912/Gm, to rounding
    p = default_params(n_th_mech=2.0)
    for t_rel in (0.02, 0.0912):
        sched = schedule_for(p, t_rel / GM)
        gain = protocol_channel(p, sched)[0]
        assert gain == pytest.approx(stepped_gain(p, sched), rel=1e-14, abs=0.0)


def test_time_steps_share_the_noise_draw():
    # the dt and 2 dt runs of one seed scale the same normal pairs
    p = default_params(n_th_mech=2.0)
    inputs = sample_cat(2.0, 2 * RNG_BLOCK_SIZE + 8)
    etas = []
    for dt in (0.1, 0.2):
        sched = schedule_for(p, 10.0, dt=dt)
        gain, noise_var = protocol_channel(p, sched)
        res = run_ensemble(inputs, p, sched, master_seed=4)
        # undo the phase correction of the noise to recover the normal pairs
        rot = cmath.exp(-1j * cmath.phase(gain))
        etas.append((res.alpha_out - abs(gain) * inputs.alpha_out)
                    / (math.sqrt(noise_var) * rot))
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
        run_ensemble(sample_cat(1.0, 4), p, sched, master_seed=0)


def test_phase_correction(monkeypatch):
    # a channel with gain 2i: the corrected frame has gain 2, and the noise
    # turns by -pi/2 (the plus column the other way, so pairs stay conjugate)
    p = default_params(n_th_mech=2.0)
    sched = schedule_for(p, 10.0)
    inputs = inputs_of([1j], [-1j], ["++"])
    monkeypatch.setattr(engine, "protocol_channel", lambda params, schedule: (2j, 0.5))
    fixed = run_ensemble(inputs, p, sched, master_seed=0)
    x, y = block_stream(0, 0).standard_normal((2, 1))
    noise = 0.5 * (x[0] + 1j * y[0]) * -1j
    assert fixed.alpha_out[0] == pytest.approx(2j + noise, rel=1e-15)
    assert fixed.alpha_out_plus[0] == pytest.approx(-2j + noise.conjugate(), rel=1e-15)
    assert fixed.gain == 2j and fixed.noise_var == 0.5
    monkeypatch.setattr(engine, "protocol_channel", lambda params, schedule: (0j, 0.5))
    with pytest.raises(ValueError):
        run_ensemble(inputs, p, sched, master_seed=0)


@pytest.mark.parametrize("n_bar", [0.0, 2.0])
def test_corrected_ensemble_is_exactly_real(n_bar):
    # for real alpha0 mu_x = (alpha_out + alpha_out_plus)/2 is real on every
    # row, at dt and 2 dt, so the Wigner kernel accepts the ensemble
    from catmem.signatures import _kernel_tables, default_wigner_grid

    grid = default_wigner_grid(2.0)
    base = experiments.ExperimentConfig(alpha0=2.0, n_bar=n_bar, n_samples=8192)
    for config in (base, dataclasses.replace(base, dt=2.0 * base.dt)):
        _, ens = experiments._corrected_ensemble(config)
        mu_x = 0.5 * (ens.alpha_out + ens.alpha_out_plus)
        assert np.all(mu_x.imag == 0.0)
        rows = slice(None, None, 16)  # every branch, off-diagonal ones included
        _, _, phased, _ = _kernel_tables(ens.alpha_out[rows], ens.alpha_out_plus[rows],
                                         ens.weight[rows], grid.x, grid.y)
        assert phased.size > 0
