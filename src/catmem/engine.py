"""Stochastic integration of the write/store/read protocol.

The positive-P equations of motion are linear Langevin equations for the
doubled phase-space variables (alpha, alpha+, beta, beta+).  The
deterministic part is advanced with classical fourth-order Runge-Kutta; the
mechanical thermal noise enters as one additive increment per step.  Since
the recursion is linear with additive Gaussian noise, the retrieved
amplitude of every trajectory is exactly alpha_out = G alpha_in + N with one
circular Gaussian N.  ``protocol_channel`` computes the gain G and the
variance E|N|^2 without sampling (the RK4 discretisation included), and
``run_ensemble`` samples the ensemble from that channel in O(n), one normal
pair per trajectory, in the frame where the gain is real and positive.
``reference_gain`` runs the deterministic recursion in scalar arithmetic.
``run_protocol`` integrates a single trajectory step by step; the private
block integrator (``_run_block``) steps whole trajectory blocks as numpy
arrays and is kept as the reference the sampled ensemble is tested
against.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import (PhaseSpaceState, ProtocolSchedule, SystemParams,
                    TrajectoryResult, WeightedSample)
from .modes import ModeFunctionSpec, u_in, u_out
from .sampling import RNG_BLOCK_SIZE, block_stream, sample_thermal

__all__ = [
    "ENGINE_VERSION",
    "DriveContext",
    "EnsembleResult",
    "g_of_t",
    "drift",
    "thermal_field_increment",
    "noise_increment",
    "step_rk4",
    "run_protocol",
    "run_ensemble",
    "reference_gain",
    "protocol_channel",
    "write_gain",
    "rk4_decay_factor",
]

# Names the random numbers a configuration draws; part of every config
# fingerprint, so it changes whenever the same configuration would give
# different results.
ENGINE_VERSION = "gaussian-channel-2"


def g_of_t(t, schedule: ProtocolSchedule, g_eff: float):
    """Coupling window: g_eff on the closed write and read intervals, else 0."""
    t_arr = np.asarray(t, dtype=float)
    in_write = (t_arr >= -schedule.t_write) & (t_arr <= 0.0)
    in_read = (t_arr >= schedule.t_store) & (t_arr <= schedule.t_store + schedule.t_read)
    vals = np.where(in_write | in_read, g_eff, 0.0)
    if np.ndim(t) == 0:
        return float(vals)
    return vals


@dataclass
class DriveContext:
    """Everything the drift needs besides the state itself.

    g_override pins the coupling for one integration segment so that
    Runge-Kutta stages never straddle a window edge; when None the window
    function is consulted directly.
    """

    alpha_in: complex
    alpha_in_plus: complex
    mode_spec: ModeFunctionSpec
    schedule: ProtocolSchedule
    params: SystemParams
    g_override: Optional[float] = None


def drift(state: PhaseSpaceState, t: float, ctx: DriveContext) -> PhaseSpaceState:
    """Deterministic time derivative of the doubled phase-space point."""
    p = ctx.params
    g = ctx.g_override if ctx.g_override is not None else g_of_t(t, ctx.schedule, p.g_eff)
    pump = math.sqrt(2.0 * p.gamma_ext) * u_in(t, ctx.mode_spec)
    return PhaseSpaceState(
        alpha=-p.gamma_o * state.alpha - 1j * g * state.beta + pump * ctx.alpha_in,
        alpha_plus=-p.gamma_o * state.alpha_plus + 1j * g * state.beta_plus
        + pump.conjugate() * ctx.alpha_in_plus,
        beta=-p.gamma_m * state.beta - 1j * g * state.alpha,
        beta_plus=-p.gamma_m * state.beta_plus + 1j * g * state.alpha_plus,
    )


def thermal_field_increment(dt: float, n_bar: float, rng: np.random.Generator, size=None):
    """Raw thermal reservoir increment dphi with <dphi dphi+> = n_bar dt.

    Returns complex Gaussians with <|dphi|^2> = n_bar dt and <dphi^2> = 0.
    Zero occupation returns exact zeros without consuming the stream.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if n_bar < 0:
        raise ValueError("n_bar must be non-negative")
    if n_bar == 0:
        return 0.0 + 0.0j if size is None else np.zeros(size, dtype=np.complex128)
    scale = math.sqrt(n_bar * dt / 2.0)
    xy = rng.standard_normal((2,) if size is None else (2, size))
    vals = scale * (xy[0] + 1j * xy[1])
    return complex(vals) if size is None else vals


def noise_increment(dt: float, params: SystemParams, rng: np.random.Generator) -> PhaseSpaceState:
    """Per-step stochastic increment.

    Only the mechanical channel is noisy at this order (optical thermal
    occupation is negligible and vacuum inputs carry no positive-P noise);
    beta and beta+ receive conjugate increments, which preserves conjugacy
    on diagonal-branch trajectories.  The multiplier is state independent,
    so the midpoint evaluation required of the stepper is the increment
    itself.
    """
    if params.gamma_m == 0 or params.n_th_mech == 0:
        return PhaseSpaceState(0j, 0j, 0j, 0j)
    dphi = thermal_field_increment(dt, params.n_th_mech, rng)
    amp = math.sqrt(2.0 * params.gamma_m)
    return PhaseSpaceState(0j, 0j, amp * dphi, amp * dphi.conjugate())


def step_rk4(state: PhaseSpaceState, t: float, dt: float, ctx: DriveContext,
             rng: np.random.Generator) -> PhaseSpaceState:
    """One classical RK4 step plus one additive noise increment."""
    k1 = drift(state, t, ctx)
    k2 = drift(state.shifted(k1, 0.5 * dt), t + 0.5 * dt, ctx)
    k3 = drift(state.shifted(k2, 0.5 * dt), t + 0.5 * dt, ctx)
    k4 = drift(state.shifted(k3, dt), t + dt, ctx)
    incr = k1.shifted(k2, 2.0).shifted(k3, 2.0).shifted(k4).scaled(dt / 6.0)
    new = state.shifted(incr)
    noise = noise_increment(dt, ctx.params, rng)
    return new.shifted(noise)


def run_protocol(sample: WeightedSample, beta_init: complex, params: SystemParams,
                 schedule: ProtocolSchedule, rng: np.random.Generator) -> TrajectoryResult:
    """Integrate one trajectory from -t_write to t_store + t_read.

    The integration is segmented so that every RK4 stage sees the coupling
    value of its own window.  The output-mode amplitude is the trapezoidal
    projection of the outgoing field onto the retrieved temporal mode over
    the read window (the input mode vanishes there, so no subtraction is
    needed).  For long storage at many steps prefer ``run_ensemble``.
    """
    spec = ModeFunctionSpec.for_params(params, schedule.t_store)
    base = dict(alpha_in=sample.alpha_in, alpha_in_plus=sample.alpha_in_plus,
                mode_spec=spec, schedule=schedule, params=params)
    state = PhaseSpaceState(0j, 0j, complex(beta_init), complex(beta_init).conjugate())

    ctx = DriveContext(**base, g_override=params.g_eff)
    t = -schedule.t_write
    for _ in range(schedule.n_write):
        state = step_rk4(state, t, schedule.dt, ctx, rng)
        t += schedule.dt

    ctx = DriveContext(**base, g_override=0.0)
    t = 0.0
    for _ in range(schedule.n_store):
        state = step_rk4(state, t, schedule.dt, ctx, rng)
        t += schedule.dt

    ctx = DriveContext(**base, g_override=params.g_eff)
    sq = math.sqrt(2.0 * params.gamma_ext)
    t = schedule.t_store
    uo = u_out(t, spec)
    acc = 0.5 * uo * sq * state.alpha
    acc_p = 0.5 * uo.conjugate() * sq * state.alpha_plus
    for k in range(schedule.n_read):
        state = step_rk4(state, t, schedule.dt, ctx, rng)
        t = schedule.t_store + (k + 1) * schedule.dt
        w = 0.5 if k == schedule.n_read - 1 else 1.0
        uo = u_out(t, spec)
        acc += w * uo * sq * state.alpha
        acc_p += w * uo.conjugate() * sq * state.alpha_plus
    return TrajectoryResult(alpha_out=acc * schedule.dt, alpha_out_plus=acc_p * schedule.dt,
                            weight=sample.weight, branch=sample.branch)


@dataclass
class EnsembleResult:
    """Column-oriented trajectory results for estimator consumption.

    gain and noise_var are the protocol channel (``protocol_channel``) that
    ``run_ensemble`` sampled the columns from; None for hand-built columns.
    """

    alpha_out: np.ndarray
    alpha_out_plus: np.ndarray
    weight: np.ndarray
    branch: np.ndarray
    gain: Optional[complex] = None
    noise_var: Optional[float] = None

    def __len__(self) -> int:
        return self.alpha_out.size


def rk4_decay_factor(x: float) -> float:
    """Amplification factor of one RK4 step for y' = lambda y with x = lambda dt."""
    return 1.0 + x + x * x / 2.0 + x ** 3 / 6.0 + x ** 4 / 24.0


@dataclass
class _DriveTables:
    """Window-sampled drive and projection values shared by all trajectories."""

    d_grid: np.ndarray    # sqrt(2 gamma_ext) u_in at write grid times, length n_write+1
    d_mid: np.ndarray     # same at write step midpoints, length n_write
    uo_grid: np.ndarray   # u_out at read grid times, length n_read+1
    trap: np.ndarray      # trapezoid weights including dt, length n_read+1


def _make_tables(params: SystemParams, schedule: ProtocolSchedule,
                 spec: ModeFunctionSpec) -> _DriveTables:
    sq = math.sqrt(2.0 * params.gamma_ext)
    tw = -schedule.t_write + schedule.dt * np.arange(schedule.n_write + 1)
    tr = schedule.t_store + schedule.dt * np.arange(schedule.n_read + 1)
    trap = np.full(schedule.n_read + 1, schedule.dt)
    trap[0] *= 0.5
    trap[-1] *= 0.5
    return _DriveTables(d_grid=sq * u_in(tw, spec),
                        d_mid=sq * u_in(tw[:-1] + 0.5 * schedule.dt, spec),
                        uo_grid=u_out(tr, spec), trap=trap)


def _coupled_span(a, ap, b, bp, params: SystemParams, dt: float, n_steps: int,
                  d_grid, d_mid, a_in, a_in_p, nu: float, rng,
                  uo_grid=None, trap=None, sq: float = 0.0):
    """Advance a trajectory block through a constant-g window.

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

        if nu > 0:
            xy = rng.standard_normal((2, a.size))
            eta = (xy[0] + 1j * xy[1]) / math.sqrt(2.0)
            b = b + nu * eta
            bp = bp + nu * np.conj(eta)

        if uo_grid is not None:
            w = trap[k + 1]
            acc = acc + w * uo_grid[k + 1] * sq * a
            acc_p = acc_p + w * np.conj(uo_grid[k + 1]) * sq * ap

    return a, ap, b, bp, acc, acc_p


def _storage_aggregate(params: SystemParams, dt: float,
                       n_steps: int) -> tuple[float, float, float]:
    """Compound optical and mechanical factors of n_steps uncoupled RK4 steps,
    and the summed variance of the unit mechanical noise kicks they carry."""
    r_o = rk4_decay_factor(-params.gamma_o * dt) ** n_steps
    r_m1 = rk4_decay_factor(-params.gamma_m * dt)
    r_m = r_m1 ** n_steps
    var_sum = float(n_steps) if r_m1 == 1.0 else (1.0 - r_m1 ** (2 * n_steps)) / (1.0 - r_m1 ** 2)
    return r_o, r_m, var_sum


def _free_storage(a, ap, b, bp, params: SystemParams, dt: float, n_steps: int,
                  nu: float, rng):
    """Exact aggregate of n_steps uncoupled RK4-plus-noise storage steps.

    With g = 0 each step multiplies every variable by the scalar RK4 factor
    and adds independent mechanical noise; compounding the factors and
    summing the noise variances reproduces the stepped process exactly in
    distribution, discretisation bias included.
    """
    if n_steps == 0:
        return a, ap, b, bp
    r_o, r_m, var_sum = _storage_aggregate(params, dt, n_steps)
    a = a * r_o
    ap = ap * r_o
    b = b * r_m
    bp = bp * r_m
    if nu > 0:
        sigma = nu * math.sqrt(var_sum)
        xy = rng.standard_normal((2, a.size))
        eta = (xy[0] + 1j * xy[1]) / math.sqrt(2.0)
        b = b + sigma * eta
        bp = bp + sigma * np.conj(eta)
    return a, ap, b, bp


def _run_block(a_in, a_in_p, params, schedule, tables, stream):
    n = a_in.size
    nu = math.sqrt(2.0 * params.gamma_m * params.n_th_mech * schedule.dt) \
        if params.gamma_m > 0 and params.n_th_mech > 0 else 0.0
    beta0 = sample_thermal(params.n_init_mech, n, stream)
    a = np.zeros(n, dtype=np.complex128)
    ap = np.zeros(n, dtype=np.complex128)
    b = beta0.astype(np.complex128)
    bp = np.conj(beta0)
    sq = math.sqrt(2.0 * params.gamma_ext)

    a, ap, b, bp, _, _ = _coupled_span(a, ap, b, bp, params, schedule.dt,
                                       schedule.n_write, tables.d_grid,
                                       tables.d_mid, a_in, a_in_p, nu, stream)
    a, ap, b, bp = _free_storage(a, ap, b, bp, params, schedule.dt,
                                 schedule.n_store, nu, stream)
    _, _, _, _, acc, acc_p = _coupled_span(a, ap, b, bp, params, schedule.dt,
                                           schedule.n_read, None, None,
                                           a_in, a_in_p, nu, stream,
                                           uo_grid=tables.uo_grid,
                                           trap=tables.trap, sq=sq)
    return acc, acc_p


def run_ensemble(samples: list[WeightedSample], params: SystemParams,
                 schedule: ProtocolSchedule, master_seed: int) -> EnsembleResult:
    """Sample every trajectory of a weighted ensemble from the protocol channel,
    phase-corrected.

    With (G, noise_var) from one ``protocol_channel`` evaluation, the
    stepped process gives alpha_out = G alpha_in + N in distribution, RK4
    discretisation included, with N = sqrt(noise_var) (x + iy)/sqrt(2) and
    one standard normal pair (x, y) per trajectory.  The ensemble is
    returned in the frame where the coherent-input gain is real and
    positive: alpha_out = |G| alpha_in + e^{-i arg G} N and alpha_out_plus
    = |G| alpha_in_plus + conj(e^{-i arg G} N).  Formed this way, a real
    input keeps mu_x = (alpha_out + alpha_out_plus)/2 exactly real on every
    row, so the Wigner kernel takes its real path.  The channel travels
    with the result (``gain``, ``noise_var``).  The pairs come in blocks of
    RNG_BLOCK_SIZE trajectories, each from the counter-based stream keyed by
    (master_seed, block index), so a trajectory's noise depends only on the
    seed and its position; the time step changes the scale, not the draw.
    A noiseless channel consumes no randomness.
    """
    n = len(samples)
    a_in = np.array([s.alpha_in for s in samples], dtype=np.complex128)
    a_in_p = np.array([s.alpha_in_plus for s in samples], dtype=np.complex128)
    weight = np.array([s.weight for s in samples])
    branch = np.array([s.branch for s in samples])

    gain, noise_var = protocol_channel(params, schedule)
    if not (cmath.isfinite(gain) and math.isfinite(noise_var)):
        raise FloatingPointError("non-finite protocol channel; check parameters")
    if gain == 0:
        raise ValueError("zero reference gain; cannot fix the output phase")
    noise = np.zeros(n, dtype=np.complex128)
    if noise_var > 0:
        scale = math.sqrt(noise_var / 2.0) * cmath.exp(-1j * cmath.phase(gain))
        for block, lo in enumerate(range(0, n, RNG_BLOCK_SIZE)):
            hi = min(lo + RNG_BLOCK_SIZE, n)
            xy = block_stream(master_seed, block).standard_normal((2, hi - lo))
            noise[lo:hi] = scale * (xy[0] + 1j * xy[1])
    g_abs = abs(gain)
    return EnsembleResult(alpha_out=g_abs * a_in + noise,
                          alpha_out_plus=g_abs * a_in_p + np.conj(noise),
                          weight=weight, branch=branch, gain=gain, noise_var=noise_var)


def _rk4_pair(a: complex, b: complex, params: SystemParams, dt: float,
              d0: complex, dh: complex, d1: complex) -> tuple[complex, complex]:
    """One noiseless RK4 step of (alpha, beta) under unit drive amplitude.

    Scalar twin of the alpha/beta half of ``_coupled_span``, written with
    the same operations in the same order, so that a one-element block of
    the stepped integrator gives the same numbers.
    """
    go, gm, g = params.gamma_o, params.gamma_m, params.g_eff
    half = 0.5 * dt
    k1a = -go * a - 1j * g * b + d0
    k1b = -gm * b - 1j * g * a
    a2 = a + half * k1a
    b2 = b + half * k1b
    k2a = -go * a2 - 1j * g * b2 + dh
    k2b = -gm * b2 - 1j * g * a2
    a3 = a + half * k2a
    b3 = b + half * k2b
    k3a = -go * a3 - 1j * g * b3 + dh
    k3b = -gm * b3 - 1j * g * a3
    a4 = a + dt * k3a
    b4 = b + dt * k3b
    k4a = -go * a4 - 1j * g * b4 + d1
    k4b = -gm * b4 - 1j * g * a4
    sixth = dt / 6.0
    return (a + sixth * (k1a + 2.0 * (k2a + k3a) + k4a),
            b + sixth * (k1b + 2.0 * (k2b + k3b) + k4b))


def _write_pass(params: SystemParams, schedule: ProtocolSchedule,
                tables: _DriveTables) -> tuple[complex, complex]:
    """(alpha, beta) at t = 0 for a unit coherent input, no start and no noise."""
    d_grid, d_mid = tables.d_grid.tolist(), tables.d_mid.tolist()
    a = b = 0j
    for k in range(schedule.n_write):
        a, b = _rk4_pair(a, b, params, schedule.dt, d_grid[k], d_mid[k], d_grid[k + 1])
    return a, b


def reference_gain(params: SystemParams, schedule: ProtocolSchedule) -> complex:
    """Complex coherent-state gain of the full protocol.

    One deterministic pass with unit input amplitude, no thermal start and
    no noise, in scalar complex arithmetic: the RK4 recursion of the write
    window, the storage aggregate and the read window with its trapezoidal
    output projection, over the same drive and projection tables as the
    stepped ensemble.  The modulus is the write-store-read amplitude
    efficiency and the argument fixes the overall phase convention of the
    retrieved mode.
    """
    spec = ModeFunctionSpec.for_params(params, schedule.t_store)
    tables = _make_tables(params, schedule, spec)
    a, b = _write_pass(params, schedule, tables)
    if schedule.n_store > 0:
        r_o, r_m, _ = _storage_aggregate(params, schedule.dt, schedule.n_store)
        a, b = a * r_o, b * r_m
    sq = math.sqrt(2.0 * params.gamma_ext)
    uo_grid, trap = tables.uo_grid.tolist(), tables.trap.tolist()
    acc = trap[0] * uo_grid[0] * sq * a
    for k in range(schedule.n_read):
        a, b = _rk4_pair(a, b, params, schedule.dt, 0j, 0j, 0j)
        acc = acc + trap[k + 1] * uo_grid[k + 1] * sq * a
    return acc


def protocol_channel(params: SystemParams,
                     schedule: ProtocolSchedule) -> tuple[complex, float]:
    """The ensemble path as a linear Gaussian channel: alpha_out = gain alpha_in + N.

    gain is ``reference_gain``.  noise_var = E|N|^2 is the variance of the
    additive noise that the mechanical kicks and the thermal start put on
    alpha_out, computed without sampling: one backward (adjoint) pass over
    the 2x2 RK4 step matrix of (alpha, beta) carries the output projection
    of the read window back through the storage aggregate and the write
    window, and every kick contributes the squared beta weight it lands
    on.  The RK4 discretisation enters exactly as in the stepped process.
    Without bath noise and initial occupation noise_var is 0 at once.
    """
    gain = reference_gain(params, schedule)
    nu_sq = 2.0 * params.gamma_m * params.n_th_mech * schedule.dt
    if nu_sq == 0 and params.n_init_mech == 0:
        return gain, 0.0
    spec = ModeFunctionSpec.for_params(params, schedule.t_store)
    tables = _make_tables(params, schedule, spec)
    proj = math.sqrt(2.0 * params.gamma_ext) * tables.trap * tables.uo_grid
    h = schedule.dt * np.array([[-params.gamma_o, -1j * params.g_eff],
                                [-1j * params.g_eff, -params.gamma_m]])
    eye = np.eye(2)
    step_t = (eye + h @ (eye + h @ (eye + h @ (eye + h / 4.0) / 3.0) / 2.0)).T

    # weights of (alpha, beta) in alpha_out, walked back from the last read point
    lam = np.array([proj[-1], 0.0j])
    kicks = 0.0  # sum of squared beta weights over the unit kicks
    for k in range(schedule.n_read - 1, -1, -1):
        kicks += abs(lam[1]) ** 2  # the kick of read step k lands on point k+1
        lam = step_t @ lam + np.array([proj[k], 0.0])
    if schedule.n_store > 0:
        r_o, r_m, var_sum = _storage_aggregate(params, schedule.dt, schedule.n_store)
        kicks += abs(lam[1]) ** 2 * var_sum
        lam = lam * np.array([r_o, r_m])
    for _ in range(schedule.n_write):
        kicks += abs(lam[1]) ** 2
        lam = step_t @ lam
    return gain, float(nu_sq * kicks + params.n_init_mech * abs(lam[1]) ** 2)


def write_gain(params: SystemParams, schedule: ProtocolSchedule) -> complex:
    """Mechanical amplitude stored at t = 0 for a unit coherent input.

    Single-pass counterpart of reference_gain: only the write window is
    integrated, so the modulus measures the in-coupling efficiency alone.
    """
    spec = ModeFunctionSpec.for_params(params, schedule.t_store)
    return _write_pass(params, schedule, _make_tables(params, schedule, spec))[1]
