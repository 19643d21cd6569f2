"""The write/store/read protocol as a Gaussian channel, and the ensemble
sampled from it.

The positive-P equations of motion are linear Langevin equations for the
doubled phase-space variables (alpha, alpha+, beta, beta+), discretised
with classical fourth-order Runge-Kutta steps, each followed by one
additive mechanical noise increment.  Since the recursion is linear with
additive Gaussian noise, the retrieved amplitude of every trajectory is
exactly alpha_out = G alpha_in + N with one circular Gaussian N.
``protocol_channel`` computes the gain G and the variance E|N|^2 without
sampling (the RK4 discretisation included), and ``run_ensemble`` samples
the ensemble from that channel in O(n), one normal pair per trajectory, in
the frame where the gain is real and positive.  ``reference_gain`` runs
the deterministic recursion in scalar arithmetic.  No trajectory is
stepped here; the test suite keeps the one stepped integrator, the
reference that the channel and the sampled ensemble are checked against.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .model import EnsembleResult, ProtocolSchedule, SystemParams
from .modes import ModeFunctionSpec, u_in, u_out
from .sampling import RNG_BLOCK_SIZE, block_stream

__all__ = [
    "ENGINE_VERSION",
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


def _storage_aggregate(params: SystemParams, dt: float,
                       n_steps: int) -> tuple[float, float, float]:
    """Compound optical and mechanical factors of n_steps uncoupled RK4 steps,
    and the summed variance of the unit mechanical noise kicks they carry."""
    r_o = rk4_decay_factor(-params.gamma_o * dt) ** n_steps
    r_m1 = rk4_decay_factor(-params.gamma_m * dt)
    r_m = r_m1 ** n_steps
    var_sum = float(n_steps) if r_m1 == 1.0 else (1.0 - r_m1 ** (2 * n_steps)) / (1.0 - r_m1 ** 2)
    return r_o, r_m, var_sum


def run_ensemble(inputs: EnsembleResult, params: SystemParams,
                 schedule: ProtocolSchedule, master_seed: int) -> EnsembleResult:
    """Sample every trajectory of a weighted input ensemble from the protocol
    channel, phase-corrected.

    inputs is the ensemble before evolution (``sampling.sample_cat``), so
    its alpha_out and alpha_out_plus columns hold alpha_in and
    alpha_in_plus.  With (G, noise_var) from one ``protocol_channel``
    evaluation, the stepped process gives alpha_out = G alpha_in + N in
    distribution, RK4 discretisation included, with N = sqrt(noise_var)
    (x + iy)/sqrt(2) and one standard normal pair (x, y) per trajectory.  The ensemble is returned in the frame where the
    coherent-input gain is real and positive: alpha_out = |G| alpha_in +
    e^{-i arg G} N and alpha_out_plus = |G| alpha_in_plus + conj(e^{-i arg
    G} N).  Formed this way, a real input keeps mu_x = (alpha_out +
    alpha_out_plus)/2 exactly real on every row, so the Wigner kernel takes
    its real path.  The weight and branch columns are the input's, and the
    channel travels with the result (``gain``, ``noise_var``).  The pairs
    come in blocks of RNG_BLOCK_SIZE trajectories, each from the
    counter-based stream keyed by (master_seed, block index), so a
    trajectory's noise depends only on the seed and its position; the time
    step changes the scale, not the draw.  A noiseless channel consumes no
    randomness.
    """
    n = len(inputs)
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
    return EnsembleResult(alpha_out=g_abs * inputs.alpha_out + noise,
                          alpha_out_plus=g_abs * inputs.alpha_out_plus + np.conj(noise),
                          weight=inputs.weight, branch=inputs.branch,
                          gain=gain, noise_var=noise_var)


def _rk4_pair(a: complex, b: complex, params: SystemParams, dt: float,
              d0: complex, dh: complex, d1: complex) -> tuple[complex, complex]:
    """One noiseless RK4 step of (alpha, beta) under unit drive amplitude.

    The stepped reference of the test suite writes the same operations in
    the same order, so a one-trajectory noiseless block of it gives the
    same numbers.
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
    output projection, over the drive and projection tables of
    ``_make_tables``.  The modulus is the write-store-read amplitude
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
