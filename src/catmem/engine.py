"""The write/store/read protocol as a Gaussian channel, and the ensemble
sampled from it.

The positive-P equations of motion are linear Langevin equations for the
doubled phase-space variables (alpha, alpha+, beta, beta+), discretised
with classical fourth-order Runge-Kutta steps, each followed by one
additive mechanical noise increment.  Since the recursion is linear with
additive Gaussian noise, the retrieved amplitude of every trajectory is
exactly alpha_out = G alpha_in + N with one circular Gaussian N.  One RK4
step is one affine map of (alpha, beta) and the drive (``_step``), and
``protocol_channel`` walks the weights of the output projection back
through it once to get both the gain G and the variance E|N|^2, without
sampling and with the RK4 discretisation included.  ``run_ensemble``
samples the ensemble from a given channel in O(n), one normal pair per
trajectory, in the frame where the gain is real and positive.  No
trajectory is stepped here; the test suite keeps the one stepped
integrator, the reference that the channel and the sampled ensemble are
checked against.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .model import EnsembleResult, ProtocolSchedule, SystemParams
from .modes import ModeFunctionSpec, u_in, u_out
from .sampling import RNG_BLOCK_SIZE, block_stream

__all__ = [
    "ENGINE_VERSION",
    "run_ensemble",
    "protocol_channel",
    "write_gain",
]

# Names the random numbers a configuration draws; part of every config
# fingerprint, so it changes whenever the same configuration would give
# different results.
ENGINE_VERSION = "gaussian-channel-10"


def _rk4_increment(x: float) -> float:
    """Increment of one RK4 step for y' = lambda y from y = 1, with x = lambda dt:
    the step's amplification factor minus 1."""
    return x + x * x / 2.0 + x ** 3 / 6.0 + x ** 4 / 24.0


def _storage_aggregate(params: SystemParams, dt: float,
                       n_steps: int) -> tuple[float, float, float]:
    """Compound optical and mechanical factors of n_steps uncoupled RK4 steps,
    and the summed variance of the unit mechanical noise kicks they carry.

    The powers go through log1p of the step increment, so a factor within an
    ulp of 1 raised to a large power keeps its accuracy.
    """
    log_o = math.log1p(_rk4_increment(-params.gamma_o * dt))
    log_m = math.log1p(_rk4_increment(-params.gamma_m * dt))
    var_sum = float(n_steps) if log_m == 0.0 else \
        math.expm1(2.0 * n_steps * log_m) / math.expm1(2.0 * log_m)
    return math.exp(n_steps * log_o), math.exp(n_steps * log_m), var_sum


def _step(params: SystemParams, dt: float) -> tuple[list, list, list, list]:
    """One RK4 step of (alpha, beta) as an affine map of the state and the drive.

    With x = (alpha, beta), x' = A x + d(t) e and e = (1, 0), one step from
    x at t is x' = M x + m0 d(t) + mh d(t + dt/2) + m1 d(t + dt), where
    H = dt A, M = I + H(I + H/2(I + H/3(I + H/4))), m0 = dt/6 (I + H + H^2/2
    + H^3/4) e, mh = dt/6 (4I + 2H + H^2/2) e and m1 = dt/6 e.  Returned as
    nested lists of Python complex scalars: M row by row, then m0, mh, m1.
    """
    h = dt * np.array([[-params.gamma_o, -1j * params.g_eff],
                       [-1j * params.g_eff, -params.gamma_m]])
    eye = np.eye(2)
    h2 = h @ h
    m = eye + h @ (eye + h @ (eye + h @ (eye + h / 4.0) / 3.0) / 2.0)
    m0 = dt / 6.0 * (eye + h + h2 / 2.0 + h2 @ h / 4.0)[:, 0]
    mh = dt / 6.0 * (4.0 * eye + 2.0 * h + h2 / 2.0)[:, 0]
    return m.tolist(), m0.tolist(), mh.tolist(), [dt / 6.0 + 0j, 0j]


def run_ensemble(inputs: EnsembleResult, gain: complex, noise_var: float,
                 master_seed: int) -> EnsembleResult:
    """Sample every trajectory of a weighted input ensemble from the protocol
    channel (gain, noise_var), phase-corrected.

    inputs is the ensemble before evolution (``sampling.sample_cat``).  The
    channel is the ``protocol_channel`` pair of the run's parameters and
    schedule; the caller evaluates it, so that runs on one channel share
    one evaluation (``experiments.run_sweep`` does, for the duration of one
    sweep).  The stepped process gives alpha_out = G alpha_in + N in
    distribution, RK4 discretisation included, with N = sqrt(noise_var) (x
    + iy)/sqrt(2) and one standard normal pair (x, y) per trajectory.  The
    ensemble is returned in the frame where the coherent-input gain is real
    and positive: alpha_out = |G| alpha_in + N' and its plus partner |G|
    alpha_in_plus + conj N', with N' = e^{-i arg G} N.  Its kernel centres
    follow without forming either amplitude: c = |G| c_in + Re N', a = |G|
    a_in + Im N' and b = |G| b_in, so mu_x = c stays real and each branch
    keeps one exact rate.  The weight and branch columns are the input's;
    the channel stays with the caller.  The pairs come in blocks of
    RNG_BLOCK_SIZE trajectories, each from the counter-based stream keyed
    by (master_seed, block index), so a trajectory's noise depends only on
    the seed and its position; the time step changes the scale, not the
    draw.  A noiseless channel consumes no randomness; a negative
    noise_var is no channel and raises ValueError.
    """
    n = len(inputs)
    if not (cmath.isfinite(gain) and math.isfinite(noise_var)):
        raise FloatingPointError("non-finite protocol channel; check parameters")
    if gain == 0:
        raise ValueError("zero protocol gain; cannot fix the output phase")
    if noise_var < 0:
        raise ValueError("noise_var must be non-negative")
    g_abs = abs(gain)
    c, a = g_abs * inputs.c, g_abs * inputs.a
    if noise_var > 0:
        noise = np.empty(n, dtype=np.complex128)
        scale = math.sqrt(noise_var / 2.0) * cmath.exp(-1j * cmath.phase(gain))
        for block, lo in enumerate(range(0, n, RNG_BLOCK_SIZE)):
            hi = min(lo + RNG_BLOCK_SIZE, n)
            xy = block_stream(master_seed, block).standard_normal((2, hi - lo))
            noise[lo:hi] = scale * (xy[0] + 1j * xy[1])
        c += noise.real
        a += noise.imag
    return EnsembleResult(c=c, a=a, b=g_abs * inputs.b, weight=inputs.weight,
                          branch=inputs.branch)


def _write_walk(params: SystemParams, schedule: ProtocolSchedule,
                spec: ModeFunctionSpec, step: tuple, la: complex,
                lb: complex) -> tuple[complex, float, complex]:
    """Walk the weights (la, lb) of (alpha, beta) at t = 0 back through the
    write window's RK4 steps (``step``, from ``_step``), for a unit coherent
    input and no start.

    Returns the gain: the weighted sum of the state the drive leaves at
    t = 0, one term lambda_{k+1} . c_k per step, with c_k the step's drive
    part m0 d_k + mh d_{k+1/2} + m1 d_{k+1} and d = sqrt(2 gamma_ext) u_in.
    Also returns the sum of squared beta weights over the window's unit
    kicks, and the beta weight of the start at t = -t_write.
    """
    dt = schedule.dt
    m, m0, mh, m1 = step
    (m00, m01), (m10, m11) = m
    tw = -schedule.t_write + dt * np.arange(schedule.n_write + 1)
    sq = math.sqrt(2.0 * params.gamma_ext)
    d_grid, d_mid = sq * u_in(tw, spec), sq * u_in(tw[:-1] + 0.5 * dt, spec)
    drive = (np.outer(d_grid[:-1], m0) + np.outer(d_mid, mh)
             + np.outer(d_grid[1:], m1)).tolist()
    gain, kicks = 0j, 0.0
    # |lb|^2 as re^2 + im^2: abs(lb) ** 2 raises OverflowError once |lb|
    # passes 1e154, and an unstable step must end in the non-finite check
    for ca, cb in reversed(drive):
        kicks += lb.real * lb.real + lb.imag * lb.imag  # the step's kick lands on its end
        gain += la * ca + lb * cb
        la, lb = m00 * la + m10 * lb, m01 * la + m11 * lb
    return gain, kicks, lb


def protocol_channel(params: SystemParams,
                     schedule: ProtocolSchedule) -> tuple[complex, float]:
    """The ensemble path as a linear Gaussian channel: alpha_out = gain alpha_in + N.

    One backward (adjoint) pass: the weights of (alpha, beta) in alpha_out
    start at the trapezoidal output projection of the last read point and
    are walked back through the RK4 steps of the read window, the storage
    aggregate and the write window.  Each write step adds its drive part to
    the gain, the complex coherent-state gain of the whole protocol, whose
    modulus is the write-store-read amplitude efficiency and whose argument
    fixes the phase convention of the retrieved mode.  Each mechanical kick
    adds the squared beta weight it lands on to noise_var = E|N|^2, and the
    thermal start the squared beta weight at t = -t_write; without bath
    noise and initial occupation noise_var comes out exactly 0.  The RK4
    discretisation enters exactly as in the stepped process.
    """
    dt = schedule.dt
    spec = ModeFunctionSpec.for_params(params, schedule.t_store)
    step = _step(params, dt)
    (m00, m01), (m10, m11) = step[0]
    tr = schedule.t_store + dt * np.arange(schedule.n_read + 1)
    trap = np.full(schedule.n_read + 1, dt)
    trap[0] *= 0.5
    trap[-1] *= 0.5
    proj = (math.sqrt(2.0 * params.gamma_ext) * trap * u_out(tr, spec)).tolist()

    la, lb = proj[-1], 0j
    kicks = 0.0  # sum of squared beta weights over the unit kicks
    for w in reversed(proj[:-1]):
        kicks += lb.real * lb.real + lb.imag * lb.imag  # the step's kick lands on its end
        la, lb = m00 * la + m10 * lb + w, m01 * la + m11 * lb
    if schedule.n_store > 0:
        r_o, r_m, var_sum = _storage_aggregate(params, dt, schedule.n_store)
        kicks += (lb.real * lb.real + lb.imag * lb.imag) * var_sum
        la, lb = la * r_o, lb * r_m
    gain, write_kicks, lb = _write_walk(params, schedule, spec, step, la, lb)
    nu_sq = 2.0 * params.gamma_m * params.n_th_mech * dt
    start = params.n_init_mech * (lb.real * lb.real + lb.imag * lb.imag)
    return gain, float(nu_sq * (kicks + write_kicks) + start)


def write_gain(params: SystemParams, schedule: ProtocolSchedule) -> complex:
    """Mechanical amplitude stored at t = 0 for a unit coherent input.

    The write-window walk of ``protocol_channel`` started from the weights
    (0, 1), so the modulus measures the in-coupling efficiency alone.
    """
    spec = ModeFunctionSpec.for_params(params, schedule.t_store)
    return _write_walk(params, schedule, spec, _step(params, schedule.dt), 0j, 1.0 + 0j)[0]
