"""Temporal mode functions of the memory and their consistency checks.

The input pulse that the protocol absorbs is an exponentially rising
sinh-modulated mode supported on t < 0; the retrieved pulse is its
time-reversed conjugate shifted past the storage window.  Both are unit
normalised in L2.  The simple rising-exponential approximation and the
time-dependent source-cavity coupler that would emit it are kept for
validation of the pulse-shaping picture.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .model import DerivedRates, SystemParams, derive_rates

__all__ = [
    "ModeFunctionSpec",
    "u_in",
    "u_out",
    "u_exp_approx",
    "kappa_source",
    "coupler_ode_residual",
    "transfer_amplitude",
    "default_write_duration",
]

# m below this is treated as the degenerate critical-coupling point where the
# sinh mode shape loses meaning
_M_FLOOR = 1e-12


class ModeFunctionSpec:
    """Frozen description of the input/output temporal modes.

    Carries the derived rates and the storage offset for the output mode,
    plus the cached normalisation prefactor
    -2i sqrt((gamma_plus^2 - m^2) gamma_plus) / m.
    """

    def __init__(self, derived: DerivedRates, t_store: float):
        if abs(derived.m_rate) < _M_FLOOR:
            raise ValueError("m_rate vanishes: critically damped, mode shape undefined")
        if t_store < 0:
            raise ValueError("t_store must be non-negative")
        self.derived = derived
        self.t_store = float(t_store)
        gp = derived.gamma_plus
        m = derived.m_rate
        self.prefactor = -2j * cmath.sqrt((gp * gp - m * m) * gp) / m

    @classmethod
    def for_params(cls, params: SystemParams, t_store: float) -> "ModeFunctionSpec":
        return cls(derive_rates(params), t_store)


def u_in(t, spec: ModeFunctionSpec):
    """Input temporal mode, supported on t < 0 and L2-normalised to one.

    Works on scalars or arrays; complex-valued (purely imaginary when m is
    imaginary, where sinh(mt)/m reduces to sin(|m|t)/|m|).
    """
    t_arr = np.asarray(t, dtype=float)
    gp = spec.derived.gamma_plus
    m = spec.derived.m_rate
    inside = t_arr < 0
    ts = np.where(inside, t_arr, 0.0)
    # sinh(m t) e^{gp t} written as a difference of decaying exponentials;
    # both exponents have positive real part below gp, so nothing overflows
    # at large negative t where the factored form would
    vals = spec.prefactor * 0.5 * (np.exp((gp + m) * ts) - np.exp((gp - m) * ts))
    vals = np.where(inside, vals, 0.0 + 0.0j)
    if np.ndim(t) == 0:
        return complex(vals)
    return vals


def u_out(t, spec: ModeFunctionSpec):
    """Retrieved temporal mode: conj(u_in(t_store - t)), supported on t > t_store."""
    t_arr = np.asarray(t, dtype=float)
    vals = np.conj(u_in(spec.t_store - t_arr, spec))
    if np.ndim(t) == 0:
        return complex(vals)
    return vals


def u_exp_approx(t, gamma_bar: float):
    """Rising exponential i sqrt(2 gamma_bar) e^{gamma_bar t} for t < 0.

    Valid for a real, positive slow rate; used only when comparing against
    the simple pulse-shaping picture.
    """
    if not (gamma_bar > 0):
        raise ValueError("gamma_bar must be a positive real rate")
    t_arr = np.asarray(t, dtype=float)
    inside = t_arr < 0
    ts = np.where(inside, t_arr, 0.0)
    vals = 1j * math.sqrt(2.0 * gamma_bar) * np.exp(gamma_bar * ts)
    vals = np.where(inside, vals, 0.0 + 0.0j)
    if np.ndim(t) == 0:
        return complex(vals)
    return vals


def kappa_source(t, gamma_bar: float):
    """Source-cavity coupling that emits the rising exponential, t < 0 only.

    Diverges as t -> 0-; callers must stay a finite distance below zero.
    """
    if not (gamma_bar > 0):
        raise ValueError("gamma_bar must be a positive real rate")
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr >= 0):
        raise ValueError("kappa_source is defined for t < 0 only")
    vals = gamma_bar / (np.exp(-2.0 * gamma_bar * t_arr) - 1.0)
    if np.ndim(t) == 0:
        return float(vals)
    return vals


def coupler_ode_residual(kappa, dkappa_dt, u0, du0_dt):
    """Residual of dkappa/dt = 2 kappa (du0/dt)/u0 + 2 kappa^2.

    Zero (to rounding) when the coupler actually emits the mode u0.
    """
    u0_arr = np.asarray(u0)
    if np.any(np.abs(u0_arr) == 0):
        raise ValueError("mode function vanishes; residual undefined")
    res = np.asarray(dkappa_dt) - 2.0 * np.asarray(kappa) * (np.asarray(du0_dt) / u0_arr) \
        - 2.0 * np.asarray(kappa) ** 2
    res = np.real_if_close(res, tol=1000)
    if np.ndim(kappa) == 0:
        return float(np.real(res))
    return np.real(res)


def transfer_amplitude(params: SystemParams) -> float:
    """Peak write-stage transfer |b(0)/alpha_in| for the matched input mode.

    Equals one for a lossless, undamped mechanical mode and degrades with
    internal loss and mechanical damping.
    """
    d = derive_rates(params)
    if abs(d.m_rate) < _M_FLOOR:
        raise ValueError("m_rate vanishes; transfer amplitude undefined")
    gp = d.gamma_plus
    m = d.m_rate
    denom = 2.0 * cmath.sqrt((gp * gp - m * m) * gp)
    value = abs(cmath.sqrt(2.0 * params.gamma_ext) * params.g_eff / denom)
    return float(value)


def default_write_duration(params: SystemParams) -> float:
    """Write/read window long enough for the mode tails: 10 / Re(gamma_bar)."""
    d = derive_rates(params)
    rate = d.gamma_bar.real
    if rate <= 0:
        raise ValueError("retrieval rate must have positive real part")
    return 10.0 / rate
