"""Closed-form references: the even cat sent through a Gaussian channel.

Everything here is analytic; the simulator is validated against these
expressions.  The single-mode damping channel (rate gamma, reservoir
occupation n_bar) models the storage stage of the memory, so gamma is
usually bound to the mechanical linewidth when comparing with protocol
runs.  ``channel_wigner`` takes real coordinates x + i y and a general
(gain, added noise) pair, such as ``engine.protocol_channel`` gives for the
whole write/store/read protocol; ``q_channel`` and ``negativity_band`` say
where, and whether, such a channel leaves the Wigner function room to be
negative.  References that only the tests read are in tests/references.py.
"""

from __future__ import annotations

import math

import numpy as np

from .model import GridAxis, negative_columns

__all__ = [
    "channel_wigner",
    "channel_negativity",
    "damping_channel",
    "cat_variance",
    "decohered_density",
    "q_parameter",
    "q_channel",
    "negativity_band",
    "t_positive",
    "t_p_bound",
]


def _check_damping(t: float, n_bar: float, gamma: float) -> None:
    """ValueError on a negative t, n_bar or gamma: no damping has one."""
    if t < 0:
        raise ValueError("t must be non-negative")
    if n_bar < 0:
        raise ValueError("n_bar must be non-negative")
    if gamma < 0:
        raise ValueError("gamma must be non-negative")


def damping_channel(t: float, n_bar: float, gamma: float) -> tuple[float, float]:
    """(gain, added noise) of damping at rate gamma into a bath of n_bar for
    t; gamma = 0 is the identity channel.  A negative t, n_bar or gamma is
    no damping and raises ValueError."""
    _check_damping(t, n_bar, gamma)
    decay = math.exp(-gamma * t)
    return decay, n_bar * (1.0 - decay * decay)


def _channel_factors(x, y, alpha0: float, gain: float, noise_var: float):
    """The separable factors of ``channel_wigner``: (hills_x, fringe_x,
    gauss_y, fringe_y, scale), with W = (hills_x gauss_y + fringe_x fringe_y)
    scale.

    With b = gain * alpha0 and B = 1 + 2 noise_var the hills are
    (e^{-2(x-b)^2/B} + e^{-2(x+b)^2/B}) e^{-2y^2/B} and the interference
    terms overlap * e^{-2(x^2+y^2-b^2)/B} 2cos(4by/B).  The overlap
    e^{-2 alpha0^2} is folded into the x exponent, which stays <= 0 for
    gain <= 1, so nothing overflows up to ``experiments.ALPHA0_MAX``.
    """
    if noise_var < 0:
        raise ValueError("noise_var must be non-negative")
    a0 = float(alpha0)
    broad = 1.0 + 2.0 * noise_var
    ab = a0 * gain
    norm = 2.0 * (1.0 + math.exp(-2.0 * a0 * a0))
    hills_x = np.exp(-2.0 * (x - ab) ** 2 / broad) + np.exp(-2.0 * (x + ab) ** 2 / broad)
    fringe_x = np.exp(-2.0 * (x * x - ab * ab) / broad - 2.0 * a0 * a0)
    gauss_y = np.exp(-2.0 * y * y / broad)
    fringe_y = 2.0 * gauss_y * np.cos(4.0 * ab * y / broad)
    return hills_x, fringe_x, gauss_y, fringe_y, 2.0 / (math.pi * norm * broad)


def channel_wigner(x, y, alpha0: float, gain: float, noise_var: float):
    """Wigner function at alpha = x + i y, for real x and y that broadcast,
    of the even cat sent through a phase-insensitive channel.

    The channel maps alpha to gain * alpha + N with circular Gaussian noise
    of E|N|^2 = noise_var (the ``engine.protocol_channel`` pair, gain taken
    real after phase correction).  The hills sit at +-gain*alpha0, every
    term is broadened by 1 + 2 noise_var, and the interference terms keep
    the input overlap e^{-2 alpha0^2}, so the coherence coefficient is
    exp(-2 alpha0^2 (1 - gain^2)).
    """
    hills_x, fringe_x, gauss_y, fringe_y, scale = _channel_factors(
        x, y, alpha0, gain, noise_var)
    return (hills_x * gauss_y + fringe_x * fringe_y) * scale


def channel_negativity(ax_x: GridAxis, ax_y: GridAxis, alpha0: float, gain: float,
                       noise_var: float) -> float:
    """Negative volume of ``channel_wigner`` on the (Re alpha, Im alpha)
    axes: the trapezoidal quadrature of max(-W, 0), bit for bit that of
    ``signatures.wigner_negativity`` of ``channel_wigner`` tabulated on the
    whole grid.

    Since |fringe_y| <= 2 gauss_y, W >= gauss_y (hills_x - 2 fringe_x) scale,
    so on every x column with hills_x >= 4 fringe_x W is positive and the
    column adds exactly 0.  W is tabulated on the other columns only, the
    band where it can be negative, and their y integrals
    (``model.negative_columns``, which give each column the bits it has in
    the whole field) are scattered into the full column vector before the x
    integral.
    """
    hills_x, fringe_x, gauss_y, fringe_y, scale = _channel_factors(
        ax_x.points(), ax_y.points(), alpha0, gain, noise_var)
    band = np.flatnonzero(hills_x < 4.0 * fringe_x)
    vals = (hills_x[band, None] * gauss_y[None, :]
            + fringe_x[band, None] * fringe_y[None, :]) * scale
    columns = np.zeros(hills_x.size)
    columns[band] = negative_columns(vals, ax_y)
    return float(ax_x.integrate(columns))


def cat_variance(alpha0: float) -> float:
    """p-quadrature variance of the even cat, the same state for +-alpha0;
    below 1/2 for every alpha0 != 0."""
    a = float(alpha0)
    q = math.exp(-2.0 * a * a)
    return 0.5 - 2.0 * a * a * q / (1.0 + q)


def decohered_density(t: float, alpha0: float, gamma: float) -> tuple[float, float]:
    """Zero-temperature damped cat: (shrunken amplitude, coherence coefficient).

    The off-diagonal coefficient decays as exp(-2|alpha0|^2 (1 - e^{-2 gamma t}))
    and saturates at the cat overlap rather than vanishing.  The gain is
    ``damping_channel``'s, so a negative t or gamma raises ValueError.
    """
    a = float(alpha0)
    decay = damping_channel(t, 0.0, gamma)[0]
    coefficient = math.exp(-2.0 * a * a * (1.0 - decay * decay))
    return a * decay, coefficient


def q_parameter(t: float, n_bar: float, gamma: float) -> float:
    """Gaussian-smoothing margin 1/2 - (1+n_bar)(1-e^{-2 gamma t}).

    Positive while the evolved Wigner function can still be negative; its
    root is the negativity-lifetime bound.  A negative t, n_bar or gamma
    raises ValueError, as in ``damping_channel``.
    """
    _check_damping(t, n_bar, gamma)
    return 0.5 - (1.0 + n_bar) * (1.0 - math.exp(-2.0 * gamma * t))


def q_channel(gain: complex, noise_var: float) -> float:
    """Gaussian-smoothing margin |gain|^2 - 1/2 - noise_var of a
    phase-insensitive channel.

    In Wigner units the channel adds noise noise_var + (1 - |gain|^2)/2;
    once that reaches |gain|^2/2 the output Wigner function is a Gaussian
    smoothing of the scaled input's Q function, so the Wigner function of
    any input stays non-negative exactly while this margin is <= 0.  For
    the damping channel it is ``q_parameter``.  A negative noise_var is no
    channel and raises ValueError.
    """
    if noise_var < 0:
        raise ValueError("noise_var must be non-negative")
    return abs(gain) ** 2 - 0.5 - noise_var


def _negativity_edge(alpha0: float, gain: complex, noise_var: float) -> float:
    """x* = (B/4b) arccosh(exp(4b^2/B - 2 alpha0^2)) with b = |gain| alpha0
    and B = 1 + 2 noise_var, or 0 when ``q_channel`` <= 0.

    W >= gauss_y (hills_x - 2 fringe_x) scale in ``_channel_factors``, and
    that bound is >= 0 exactly when cosh(4bx/B) >= exp(4b^2/B - 2 alpha0^2),
    so ``channel_wigner`` is non-negative on every column with |x| >= x*.
    The exponent is a = 4 alpha0^2 q_channel / B, and arccosh(e^a) is taken
    as a + log(1 + sqrt(1 - e^{-2a})), finite up to ``experiments.ALPHA0_MAX``.
    """
    q = q_channel(gain, noise_var)
    if q <= 0.0:
        return 0.0
    a0 = abs(float(alpha0))
    broad = 1.0 + 2.0 * noise_var
    a = 4.0 * a0 * a0 * q / broad
    return broad / (4.0 * abs(gain) * a0) * (a + math.log1p(math.sqrt(-math.expm1(-2.0 * a))))


def negativity_band(alpha0: float, gain: complex, noise_var: float) -> float:
    """Half-width of the Re alpha band that holds the negative values of a
    Wigner estimate of the even cat sent through the channel (gain,
    noise_var): x* + sqrt(B) while ``q_channel`` > 0, with x* from
    ``_negativity_edge`` and B = 1 + 2 noise_var; inf once it is <= 0.

    The margin sqrt(B) is two widths sqrt(B)/2 of the channel's Wigner
    kernel, the reach of the sampling noise past x*; it is a fixed rule of
    the channel, not a setting.  Past the bound the channel's W has no
    negative region at all, and an estimate's negative volume is sampling
    noise in the low tails of the field, which reach every column of a
    grid, so the band is the whole axis.
    """
    if q_channel(gain, noise_var) <= 0.0:
        return math.inf
    return _negativity_edge(alpha0, gain, noise_var) + math.sqrt(1.0 + 2.0 * noise_var)


def t_positive(n_bar: float, gamma: float) -> float:
    """Upper bound on the Wigner-negativity lifetime; independent of cat size."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if n_bar < 0:
        raise ValueError("n_bar must be non-negative")
    return math.log((1.0 + n_bar) / (0.5 + n_bar)) / (2.0 * gamma)


def t_p_bound(n_bar: float, gamma: float) -> float:
    """P-function positivity time; infinite at zero temperature."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if n_bar < 0:
        raise ValueError("n_bar must be non-negative")
    if n_bar == 0:
        return math.inf
    return math.log(1.0 / n_bar + 1.0) / (2.0 * gamma)

