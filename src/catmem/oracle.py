"""Closed-form references: ideal cat signatures and damped-cat evolution.

Everything here is analytic; the simulator is validated against these
expressions.  The single-mode damping channel (rate gamma, reservoir
occupation n_bar) models the storage stage of the memory, so gamma is
usually bound to the mechanical linewidth when comparing with protocol
runs.  ``channel_wigner`` takes a general (gain, added noise) pair, such as
``engine.protocol_channel`` gives for the whole write/store/read protocol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import GridAxis, GridField

__all__ = [
    "DecoherenceParams",
    "ideal_P_x",
    "ideal_P_p",
    "evolved_wigner",
    "channel_wigner",
    "channel_wigner_field",
    "channel_negativity",
    "damping_channel",
    "cat_variance",
    "decohered_density",
    "q_parameter",
    "t_positive",
    "t_p_bound",
    "evolve_characteristic",
    "cat_char_normal",
]


@dataclass(frozen=True)
class DecoherenceParams:
    """Single-mode damping channel: decay rate, bath occupation, elapsed time."""

    gamma: float
    n_bar: float
    t: float = 0.0

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.n_bar < 0:
            raise ValueError("n_bar must be non-negative")
        if self.t < 0:
            raise ValueError("t must be non-negative")


def _cat_norm(alpha0: float) -> float:
    return 2.0 * (1.0 + math.exp(-2.0 * alpha0 * alpha0))


def ideal_P_x(x, alpha0: float):
    """x-quadrature distribution of the even cat: two hills, no fringes."""
    x_arr = np.asarray(x, dtype=float)
    a = float(alpha0)
    norm = _cat_norm(a)
    s = math.sqrt(2.0) * a
    vals = (np.exp(-((x_arr - s) ** 2)) + np.exp(-((x_arr + s) ** 2))
            + 2.0 * np.exp(-(x_arr ** 2) - 2.0 * a * a)) / (math.sqrt(math.pi) * norm)
    if np.ndim(x) == 0:
        return float(vals)
    return vals


def ideal_P_p(p, alpha0: float):
    """p-quadrature distribution: Gaussian envelope times interference fringes."""
    p_arr = np.asarray(p, dtype=float)
    a = float(alpha0)
    norm = _cat_norm(a)
    vals = 2.0 * np.exp(-(p_arr ** 2)) * (1.0 + np.cos(2.0 * math.sqrt(2.0) * p_arr * a)) \
        / (math.sqrt(math.pi) * norm)
    if np.ndim(p) == 0:
        return float(vals)
    return vals


def damping_channel(t: float, n_bar: float, gamma: float) -> tuple[float, float]:
    """(gain, added noise) of damping at rate gamma into a bath of n_bar for t."""
    if t < 0:
        raise ValueError("t must be non-negative")
    decay = math.exp(-gamma * t)
    return decay, n_bar * (1.0 - decay * decay)


def evolved_wigner(alpha, t: float, alpha0: float, n_bar: float, gamma: float):
    """Wigner function of the cat after damped, possibly thermal, evolution.

    The hills shrink toward the origin at rate gamma while the interference
    coefficient collapses much faster; a thermal reservoir additionally
    broadens every term by the same factor.  Reduces to the ideal cat at
    t = 0.  This is ``channel_wigner`` with gain e^{-gamma t} and added
    noise n_bar (1 - e^{-2 gamma t}).
    """
    return channel_wigner(alpha, alpha0, *damping_channel(t, n_bar, gamma))


def channel_wigner(alpha, alpha0: float, gain: float, noise_var: float):
    """Wigner function of the even cat sent through a phase-insensitive channel.

    The channel maps alpha to gain * alpha + N with circular Gaussian noise
    of E|N|^2 = noise_var (the ``engine.protocol_channel`` pair, gain taken
    real after phase correction).  The hills sit at +-gain*alpha0, every
    term is broadened by 1 + 2 noise_var, and the interference terms keep
    the input overlap e^{-2 alpha0^2}, so the coherence coefficient is
    exp(-2 alpha0^2 (1 - gain^2)).
    """
    a_arr = np.asarray(alpha, dtype=complex)
    vals = _channel_wigner_xy(a_arr.real, a_arr.imag, alpha0, gain, noise_var)
    if np.ndim(alpha) == 0:
        return float(vals)
    return vals


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
    hills_x = np.exp(-2.0 * (x - ab) ** 2 / broad) + np.exp(-2.0 * (x + ab) ** 2 / broad)
    fringe_x = np.exp(-2.0 * (x * x - ab * ab) / broad - 2.0 * a0 * a0)
    gauss_y = np.exp(-2.0 * y * y / broad)
    fringe_y = 2.0 * gauss_y * np.cos(4.0 * ab * y / broad)
    return hills_x, fringe_x, gauss_y, fringe_y, 2.0 / (math.pi * _cat_norm(a0) * broad)


def _channel_wigner_xy(x, y, alpha0: float, gain: float, noise_var: float):
    """``channel_wigner`` at alpha = x + i y for real x and y that broadcast;
    a column x and a row y give a grid as outer products."""
    hills_x, fringe_x, gauss_y, fringe_y, scale = _channel_factors(
        x, y, alpha0, gain, noise_var)
    return (hills_x * gauss_y + fringe_x * fringe_y) * scale


def _as_axis(grid, tag: str) -> GridAxis:
    if isinstance(grid, GridAxis):
        return grid
    arr = np.asarray(grid, dtype=float)
    return GridAxis(start=float(arr[0]), stop=float(arr[-1]),
                    step=float(arr[1] - arr[0]), tag=tag)


def channel_wigner_field(grid_x, grid_y, alpha0: float, gain: float,
                         noise_var: float) -> GridField:
    """Tabulate ``channel_wigner`` on a (Re alpha, Im alpha) grid.

    Axes may be GridAxis objects or plain uniform coordinate arrays.
    """
    ax_x = _as_axis(grid_x, "re_alpha")
    ax_y = _as_axis(grid_y, "im_alpha")
    vals = _channel_wigner_xy(ax_x.points()[:, None], ax_y.points()[None, :],
                              alpha0, gain, noise_var)
    return GridField(axes=(ax_x, ax_y), values=vals,
                     meta={"kind": "wigner_oracle", "alpha0": alpha0, "gain": gain,
                           "noise_var": noise_var})


def channel_negativity(grid_x, grid_y, alpha0: float, gain: float,
                       noise_var: float) -> float:
    """Negative volume of ``channel_wigner`` on a (Re alpha, Im alpha) grid:
    the trapezoidal quadrature of max(-W, 0), bit for bit that of
    ``signatures.wigner_negativity(channel_wigner_field(...))``.

    Since |fringe_y| <= 2 gauss_y, W >= gauss_y (hills_x - 2 fringe_x) scale,
    so on every x column with hills_x >= 4 fringe_x W is positive and the
    column adds exactly 0.  W is tabulated on the other columns only, the
    band where it can be negative, and their y integrals are scattered into
    the full column vector before the x integral.
    """
    ax_x = _as_axis(grid_x, "re_alpha")
    ax_y = _as_axis(grid_y, "im_alpha")
    hills_x, fringe_x, gauss_y, fringe_y, scale = _channel_factors(
        ax_x.points(), ax_y.points(), alpha0, gain, noise_var)
    band = np.flatnonzero(hills_x < 4.0 * fringe_x)
    vals = (hills_x[band, None] * gauss_y[None, :]
            + fringe_x[band, None] * fringe_y[None, :]) * scale
    columns = np.zeros(hills_x.size)
    columns[band] = np.trapezoid(np.maximum(-vals, 0.0), dx=ax_y.step)
    return float(np.trapezoid(columns, dx=ax_x.step))


def cat_variance(alpha0: float) -> float:
    """p-quadrature variance of the even cat; below 1/2 for every alpha0 > 0."""
    a = float(alpha0)
    if a < 0:
        raise ValueError("alpha0 must be non-negative")
    q = math.exp(-2.0 * a * a)
    return 0.5 - 2.0 * a * a * q / (1.0 + q)


def decohered_density(t: float, alpha0: float, gamma: float) -> tuple[float, float]:
    """Zero-temperature damped cat: (shrunken amplitude, coherence coefficient).

    The off-diagonal coefficient decays as exp(-2|alpha0|^2 (1 - e^{-2 gamma t}))
    and saturates at the cat overlap rather than vanishing.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    a = float(alpha0)
    decay = math.exp(-gamma * t)
    coefficient = math.exp(-2.0 * a * a * (1.0 - decay * decay))
    return a * decay, coefficient


def q_parameter(t: float, n_bar: float, gamma: float) -> float:
    """Gaussian-smoothing margin 1/2 - (1+n_bar)(1-e^{-2 gamma t}).

    Positive while the evolved Wigner function can still be negative; its
    root is the negativity-lifetime bound.
    """
    return 0.5 - (1.0 + n_bar) * (1.0 - math.exp(-2.0 * gamma * t))


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


def evolve_characteristic(chi0: Callable[[complex], complex], s_order: float,
                          lam: complex, t: float, params: DecoherenceParams) -> complex:
    """Damping map on an s-ordered characteristic function.

    chi0 must be the initial characteristic function at the same ordering
    s_order; the map multiplies a Gaussian factor controlled by
    s_bar - s = 2 n_bar + 1 - s and rescales the argument by e^{-gamma t}.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    s_bar = 2.0 * params.n_bar + 1.0
    decay = math.exp(-params.gamma * t)
    lam_c = complex(lam)
    factor = math.exp(-(s_bar - s_order) * (abs(lam_c) ** 2 / 2.0) * (1.0 - decay * decay))
    return factor * complex(chi0(lam_c * decay))


def cat_char_normal(alpha0: float) -> Callable[[complex], complex]:
    """Normally ordered (s = 1) characteristic function of the even cat."""
    a0 = float(alpha0)
    norm = _cat_norm(a0)
    overlap = math.exp(-2.0 * a0 * a0)

    def chi(lam: complex) -> complex:
        lam = complex(lam)
        edge = lam * a0 - lam.conjugate() * a0  # alpha0 real
        ridge = lam * a0 + lam.conjugate() * a0
        return (np.exp(edge) + np.exp(-edge)
                + overlap * (np.exp(ridge) + np.exp(-ridge))) / norm

    return chi
