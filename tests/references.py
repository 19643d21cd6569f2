"""Independent closed-form references that only the tests read.

The damped cat's characteristic function and the ideal quadrature
distributions check the package's Wigner closed form and its quadrature
estimator from outside: the package itself never evaluates them.
``channel_wigner_field`` tabulates the package's closed form on a grid,
for tests that compare fields.  The file name has no ``test_`` prefix, so
pytest does not collect it.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from catmem.model import GridAxis, GridField
from catmem.oracle import channel_wigner


@dataclass(frozen=True)
class DecoherenceParams:
    """Single-mode damping channel: decay rate and bath occupation."""

    gamma: float
    n_bar: float

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.n_bar < 0:
            raise ValueError("n_bar must be non-negative")


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


def channel_wigner_field(ax_x: GridAxis, ax_y: GridAxis, alpha0: float, gain: float,
                         noise_var: float) -> GridField:
    """Tabulate ``channel_wigner`` at the points of the (Re alpha, Im alpha)
    axes."""
    vals = channel_wigner(ax_x.points()[:, None], ax_y.points()[None, :],
                          alpha0, gain, noise_var)
    return GridField(axes=(ax_x, ax_y), values=vals,
                     meta={"kind": "wigner_oracle", "alpha0": alpha0, "gain": gain,
                           "noise_var": noise_var})
