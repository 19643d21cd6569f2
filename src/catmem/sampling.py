"""Importance sampling of the cat-state input.

The even cat (|alpha0> + |-alpha0>)/sqrt(norm), with one real amplitude
alpha0, admits an exact positive phase-space density over four branch
points: the two diagonal pairs at (+-alpha0, +-alpha0) and the two
off-diagonal pairs where the plus variable flips sign.  Sampling from the
flat four-branch reference and carrying the density ratio as a weight makes
the off-diagonal weight 2q/(1+q), with the cat overlap q = e^{-2 alpha0^2},
and the diagonal weight its complement to two.  The ensemble is stratified,
n/4 rows per branch, so the mean weight is exactly one.
"""

from __future__ import annotations

import math

import numpy as np

from .model import BRANCHES, EnsembleResult

__all__ = [
    "branch_weights",
    "sample_cat",
    "block_stream",
    "RNG_BLOCK_SIZE",
]

# trajectories per counter-based RNG stream; fixed so that a trajectory's
# draws depend only on the seed and its index
RNG_BLOCK_SIZE = 4096


def branch_weights(alpha0: float) -> tuple[float, float]:
    """(diagonal, off-diagonal) importance weights.

    One formula for every alpha0: the off-diagonal weight 2q/(1+q), with
    the cat overlap q = exp(-2 alpha0^2), which cancels at no alpha0, and
    the diagonal weight 2 - w_off.  That difference rounds by at most half
    an ulp of the diagonal weight, so the
    weights of a stratified ensemble, summed exactly (``math.fsum``), give
    a mean weight of exactly one.
    """
    q = math.exp(-2.0 * abs(alpha0) ** 2)
    if q == 0.0:
        raise ValueError("cat overlap underflows; off-diagonal weight lost")
    w_off = 2.0 * q / (1.0 + q)
    return 2.0 - w_off, w_off


def sample_cat(alpha0: float, n_samples: int) -> EnsembleResult:
    """Draw the weighted input ensemble as columns.

    The result is the ensemble before any evolution: branch (ket, bra) sits
    at alpha_in = ket alpha0 and alpha_in_plus = bra alpha0, so its kernel
    centres are c = (alpha_in + alpha_in_plus)/2, a = 0 and the rate b =
    (alpha_in_plus - alpha_in)/2: c = +-alpha0 and b = 0 on ++ and --, c = 0
    and b = -+alpha0 on +- and -+.  Each row carries the diagonal or
    off-diagonal weight of its branch.  Exactly n/4 rows go to each branch,
    ordered as the ++ block, then --, +-, -+ (``BRANCHES``).  alpha0 must be
    real, finite and nonzero, and n_samples a positive multiple of 4.
    """
    if isinstance(alpha0, (complex, np.complexfloating)) or not (
            math.isfinite(alpha0) and alpha0 != 0):
        raise ValueError(f"alpha0 must be real, finite and nonzero, got {alpha0!r}")
    if n_samples < 4 or n_samples % 4 != 0:
        raise ValueError(f"n_samples must be a positive multiple of 4, got {n_samples!r}")
    w_diag, w_off = branch_weights(alpha0)
    amp = {"+": float(alpha0), "-": -float(alpha0)}
    atoms = [(amp[k], amp[p]) for k, p in BRANCHES]  # (ket, bra)
    # the (c, b, weight) of the four branch atoms in BRANCHES order, each
    # repeated over its branch's rows
    c, b, weight = np.repeat([[0.5 * (ket + bra) for ket, bra in atoms],
                              [0.5 * (bra - ket) for ket, bra in atoms],
                              [w_diag if ket == bra else w_off for ket, bra in atoms]],
                             n_samples // 4, axis=1)
    return EnsembleResult(c=c, a=np.zeros(n_samples), b=b, weight=weight,
                          branch=np.array(BRANCHES).repeat(n_samples // 4))


def block_stream(master_seed: int, block_index: int) -> np.random.Generator:
    """Counter-based stream for one trajectory block.

    Distinct (seed, block) keys give statistically independent Philox
    streams, so an ensemble can be farmed out block-by-block to any number
    of workers and still produce identical numbers.
    """
    key = np.array([master_seed, block_index + 1], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
