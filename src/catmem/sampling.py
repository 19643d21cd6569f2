"""Importance sampling of the cat-state input.

The even cat (|alpha0> + |-alpha0>)/sqrt(norm), with one real amplitude
alpha0, admits an exact positive phase-space density over four branch
points: the two diagonal pairs at (+-alpha0, +-alpha0) and the two
off-diagonal pairs where the plus variable flips sign.  Sampling from the
flat four-branch reference and carrying the density ratio as a weight makes
the diagonal weight 2/(1+e^{-2 alpha0^2}) and the off-diagonal weight its
complement to two.  The ensemble is stratified, n/4 rows per branch, so the
mean weight is exactly one.
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

    For moderate cats the off-diagonal weight is 2 - w_diag, exact in
    floating point (Sterbenz), so a stratified pair sums to exactly two.
    For large cats that difference cancels catastrophically (w_diag sits
    within a few ulps of two), so the overlap formula 2q/(1+q) is used
    directly; the pair sum is then off by under half an ulp of one in the
    mean, which still rounds to an exact mean weight of one.
    """
    q = math.exp(-2.0 * abs(alpha0) ** 2)
    if q == 0.0:
        raise ValueError("cat overlap underflows; off-diagonal weight lost")
    w_diag = 2.0 / (1.0 + q)
    w_off = 2.0 - w_diag
    w_off_direct = 2.0 * q / (1.0 + q)
    if abs(w_off - w_off_direct) > 1e-6 * w_off_direct:
        return 2.0 - w_off_direct, w_off_direct
    return w_diag, w_off


def sample_cat(alpha0: float, n_samples: int) -> EnsembleResult:
    """Draw the weighted input ensemble as columns.

    The result is the ensemble before any evolution: alpha_out holds
    alpha_in = +-alpha0 and alpha_out_plus holds alpha_in_plus =
    conj(+-alpha0), each row with the diagonal or off-diagonal weight of
    its branch.  Exactly n/4 rows go to each branch, ordered as the ++
    block, then --, +-, -+ (``BRANCHES``).  alpha0 must be real, finite and
    nonzero, and n_samples a positive multiple of 4.
    """
    if isinstance(alpha0, (complex, np.complexfloating)) or not (
            math.isfinite(alpha0) and alpha0 != 0):
        raise ValueError(f"alpha0 must be real, finite and nonzero, got {alpha0!r}")
    if n_samples < 4 or n_samples % 4 != 0:
        raise ValueError(f"n_samples must be a positive multiple of 4, got {n_samples!r}")
    w_diag, w_off = branch_weights(alpha0)
    a0 = complex(alpha0)
    amp = {"+": a0, "-": -a0}
    picks = np.repeat(np.arange(4), n_samples // 4)
    # the four branch atoms in BRANCHES order, indexed by each row's branch;
    # the plus variable is the conjugate of the bra amplitude
    return EnsembleResult(
        alpha_out=np.array([amp[b[0]] for b in BRANCHES])[picks],
        alpha_out_plus=np.array([amp[b[1]].conjugate() for b in BRANCHES])[picks],
        weight=np.array([w_diag if b[0] == b[1] else w_off for b in BRANCHES])[picks],
        branch=np.array(BRANCHES)[picks])


def block_stream(master_seed: int, block_index: int) -> np.random.Generator:
    """Counter-based stream for one trajectory block.

    Distinct (seed, block) keys give statistically independent Philox
    streams, so an ensemble can be farmed out block-by-block to any number
    of workers and still produce identical numbers.
    """
    key = np.array([master_seed, block_index + 1], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
