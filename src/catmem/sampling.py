"""Importance sampling of the cat-state input and thermal mechanical starts.

The even cat admits an exact positive phase-space density over four branch
points: the two diagonal pairs at (+-alpha0, +-conj(alpha0)) and the two
off-diagonal pairs where the plus variable flips sign.  Sampling from the
flat four-branch reference and carrying the density ratio as a weight makes
the diagonal weight 2/(1+e^{-2|alpha0|^2}) and the off-diagonal weight its
complement to two, so the mean weight is one by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import BRANCHES, CatParams, WeightedSample

__all__ = [
    "SamplerConfig",
    "branch_weights",
    "sample_cat",
    "sample_thermal",
    "verify_cat_moments",
    "block_stream",
    "RNG_BLOCK_SIZE",
]

# trajectories per counter-based RNG stream; fixed so that a trajectory's
# draws depend only on the seed and its index
RNG_BLOCK_SIZE = 4096


@dataclass(frozen=True)
class SamplerConfig:
    cat: CatParams
    n_samples: int
    master_seed: int
    stratified: bool = True

    def __post_init__(self):
        if self.n_samples < 4:
            raise ValueError("need at least four samples, one per branch")
        if self.stratified and self.n_samples % 4 != 0:
            raise ValueError("stratified sampling needs n_samples divisible by 4")
        if not 0 <= self.master_seed < 2 ** 64:
            raise ValueError("master_seed must fit in 64 bits")


def branch_weights(cat: CatParams) -> tuple[float, float]:
    """(diagonal, off-diagonal) importance weights.

    For moderate cats the off-diagonal weight is 2 - w_diag, exact in
    floating point (Sterbenz), so a stratified pair sums to exactly two.
    For large cats that difference cancels catastrophically (w_diag sits
    within a few ulps of two), so the overlap formula 2q/(1+q) is used
    directly; the pair sum is then off by under half an ulp of one in the
    mean, which still rounds to an exact mean weight of one.
    """
    q = math.exp(-2.0 * abs(cat.alpha0) ** 2)
    if q == 0.0:
        raise ValueError("cat overlap underflows; off-diagonal weight lost")
    w_diag = 2.0 / (1.0 + q)
    w_off = 2.0 - w_diag
    w_off_direct = 2.0 * q / (1.0 + q)
    if abs(w_off - w_off_direct) > 1e-6 * w_off_direct:
        return 2.0 - w_off_direct, w_off_direct
    return w_diag, w_off


def _branch_sample(cat: CatParams, branch: str, w_diag: float, w_off: float) -> WeightedSample:
    a0 = complex(cat.alpha0)
    ket = a0 if branch[0] == "+" else -a0
    bra = a0 if branch[1] == "+" else -a0  # this is alpha_in_plus^* in ket space
    weight = w_diag if branch[0] == branch[1] else w_off
    return WeightedSample(alpha_in=ket, alpha_in_plus=bra.conjugate(),
                          weight=weight, branch=branch)


def sample_cat(config: SamplerConfig) -> list[WeightedSample]:
    """Draw the weighted input ensemble.

    Stratified mode assigns exactly n/4 samples per branch, ordered as the
    ++ block, then --, +-, -+.  Unstratified mode draws branches uniformly
    from the master-seeded stream (mean weight then fluctuates).
    """
    w_diag, w_off = branch_weights(config.cat)
    if config.stratified:
        per = config.n_samples // 4
        out: list[WeightedSample] = []
        for branch in BRANCHES:
            s = _branch_sample(config.cat, branch, w_diag, w_off)
            out.extend([s] * per)
        return out
    rng = np.random.Generator(np.random.Philox(key=np.array([config.master_seed, 0], dtype=np.uint64)))
    picks = rng.integers(0, 4, size=config.n_samples)
    return [_branch_sample(config.cat, BRANCHES[k], w_diag, w_off) for k in picks]


def sample_thermal(n_occupation: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """Thermal phase-space starts for the mechanical mode.

    Returns an array of shape (count,) of complex beta values with
    <|beta|^2> = n_occupation and <beta^2> = 0; the conjugate variable is
    beta* on every trajectory.  Zero occupation gives exact zeros without
    consuming randomness.
    """
    if n_occupation < 0:
        raise ValueError("occupation must be non-negative")
    if count < 0:
        raise ValueError("count must be non-negative")
    if n_occupation == 0:
        return np.zeros(count, dtype=np.complex128)
    scale = math.sqrt(n_occupation / 2.0)
    xy = rng.standard_normal((2, count))
    return scale * (xy[0] + 1j * xy[1])


def verify_cat_moments(samples: list[WeightedSample]) -> dict:
    """Weighted input moments used for cross-checks against Fock-space values."""
    w = np.array([s.weight for s in samples])
    a = np.array([s.alpha_in for s in samples])
    ap = np.array([s.alpha_in_plus for s in samples])
    n = len(samples)
    return {
        "mean_weight": math.fsum(s.weight for s in samples) / n,
        "a": complex(np.sum(w * a) / n),
        "a_sq": complex(np.sum(w * a * a) / n),
        "adag_a": complex(np.sum(w * ap * a) / n),
    }


def block_stream(master_seed: int, block_index: int) -> np.random.Generator:
    """Counter-based stream for one trajectory block.

    Distinct (seed, block) keys give statistically independent Philox
    streams, so an ensemble can be farmed out block-by-block to any number
    of workers and still produce identical numbers.
    """
    key = np.array([master_seed, block_index + 1], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
