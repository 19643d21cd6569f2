"""Importance sampling of the cat input."""

import math

import numpy as np
import pytest
from scipy.special import gammaln

from catmem.model import BRANCHES, CatParams
from catmem.sampling import (SamplerConfig, block_stream, branch_weights,
                             sample_cat)


def fock_cat_moments(alpha0, cutoff=60):
    """Exact cat moments from the Fock expansion, as an independent oracle."""
    n = np.arange(cutoff + 1)
    log_c = -0.5 * alpha0 ** 2 + n * math.log(alpha0) - 0.5 * gammaln(n + 1)
    c = np.exp(log_c) * (1.0 + (-1.0) ** n)  # even components only, unnormalised
    c /= math.sqrt(np.sum(c * c))
    a_c = np.zeros_like(c)
    a_c[:-1] = np.sqrt(n[1:]) * c[1:]        # a|psi>
    return {
        "a": float(np.dot(c, a_c)),
        "a_sq": float(np.sum(np.sqrt(n[2:] * (n[2:] - 1)) * c[2:] * c[:-2])),
        "adag_a": float(np.dot(a_c, a_c)),
    }


def verify_cat_moments(inputs):
    """Weighted input moments, for cross-checks against Fock-space values."""
    w, a, ap = inputs.weight, inputs.alpha_out, inputs.alpha_out_plus
    n = len(inputs)
    return {
        "a": complex(np.sum(w * a) / n),
        "a_sq": complex(np.sum(w * a * a) / n),
        "adag_a": complex(np.sum(w * ap * a) / n),
    }


@pytest.mark.parametrize("alpha0", [1.0, 2.0, 3.0])
def test_weighted_moments_match_fock_oracle(alpha0):
    inputs = sample_cat(SamplerConfig(cat=CatParams.make(alpha0), n_samples=4,
                                      master_seed=0))
    got = verify_cat_moments(inputs)
    want = fock_cat_moments(alpha0)
    assert got["a"] == pytest.approx(want["a"], abs=1e-12)
    assert got["a_sq"].real == pytest.approx(want["a_sq"], rel=1e-12)
    assert got["adag_a"].real == pytest.approx(want["adag_a"], rel=1e-12)
    assert abs(got["a_sq"].imag) < 1e-14 and abs(got["adag_a"].imag) < 1e-14


@pytest.mark.parametrize("alpha0", [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
@pytest.mark.parametrize("n_samples", [4, 4096])
def test_mean_weight_exactly_one(alpha0, n_samples):
    inputs = sample_cat(SamplerConfig(cat=CatParams.make(alpha0),
                                      n_samples=n_samples, master_seed=0))
    mean = math.fsum(inputs.weight) / n_samples
    assert mean == 1.0


def test_branch_weights_small_cat_exact_difference():
    w_diag, w_off = branch_weights(CatParams.make(2.0))
    q = math.exp(-8.0)
    assert w_diag == 2.0 / (1.0 + q)
    assert w_off == 2.0 - w_diag                      # exact float difference
    assert w_off == pytest.approx(2.0 * q / (1.0 + q), rel=1e-9)
    assert w_off == pytest.approx(6.707e-4, rel=1e-4)


def test_branch_weights_large_cat_direct_formula():
    # w_diag rounds to 2.0 here, so the difference form would return zero
    w_diag, w_off = branch_weights(CatParams.make(5.0))
    q = math.exp(-50.0)
    assert w_off == 2.0 * q / (1.0 + q)
    assert w_off > 0.0
    assert w_diag + w_off == pytest.approx(2.0, abs=1e-15)


def test_branch_weights_underflow_rejected():
    with pytest.raises(ValueError):
        branch_weights(CatParams.make(20.0))


def test_stratified_layout():
    inputs = sample_cat(SamplerConfig(cat=CatParams.make(2.0), n_samples=8,
                                      master_seed=0))
    assert inputs.branch.tolist() == ["++", "++", "--", "--", "+-", "+-", "-+", "-+"]
    sign = {"+": 1.0, "-": -1.0}
    assert inputs.alpha_out.tolist() == [sign[b[0]] * 2.0 for b in inputs.branch]
    assert inputs.alpha_out_plus.tolist() == [sign[b[1]] * 2.0 for b in inputs.branch]
    assert inputs.gain is None and inputs.noise_var is None


def test_stratified_needs_multiple_of_four():
    with pytest.raises(ValueError):
        SamplerConfig(cat=CatParams.make(2.0), n_samples=6, master_seed=0)
    with pytest.raises(ValueError):
        SamplerConfig(cat=CatParams.make(2.0), n_samples=2, master_seed=0,
                      stratified=False)


def test_unstratified_reproducible():
    cfg = SamplerConfig(cat=CatParams.make(2.0), n_samples=400, master_seed=7,
                        stratified=False)
    first = sample_cat(cfg).branch.tolist()
    second = sample_cat(cfg).branch.tolist()
    assert first == second
    assert set(first) == set(BRANCHES)


def list_sampler(config):
    """Reference sampler: one (alpha_in, alpha_in_plus, weight, branch) tuple
    per row in Python complex arithmetic, stacked into columns.  The column
    sampler must match it bit for bit, signed zeros included."""
    w_diag, w_off = branch_weights(config.cat)

    def row(branch):
        a0 = complex(config.cat.alpha0)
        ket = a0 if branch[0] == "+" else -a0
        bra = a0 if branch[1] == "+" else -a0
        return ket, bra.conjugate(), w_diag if branch[0] == branch[1] else w_off, branch

    if config.stratified:
        rows = [row(b) for b in BRANCHES for _ in range(config.n_samples // 4)]
    else:
        rng = np.random.Generator(np.random.Philox(
            key=np.array([config.master_seed, 0], dtype=np.uint64)))
        rows = [row(BRANCHES[k]) for k in rng.integers(0, 4, size=config.n_samples)]
    a, ap, w, branch = zip(*rows)
    return (np.array(a, dtype=np.complex128), np.array(ap, dtype=np.complex128),
            np.array(w), np.array(branch))


@pytest.mark.parametrize("alpha0", [2.0, 5.0, 18.8, -3.0, 1.5 + 0.7j, 3 - 2j, 2j])
@pytest.mark.parametrize("stratified,n_samples", [(True, 16), (False, 401)])
def test_columns_match_list_sampler_bitwise(alpha0, stratified, n_samples):
    cfg = SamplerConfig(cat=CatParams.make(alpha0), n_samples=n_samples, master_seed=7,
                        stratified=stratified)
    got = sample_cat(cfg)
    a, ap, w, branch = list_sampler(cfg)
    assert np.array_equal(got.alpha_out.view(np.uint64), a.view(np.uint64))
    assert np.array_equal(got.alpha_out_plus.view(np.uint64), ap.view(np.uint64))
    assert np.array_equal(got.weight.view(np.uint64), w.view(np.uint64))
    assert got.branch.dtype == branch.dtype and np.array_equal(got.branch, branch)


def test_block_streams_keyed_by_seed_and_block():
    a = block_stream(11, 0).standard_normal(4)
    b = block_stream(11, 0).standard_normal(4)
    c = block_stream(11, 1).standard_normal(4)
    d = block_stream(12, 0).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
