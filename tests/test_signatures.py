"""Estimator checks against closed-form quantum signatures of the cat."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catmem import signatures
from catmem.model import EnsembleResult, GridAxis, GridField
from catmem.oracle import (cat_variance, channel_wigner_field, ideal_P_p,
                           ideal_P_x)
from catmem.sampling import sample_cat
from catmem.signatures import (QuadratureGrid, WignerGrid,
                               default_density_axis, default_quadrature_grid,
                               default_wigner_grid, fringe_visibility, is_mixture_falsified,
                               negativity_with_error, p_distribution,
                               p_variance, quadrature_moments,
                               reconstruct_density, wigner_estimate,
                               wigner_negativity)

# negative volume of the alpha0 = 2 cat on an h = 0.01, +-8 grid; the
# default h = 0.05 grid undershoots this by about 1.1e-3
FINE_NEGATIVITY = 0.2937501161


def input_ensemble(alpha0, n=4):
    """The cat sampler's input ensemble: the state before any evolution."""
    return sample_cat(alpha0, n)


def test_quadrature_grid_rejects_nonuniform():
    with pytest.raises(ValueError):
        QuadratureGrid(theta=0.0, points=np.array([0.0, 0.1, 0.3]))
    grid = QuadratureGrid(theta=0.0, points=np.linspace(-1.0, 1.0, 21))
    assert grid.step == pytest.approx(0.1)


def test_wigner_grid_spacing_cap():
    axis = np.arange(-10, 11) * 0.06
    with pytest.raises(ValueError):
        WignerGrid(x=axis, y=axis, h=0.06)


def test_default_grid_extents():
    quad = default_quadrature_grid(6.0, theta=0.0)
    assert quad.points[-1] >= math.sqrt(2.0) * 6.0 + 5.0
    assert default_quadrature_grid(1.0, theta=0.0).points[-1] >= 12.0
    wig = default_wigner_grid(2.0)
    assert wig.x[-1] >= 6.0 and wig.h == 0.05
    dens = default_density_axis(3.0)
    assert dens[-1] >= 5.0


@pytest.mark.parametrize("alpha0", [1.0, 2.0, 3.0])
def test_p_distribution_matches_ideal(alpha0):
    # four stratified samples carry the exact cat, so the estimator must
    # reproduce the closed-form fringe pattern pointwise
    grid = default_quadrature_grid(alpha0, theta=math.pi / 2)
    field = p_distribution(input_ensemble(alpha0), grid)
    assert field.axes[0].tag == "x_theta_quadrature"
    ideal = ideal_P_p(grid.points, alpha0)
    assert np.max(np.abs(field.values - ideal)) < 1e-8
    assert field.meta["norm"] == pytest.approx(1.0, abs=1e-6)
    assert field.meta["max_imag_residual"] < 1e-8


def test_x_distribution_matches_ideal():
    grid = default_quadrature_grid(2.0, theta=0.0)
    field = p_distribution(input_ensemble(2.0), grid)
    assert np.max(np.abs(field.values - ideal_P_x(grid.points, 2.0))) < 1e-10


def test_wigner_matches_ideal():
    grid = default_wigner_grid(2.0)
    field = wigner_estimate(input_ensemble(2.0), grid)
    assert [ax.tag for ax in field.axes] == ["re_alpha", "im_alpha"]
    oracle = channel_wigner_field(grid.x, grid.y, 2.0, 1.0, 0.0)
    assert np.max(np.abs(field.values - oracle.values)) < 1e-10
    assert field.meta["norm"] == pytest.approx(1.0, abs=1e-6)


def test_negativity_baselines():
    ens = input_ensemble(2.0)
    default = wigner_negativity(wigner_estimate(ens, default_wigner_grid(2.0)))
    assert default == pytest.approx(0.2926461056, abs=1e-8)
    fine_axis = np.arange(-800, 801) * 0.01
    fine = wigner_negativity(
        wigner_estimate(ens, WignerGrid(x=fine_axis, y=fine_axis, h=0.01)))
    assert fine == pytest.approx(FINE_NEGATIVITY, abs=1e-8)
    assert abs(default - fine) < 2e-3


def test_negativity_matches_oracle_field_on_same_grid():
    grid = default_wigner_grid(2.0)
    sim = wigner_negativity(wigner_estimate(input_ensemble(2.0), grid))
    ora = wigner_negativity(channel_wigner_field(grid.x, grid.y, 2.0, 1.0, 0.0))
    assert sim == pytest.approx(ora, abs=1e-10)


def test_jackknife_zero_for_atomic_ensemble():
    # stratified cat samples are four repeated atoms; every delete-block
    # estimate coincides, so the jackknife error must vanish
    ens = input_ensemble(2.0, n=64)
    out = negativity_with_error(ens, default_wigner_grid(2.0), n_blocks=8)
    assert out["n_blocks"] == 8
    assert out["jackknife_se"] == pytest.approx(0.0, abs=1e-12)
    assert out["negativity"] == pytest.approx(0.2926461056, abs=1e-8)


def test_jackknife_positive_for_noisy_weights():
    rng = np.random.default_rng(5)
    ens = input_ensemble(2.0, n=4096)
    noisy = EnsembleResult(alpha_out=ens.alpha_out,
                           alpha_out_plus=ens.alpha_out_plus,
                           weight=ens.weight * (1.0 + 0.1 * rng.standard_normal(4096)),
                           branch=ens.branch)
    out = negativity_with_error(noisy, default_wigner_grid(2.0), n_blocks=16)
    assert out["jackknife_se"] > 0.0
    assert abs(out["negativity"] - 0.2926461056) < 6.0 * out["jackknife_se"] + 0.01
    assert out["field"].values.shape == (241, 241)


def test_negativity_invariant_under_permutation():
    ens = input_ensemble(2.0, n=64)
    order = np.random.default_rng(3).permutation(64)
    mixed = EnsembleResult(alpha_out=ens.alpha_out[order],
                           alpha_out_plus=ens.alpha_out_plus[order],
                           weight=ens.weight[order],
                           branch=ens.branch[order])
    grid = default_wigner_grid(2.0)
    a = negativity_with_error(ens, grid, n_blocks=8)
    b = negativity_with_error(mixed, grid, n_blocks=8)
    assert b["negativity"] == pytest.approx(a["negativity"], abs=1e-12)


@pytest.mark.parametrize("alpha0,tol", [(1.0, 1e-12), (2.0, 1e-10), (3.0, 1e-8)])
def test_density_matches_closed_form(alpha0, tol):
    axis = default_density_axis(alpha0)
    field = reconstruct_density(input_ensemble(alpha0), axis, axis)
    assert [ax.tag for ax in field.axes] == ["coherent_a", "coherent_b"]
    q = math.exp(-2.0 * alpha0 ** 2)
    aa, bb = np.meshgrid(axis, axis, indexing="ij")
    closed = (4.0 * np.cosh(aa * alpha0) * np.cosh(bb * alpha0)
              * np.exp(-0.5 * (aa ** 2 + bb ** 2) - alpha0 ** 2)
              / (2.0 * (1.0 + q)))
    assert np.max(np.abs(field.values - closed)) < tol


@pytest.mark.parametrize("alpha0", [1.0, 2.0])
def test_moments_match_fock_values(alpha0):
    m = quadrature_moments(input_ensemble(alpha0))
    q = math.exp(-2.0 * alpha0 ** 2)
    assert m["mean_weight"] == 1.0
    assert abs(m["a"]) < 1e-12
    assert abs(m["a_plus"]) < 1e-12
    assert m["a_sq"] == pytest.approx(alpha0 ** 2, rel=1e-12)
    assert m["a_plus_sq"] == pytest.approx(alpha0 ** 2, rel=1e-12)
    assert m["adag_a"] == pytest.approx(alpha0 ** 2 * (1 - q) / (1 + q), rel=1e-12)
    assert abs(m["p_mean"]) < 1e-12
    assert m["p_sq"] == pytest.approx(cat_variance(alpha0), rel=1e-12)


def test_p_variance_beats_mixture_floor():
    var = p_variance(input_ensemble(1.0))
    assert var == pytest.approx(cat_variance(1.0), rel=1e-12)
    assert is_mixture_falsified(var)
    assert not is_mixture_falsified(0.5)
    with pytest.raises(ValueError):
        is_mixture_falsified(-0.1)


def test_fringe_visibility_full_for_ideal_cat():
    # trough snaps to the nearest grid point, so full contrast is only
    # approached; picking alpha0 with the trough exactly on the grid
    # recovers machine-precision unity
    grid = default_quadrature_grid(5.0, theta=math.pi / 2)
    field = p_distribution(input_ensemble(5.0), grid)
    assert fringe_visibility(field, alpha_bar=5.0) == pytest.approx(1.0, abs=1e-3)
    a_snap = math.pi / (2.0 * math.sqrt(2.0) * 0.25)
    grid = default_quadrature_grid(a_snap, theta=math.pi / 2)
    field = p_distribution(input_ensemble(a_snap), grid)
    assert fringe_visibility(field, alpha_bar=a_snap) == pytest.approx(1.0, abs=1e-12)


def test_fringe_visibility_reads_off_coherence():
    # envelope times (1 + c cos) has contrast exactly c once the envelope
    # is divided out
    axis = GridAxis(start=-12.0, stop=12.0, step=0.01, tag="x_theta_quadrature")
    p = axis.points()
    c = 0.37
    values = np.exp(-p ** 2) * (1.0 + c * np.cos(2.0 * math.sqrt(2.0) * 2.0 * p))
    from catmem.model import GridField
    field = GridField(axes=(axis,), values=values, meta={})
    assert fringe_visibility(field, alpha_bar=2.0) == pytest.approx(c, abs=1e-3)


def test_chunked_sums_match_small_ensemble():
    base = input_ensemble(2.0)
    reps = 6000  # pushes the ensemble well past one processing chunk
    big = EnsembleResult(alpha_out=np.tile(base.alpha_out, reps),
                         alpha_out_plus=np.tile(base.alpha_out_plus, reps),
                         weight=np.tile(base.weight, reps),
                         branch=np.tile(base.branch, reps))
    grid = default_quadrature_grid(2.0, theta=math.pi / 2)
    small_f = p_distribution(base, grid)
    big_f = p_distribution(big, grid)
    assert np.max(np.abs(small_f.values - big_f.values)) < 1e-12
    wgrid = default_wigner_grid(2.0)
    assert np.max(np.abs(wigner_estimate(base, wgrid).values
                         - wigner_estimate(big, wgrid).values)) < 1e-12


def test_field_norm_and_validation():
    grid = default_quadrature_grid(2.0, theta=math.pi / 2)
    field = p_distribution(input_ensemble(2.0), grid)
    empty = EnsembleResult(np.zeros(0, complex), np.zeros(0, complex), np.zeros(0),
                           np.zeros(0, dtype="<U2"))
    with pytest.raises(ValueError):
        p_distribution(empty, grid)
    with pytest.raises(TypeError):
        p_distribution([], grid)
    with pytest.raises(ValueError):
        wigner_negativity(field)
    with pytest.raises(ValueError):
        negativity_with_error(input_ensemble(2.0), default_wigner_grid(2.0), n_blocks=1)


def complex_wigner_sum(u, v, w, xs, ys):
    """Reference: the kernel sum in complex arithmetic, one table per factor."""
    mu_x = 0.5 * (u + v)
    mu_y = 0.5j * (v - u)
    fx = np.exp(-2.0 * (xs[None, :] - mu_x[:, None]) ** 2) * w[:, None]
    fy = np.exp(-2.0 * (ys[None, :] - mu_y[:, None]) ** 2)
    return fx.T @ fy


def _column(n, elements):
    return st.lists(elements, min_size=n, max_size=n).map(np.array)


@st.composite
def kernel_ensembles(draw):
    """Samples with real means mu_x = c and complex mu_y = a + i b; some rows
    with a real mu_y, so that real and phased rows share a chunk."""
    n = draw(st.integers(1, 24))
    centre = st.floats(-3.0, 3.0)
    c, a = draw(_column(n, centre)), draw(_column(n, centre))
    b = draw(_column(n, st.floats(-2.5, 2.5).filter(lambda x: x != 0.0)))
    b[draw(_column(n, st.booleans()))] = 0.0
    w = draw(_column(n, st.floats(0.01, 2.0)))
    mu_y = a + 1j * b
    u, v = c + 1j * mu_y, c - 1j * mu_y
    assert not np.any((u + v).imag)  # mu_x exactly real, as the kernel needs
    return u, v, w


@settings(max_examples=60, deadline=None)
@given(kernel_ensembles())
def test_real_kernel_matches_complex_sum(ensemble):
    u, v, w = ensemble
    axis = 0.05 * np.arange(-60, 61)
    grid = WignerGrid(x=axis, y=axis, h=0.05)
    field = wigner_estimate(EnsembleResult(u, v, w, np.array(["+-"] * u.size)), grid)
    ref = complex_wigner_sum(u, v, w, axis, axis) * (2.0 / (math.pi * u.size))
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(field.values - ref.real)) <= 1e-12 * scale
    assert field.meta["max_imag_residual"] == pytest.approx(
        np.max(np.abs(ref.imag)), rel=1e-12, abs=1e-12 * scale)


def _reference_blocks(n, branch, n_blocks):
    """Delete-block layout: matching sub-slices of four branch-major runs, or
    contiguous blocks."""
    quarter = n // 4
    if (n % 4 == 0 and quarter % n_blocks == 0
            and all(len(set(branch[q * quarter:(q + 1) * quarter])) == 1
                    for q in range(4))):
        per = quarter // n_blocks
        return [np.concatenate([np.arange(q * quarter + j * per, q * quarter + (j + 1) * per)
                                for q in range(4)]) for j in range(n_blocks)]
    edges = np.linspace(0, n, n_blocks + 1, dtype=int)
    return [np.arange(edges[j], edges[j + 1]) for j in range(n_blocks)]


def loop_jackknife(ens, grid, n_blocks):
    """Reference: one complex kernel sum and one negativity per deleted block."""
    u, v, w = ens.alpha_out, ens.alpha_out_plus, ens.weight
    n = u.size
    total = complex_wigner_sum(u, v, w, grid.x, grid.y).real
    axes = (GridAxis(float(grid.x[0]), float(grid.x[-1]), grid.h, "re_alpha"),
            GridAxis(float(grid.y[0]), float(grid.y[-1]), grid.h, "im_alpha"))
    loo = []
    for idx in _reference_blocks(n, ens.branch, n_blocks):
        part = complex_wigner_sum(u[idx], v[idx], w[idx], grid.x, grid.y).real
        values = (total - part) * (2.0 / (math.pi * (n - idx.size)))
        loo.append(wigner_negativity(GridField(axes=axes, values=values)))
    loo = np.array(loo)
    return math.sqrt((n_blocks - 1) / n_blocks * float(np.sum((loo - loo.mean()) ** 2)))


def noisy_channel_ensemble(n, seed=7):
    """Input cat through a real gain and circular noise, like a thermal run in
    its phase-corrected frame: mu_x is real on every row, and the off-diagonal
    rows have a complex mu_y."""
    ens = input_ensemble(2.0, n=n)
    rng = np.random.default_rng(seed)
    noise = 0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return EnsembleResult(alpha_out=0.9 * ens.alpha_out + noise,
                          alpha_out_plus=0.9 * ens.alpha_out_plus + np.conj(noise),
                          weight=ens.weight, branch=ens.branch)


def test_kernel_rejects_complex_mu_x():
    # a complex gain leaves mu_x complex on the off-diagonal rows; the real
    # kernel has no term for it, so every estimator built on it refuses
    ens = input_ensemble(2.0, n=8)
    gain = 0.9 * np.exp(0.3j)
    turned = EnsembleResult(alpha_out=gain * ens.alpha_out,
                            alpha_out_plus=np.conj(gain) * ens.alpha_out_plus,
                            weight=ens.weight, branch=ens.branch)
    grid = default_wigner_grid(2.0)
    for estimate in (wigner_estimate, negativity_with_error):
        with pytest.raises(ValueError, match="real mu_x"):
            estimate(turned, grid)


@pytest.mark.parametrize("layout", ["branch_major", "permuted", "unequal_contiguous"])
def test_jackknife_matches_block_loop(layout):
    ens = noisy_channel_ensemble(192)
    if layout == "permuted":
        order = np.random.default_rng(3).permutation(192)
    else:
        order = np.arange(190 if layout == "unequal_contiguous" else 192)
    ens = EnsembleResult(ens.alpha_out[order], ens.alpha_out_plus[order],
                         ens.weight[order], ens.branch[order])
    grid = default_wigner_grid(2.0)
    out = negativity_with_error(ens, grid, n_blocks=12)
    assert out["n_blocks"] == 12
    assert out["jackknife_se"] > 0.0
    assert out["jackknife_se"] == pytest.approx(loop_jackknife(ens, grid, 12), rel=1e-12)


# -- the kernel as it was before its work buffers were reused: every chunk
# allocates fresh tables and products.  The buffered kernel must give the
# same bits.

def _alloc_gaussian_table(mu, axis):
    dev = axis[None, :] - mu.real[:, None]
    mag = dev * dev
    mag -= (mu.imag * mu.imag)[:, None]
    mag *= -2.0
    np.exp(mag, out=mag)
    return dev, mag


def _alloc_rotate(table, rows, phase):
    t = np.tan(0.5 * phase)
    t_sq = t * t
    scale = table[rows] / (1.0 + t_sq)
    table[rows] = scale * (1.0 - t_sq)
    scale *= 2.0 * t
    return scale


def _alloc_kernel_tables(u, v, w, xs, ys):
    mu_x = 0.5 * (u + v)
    mu_y = 0.5j * (v - u)
    _, cx = _alloc_gaussian_table(mu_x, xs)
    cx *= w[:, None]
    dev_y, cy = _alloc_gaussian_table(mu_y, ys)
    b = mu_y.imag
    phased = np.flatnonzero(b != 0.0)
    sy = _alloc_rotate(cy, phased, 4.0 * b[phased, None] * dev_y[phased])
    return cx, cy, phased, sy


def _alloc_wigner_sum(u, v, w, xs, ys):
    re = np.zeros((xs.size, ys.size))
    im = np.zeros((xs.size, ys.size))
    chunk = max(1, signatures._TABLE_CELLS // max(xs.size, ys.size))
    for lo in range(0, u.size, chunk):
        sl = slice(lo, lo + chunk)
        cx, cy, phased, sy = _alloc_kernel_tables(u[sl], v[sl], w[sl], xs, ys)
        re += cx.T @ cy
        if phased.size:
            im += cx[phased].T @ sy
    return re, im


def _alloc_block_sums(u, v, w, xs, ys, rows):
    n_b, size = rows.shape
    flat = rows.ravel()
    cx, cy, _, _ = _alloc_kernel_tables(u[flat], v[flat], w[flat], xs, ys)
    return np.matmul(cx.reshape(n_b, size, -1).transpose(0, 2, 1),
                     cy.reshape(n_b, size, -1))


def _alloc_negativity_with_error(ens, grid, n_blocks):
    u, v, w = ens.alpha_out, ens.alpha_out_plus, ens.weight
    n = u.size
    rows, sizes = signatures._jackknife_blocks(n, ens.branch, n_blocks)
    re, im = _alloc_wigner_sum(u, v, w, grid.x, grid.y)
    values = re * (2.0 / (math.pi * n))
    delta = float(np.trapezoid(np.trapezoid(np.maximum(-values, 0.0), dx=grid.h),
                               dx=grid.h))
    u_pad, v_pad = np.append(u, 0.0), np.append(v, 0.0)
    w_pad = np.append(w, 0.0)
    weights = np.outer(signatures._trapezoid_weights(grid.x.size, grid.h),
                       signatures._trapezoid_weights(grid.y.size, grid.h)).ravel()
    chunk = max(1, signatures._TABLE_CELLS // max(grid.x.size, grid.y.size))
    batch = max(1, min(signatures._FIELD_CELLS // re.size, chunk // rows.shape[1]))
    loo = np.empty(n_blocks)
    for lo in range(0, n_blocks, batch):
        sums = _alloc_block_sums(u_pad, v_pad, w_pad, grid.x, grid.y, rows[lo:lo + batch])
        sums -= re
        np.maximum(sums, 0.0, out=sums)
        loo[lo:lo + batch] = sums.reshape(sums.shape[0], -1) @ weights
    loo *= 2.0 / (math.pi * (n - sizes))
    se = math.sqrt((n_blocks - 1) / n_blocks * float(np.sum((loo - np.mean(loo)) ** 2)))
    return delta, se, values, im


def corrected_channel_ensemble(n):
    """A thermal fig10-like run, phase-corrected: every mu_x exactly real."""
    from catmem.experiments import ExperimentConfig, _corrected_ensemble
    return _corrected_ensemble(ExperimentConfig(alpha0=2.0, n_bar=2.0, n_samples=n))[1]


@pytest.mark.parametrize("kind", ["corrected", "noisy"])
def test_buffered_kernel_is_bitwise_the_allocating_kernel(monkeypatch, kind):
    # 3000 table cells make 24-row chunks on the 121-point grid and 37-row
    # chunks on the 61 x 81 one, so n = 190 (and n = 192 on the second grid)
    # ends on a short chunk.  n = 192 keeps the four branch runs, whose 16
    # jackknife blocks take 3 rows of each; n = 190 gets padded contiguous
    # blocks of 11 or 12 rows.  15 000 field cells batch the blocks one at a
    # time on the first grid and three at a time on the second, the last
    # batch holding one block.
    monkeypatch.setattr(signatures, "_TABLE_CELLS", 3000)
    monkeypatch.setattr(signatures, "_FIELD_CELLS", 15_000)
    ens = corrected_channel_ensemble(192) if kind == "corrected" \
        else noisy_channel_ensemble(192)
    grids = [WignerGrid(x=0.05 * np.arange(-60, 61), y=0.05 * np.arange(-60, 61), h=0.05),
             WignerGrid(x=0.05 * np.arange(-30, 31), y=0.05 * np.arange(-40, 41), h=0.05)]
    for n in (192, 190):
        part = EnsembleResult(ens.alpha_out[:n], ens.alpha_out_plus[:n], ens.weight[:n],
                              ens.branch[:n])
        u, v, w = part.alpha_out, part.alpha_out_plus, part.weight
        for grid in grids:  # consecutive calls on two grid sizes
            got = signatures._wigner_sum(u, v, w, grid.x, grid.y)
            ref = _alloc_wigner_sum(u, v, w, grid.x, grid.y)
            assert np.array_equal(got[0], ref[0])
            assert np.array_equal(got[1], ref[1])
            delta, se, values, im = _alloc_negativity_with_error(part, grid, 16)
            out = negativity_with_error(part, grid, n_blocks=16)
            assert out["negativity"] == delta
            assert out["jackknife_se"] == se and se > 0.0
            assert np.array_equal(out["field"].values, values)
            assert out["max_imag_residual"] == float(np.max(np.abs(im))) * (
                2.0 / (math.pi * n))
