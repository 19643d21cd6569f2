"""Estimator checks against closed-form quantum signatures of the cat."""

import math
import os
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catmem import signatures
from catmem.model import BRANCHES, EnsembleResult, GridAxis, GridField
from catmem.oracle import cat_variance, negativity_band, q_channel
from catmem.sampling import sample_cat
from catmem.signatures import (default_density_axis, default_quadrature_axis,
                               default_wigner_grid, fringe_visibility, is_mixture_falsified,
                               negativity_with_error, p_distribution, quadrature_moments,
                               reconstruct_density, wigner_estimate,
                               wigner_negativity)
from references import channel_wigner_field, ideal_P_p, ideal_P_x

# negative volume of the alpha0 = 2 cat on an h = 0.01, +-8 grid; the
# default h = 0.05 grid undershoots this by about 1.1e-3
FINE_NEGATIVITY = 0.2937501161


def input_ensemble(alpha0, n=4):
    """The cat sampler's input ensemble: the state before any evolution."""
    return sample_cat(alpha0, n)


def take(ens, rows):
    """The ensemble's rows `rows`, in that order."""
    return EnsembleResult(ens.c[rows], ens.a[rows], ens.b[rows], ens.weight[rows],
                          ens.branch[rows])


def kernel_columns(ens):
    """The columns (c, a, b, w) that the kernel reads."""
    return ens.c, ens.a, ens.b, ens.weight


def wigner_axes(nx, ny=None, h=0.05):
    """(Re alpha, Im alpha) axes h * k for |k| <= nx and |k| <= ny."""
    ny = nx if ny is None else ny
    return (GridAxis(-nx * h, nx * h, h, "re_alpha"), GridAxis(-ny * h, ny * h, h, "im_alpha"))


def test_default_grid_extents():
    quad = default_quadrature_axis(6.0)
    assert quad.stop >= math.sqrt(2.0) * 6.0 + 5.0 and quad.step == 0.01
    assert default_quadrature_axis(1.0).stop >= 12.0
    wig = default_wigner_grid(2.0)
    assert [ax.tag for ax in wig] == ["re_alpha", "im_alpha"]
    assert all(ax.stop >= 6.0 and ax.step == 0.05 for ax in wig)
    dens = default_density_axis(3.0)
    assert dens.stop >= 5.0 and dens.step == 0.1
    # the kernels evaluate at step * k; the axes list those very points
    for ax in (quad, *wig, dens):
        n = round(ax.stop / ax.step)
        assert ax.start == -ax.stop
        assert np.array_equal(ax.points(), ax.step * np.arange(-n, n + 1))


@pytest.mark.parametrize("alpha0", [1.0, 2.0, 3.0])
def test_p_distribution_matches_ideal(alpha0):
    # four stratified samples carry the exact cat, so the estimator must
    # reproduce the closed-form fringe pattern pointwise
    axis = default_quadrature_axis(alpha0)
    field = p_distribution(input_ensemble(alpha0), axis, math.pi / 2)
    assert field.axes == (axis,) and axis.tag == "x_theta_quadrature"
    assert field.meta["theta"] == math.pi / 2
    ideal = ideal_P_p(axis.points(), alpha0)
    assert np.max(np.abs(field.values - ideal)) < 1e-8
    assert field.meta["norm"] == pytest.approx(1.0, abs=1e-6)
    assert field.meta["max_imag_residual_4th_node"] < 1e-8


def test_x_distribution_matches_ideal():
    axis = default_quadrature_axis(2.0)
    field = p_distribution(input_ensemble(2.0), axis, 0.0)
    assert np.max(np.abs(field.values - ideal_P_x(axis.points(), 2.0))) < 1e-10


def test_wigner_matches_ideal():
    grid = default_wigner_grid(2.0)
    field = wigner_estimate(input_ensemble(2.0), grid)
    assert field.axes == grid
    oracle = channel_wigner_field(*grid, 2.0, 1.0, 0.0)
    assert np.max(np.abs(field.values - oracle.values)) < 1e-10
    assert field.meta["norm"] == pytest.approx(1.0, abs=1e-6)


def test_negativity_baselines():
    ens = input_ensemble(2.0)
    default = wigner_negativity(wigner_estimate(ens, default_wigner_grid(2.0)))
    assert default == pytest.approx(0.2926461056, abs=1e-8)
    fine = wigner_negativity(wigner_estimate(ens, wigner_axes(800, h=0.01)))
    assert fine == pytest.approx(FINE_NEGATIVITY, abs=1e-8)
    assert abs(default - fine) < 2e-3


def test_negativity_matches_oracle_field_on_same_grid():
    grid = default_wigner_grid(2.0)
    sim = wigner_negativity(wigner_estimate(input_ensemble(2.0), grid))
    ora = wigner_negativity(channel_wigner_field(*grid, 2.0, 1.0, 0.0))
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
    noisy = EnsembleResult(ens.c, ens.a, ens.b,
                           weight=ens.weight * (1.0 + 0.1 * rng.standard_normal(4096)),
                           branch=ens.branch)
    out = negativity_with_error(noisy, default_wigner_grid(2.0), n_blocks=16)
    assert out["jackknife_se"] > 0.0
    assert abs(out["negativity"] - 0.2926461056) < 6.0 * out["jackknife_se"] + 0.01
    assert out["field"].values.shape == (241, 241)


def test_negativity_invariant_under_permutation():
    ens = input_ensemble(2.0, n=64)
    order = np.random.default_rng(3).permutation(64)
    mixed = take(ens, order)
    grid = default_wigner_grid(2.0)
    a = negativity_with_error(ens, grid, n_blocks=8)
    b = negativity_with_error(mixed, grid, n_blocks=8)
    assert b["negativity"] == pytest.approx(a["negativity"], abs=1e-12)


@pytest.mark.parametrize("alpha0,tol", [(1.0, 1e-12), (2.0, 1e-10), (3.0, 1e-8)])
def test_density_matches_closed_form(alpha0, tol):
    axis = default_density_axis(alpha0)
    field = reconstruct_density(input_ensemble(alpha0), axis)
    assert [ax.tag for ax in field.axes] == ["coherent_a", "coherent_b"]
    assert all(np.array_equal(ax.points(), axis.points()) for ax in field.axes)
    q = math.exp(-2.0 * alpha0 ** 2)
    aa, bb = np.meshgrid(axis.points(), axis.points(), indexing="ij")
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
    var = quadrature_moments(input_ensemble(1.0))["p_variance"]
    assert var == pytest.approx(cat_variance(1.0), rel=1e-12)
    assert is_mixture_falsified(var)
    assert not is_mixture_falsified(0.5)
    with pytest.raises(ValueError):
        is_mixture_falsified(-0.1)


def test_fringe_visibility_full_for_ideal_cat():
    # trough snaps to the nearest grid point, so full contrast is only
    # approached; picking alpha0 with the trough exactly on the grid
    # recovers machine-precision unity
    field = p_distribution(input_ensemble(5.0), default_quadrature_axis(5.0), math.pi / 2)
    assert fringe_visibility(field, alpha_bar=5.0) == pytest.approx(1.0, abs=1e-3)
    a_snap = math.pi / (2.0 * math.sqrt(2.0) * 0.25)
    field = p_distribution(input_ensemble(a_snap), default_quadrature_axis(a_snap), math.pi / 2)
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
    big = take(base, np.tile(np.arange(4), reps))
    axis = default_quadrature_axis(2.0)
    small_f = p_distribution(base, axis, math.pi / 2)
    big_f = p_distribution(big, axis, math.pi / 2)
    assert np.max(np.abs(small_f.values - big_f.values)) < 1e-12
    wgrid = default_wigner_grid(2.0)
    assert np.max(np.abs(wigner_estimate(base, wgrid).values
                         - wigner_estimate(big, wgrid).values)) < 1e-12


def test_field_norm_and_validation():
    axis = default_quadrature_axis(2.0)
    field = p_distribution(input_ensemble(2.0), axis, math.pi / 2)
    empty = EnsembleResult(np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0),
                           np.zeros(0, dtype="<U2"))
    with pytest.raises(ValueError):
        p_distribution(empty, axis, math.pi / 2)
    with pytest.raises(TypeError):
        p_distribution([], axis, math.pi / 2)
    with pytest.raises(ValueError):
        wigner_negativity(field)
    with pytest.raises(ValueError):
        negativity_with_error(input_ensemble(2.0), default_wigner_grid(2.0), n_blocks=1)


def assert_within_ulps(got, want, ulps=8):
    assert abs(got - want) <= ulps * np.spacing(abs(want)), (got, want)


@pytest.mark.parametrize("name", ["table1", "fig5", "fig6", "fig9", "fig10", "fig11", "fig12"])
def test_weight_contractions_agree_with_numpy_trapezoid_on_preset_grids(name):
    # the field of the protocol channel at every point of the preset: its
    # norm and negative volume, and the p-distribution's norm, a few ulps
    # from np.trapezoid's sums of pairwise means
    from catmem.engine import protocol_channel
    from catmem.experiments import preset, sweep_points
    cfg = preset(name)
    points = sweep_points(cfg) if cfg.sweep else [({}, cfg)]
    for _, sub in points:
        grid = default_wigner_grid(sub.alpha0)
        (hx, hy), (ax_x, ax_y) = (ax.step for ax in grid), grid
        gain, noise_var = protocol_channel(sub.system_params(), sub.schedule())
        field = channel_wigner_field(*grid, sub.alpha0, abs(gain), noise_var)
        values = field.values
        assert_within_ulps(float(ax_x.integrate(ax_y.integrate(values))),
                           float(np.trapezoid(np.trapezoid(values, dx=hy), dx=hx)))
        assert_within_ulps(wigner_negativity(field), float(np.trapezoid(
            np.trapezoid(np.maximum(-values, 0.0), dx=hy), dx=hx)))
    axis = default_quadrature_axis(cfg.alpha0)
    quad = p_distribution(input_ensemble(cfg.alpha0), axis, math.pi / 2)
    assert_within_ulps(quad.meta["norm"], float(np.trapezoid(quad.values, dx=axis.step)))


def test_one_point_field_has_zero_norm():
    axis = GridAxis(0.0, 0.0, 0.01, "x_theta_quadrature")
    field = p_distribution(input_ensemble(2.0), axis, math.pi / 2)
    assert field.values[0] > 0.0 and field.meta["norm"] == 0.0


def complex_wigner_sum(u, v, w, xs, ys):
    """Reference: the kernel sum in complex arithmetic, one table per factor,
    from the doubled amplitudes (u, v) (``EnsembleResult.amplitudes``)."""
    mu_x = 0.5 * (u + v)
    mu_y = 0.5j * (v - u)
    fx = np.exp(-2.0 * (xs[None, :] - mu_x[:, None]) ** 2) * w[:, None]
    fy = np.exp(-2.0 * (ys[None, :] - mu_y[:, None]) ** 2)
    return fx.T @ fy


def _column(n, elements):
    return st.lists(elements, min_size=n, max_size=n).map(np.array)


@st.composite
def kernel_ensembles(draw):
    """Samples with real means mu_x = c and complex mu_y = a + i b, each
    branch with its one rate b, some of them 0, so that real and phased
    rows share a chunk."""
    n = draw(st.integers(1, 24))
    centre = st.floats(-3.0, 3.0)
    c, a = draw(_column(n, centre)), draw(_column(n, centre))
    rates = draw(_column(4, st.floats(-2.5, 2.5).filter(lambda x: x != 0.0)))
    rates[draw(_column(4, st.booleans()))] = 0.0
    labels = draw(_column(n, st.sampled_from(range(4))))
    w = draw(_column(n, st.floats(0.01, 2.0)))
    return EnsembleResult(c, a, rates[labels], w, np.array(BRANCHES)[labels])


@settings(max_examples=60, deadline=None)
@given(kernel_ensembles())
def test_real_kernel_matches_complex_sum(ens):
    u, v = ens.amplitudes()
    axis = 0.05 * np.arange(-60, 61)
    field = wigner_estimate(ens, wigner_axes(60))
    ref = complex_wigner_sum(u, v, ens.weight, axis, axis) * (2.0 / (math.pi * u.size))
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(field.values - ref.real)) <= 1e-12 * scale
    # the imaginary residual is taken on every 4th node of both axes
    assert field.meta["max_imag_residual_4th_node"] == pytest.approx(
        np.max(np.abs(ref.imag[::4, ::4])), rel=1e-12, abs=1e-12 * scale)
    # the jackknife's direct tables: unrelated rates take a column pair per
    # rate, bitwise those of the allocating reference
    got = fresh_tables(ens, axis)
    for table, ref_table in zip(got, _alloc_kernel_tables(*kernel_columns(ens), axis, axis),
                                strict=True):
        assert np.array_equal(table, ref_table)


def complex_p_distribution(u, v, w, ps, theta):
    """Reference: the quadrature kernel sum in complex arithmetic, one
    complex exponential per sample and point, normalised."""
    shift = (np.exp(-1j * theta) * u + np.exp(1j * theta) * v) / math.sqrt(2.0)
    kern = np.exp(-((ps[None, :] - shift[:, None]) ** 2))
    return (w @ kern) / (u.size * math.sqrt(math.pi))


P_AXIS = GridAxis(-6.0, 6.0, 0.05, "x_theta_quadrature")


def assert_p_distribution_is_the_complex_sum(ens, theta):
    """Values within 1e-12 of the largest |reference|; the residual is the
    reference's largest |Im| over every 4th node."""
    field = p_distribution(ens, P_AXIS, theta)
    ref = complex_p_distribution(*ens.amplitudes(), ens.weight, P_AXIS.points(), theta)
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(field.values - ref.real)) <= 1e-12 * scale
    assert field.meta["max_imag_residual_4th_node"] == pytest.approx(
        np.max(np.abs(ref.imag[::4])), rel=1e-12, abs=1e-12 * scale)


THETAS = [0.0, math.pi / 4, math.pi / 2]


@settings(max_examples=40, deadline=None)
@given(kernel_ensembles(), st.sampled_from(THETAS))
def test_p_distribution_matches_complex_sum(ensemble, theta):
    assert_p_distribution_is_the_complex_sum(ensemble, theta)


def _reference_blocks(n, branch, n_blocks):
    """Delete-block layout: each branch's rows, in BRANCHES order, cut into
    n_blocks runs at linspace edges; block j takes run j of every branch."""
    members = [np.flatnonzero(branch == label) for label in BRANCHES]
    cuts = [np.linspace(0, rows.size, n_blocks + 1, dtype=int) for rows in members]
    return [np.concatenate([rows[cut[j]:cut[j + 1]] for rows, cut in zip(members, cuts)])
            for j in range(n_blocks)]


def loop_jackknife(ens, grid, n_blocks):
    """Reference: one complex kernel sum and one negativity per deleted block."""
    (u, v), w = ens.amplitudes(), ens.weight
    n = u.size
    xs, ys = (ax.points() for ax in grid)
    total = complex_wigner_sum(u, v, w, xs, ys).real
    loo = []
    for idx in _reference_blocks(n, ens.branch, n_blocks):
        part = complex_wigner_sum(u[idx], v[idx], w[idx], xs, ys).real
        values = (total - part) * (2.0 / (math.pi * (n - idx.size)))
        loo.append(wigner_negativity(GridField(axes=grid, values=values)))
    loo = np.array(loo)
    return math.sqrt((n_blocks - 1) / n_blocks * float(np.sum((loo - loo.mean()) ** 2)))


def noisy_channel_ensemble(n, seed=7):
    """Input cat through a real gain and circular noise, like a thermal run in
    its phase-corrected frame: the noise N enters c and a as Re N and Im N,
    and the off-diagonal rows keep their branch's rate 0.9 b_in."""
    ens = input_ensemble(2.0, n=n)
    rng = np.random.default_rng(seed)
    noise = 0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return EnsembleResult(0.9 * ens.c + noise.real, 0.9 * ens.a + noise.imag, 0.9 * ens.b,
                          weight=ens.weight, branch=ens.branch)


@pytest.mark.parametrize("theta", THETAS)
def test_noisy_p_distribution_matches_complex_sum(theta):
    assert_p_distribution_is_the_complex_sum(noisy_channel_ensemble(192), theta)


def test_kernel_rejects_complex_mu_x():
    # a complex gain leaves mu_x complex on the off-diagonal rows; the real
    # kernel has no term for it, and the ensemble, which every estimator
    # reads, holds mu_x as a real column: it refuses a complex one
    ens = input_ensemble(2.0, n=8)
    u, v = ens.amplitudes()
    gain = 0.9 * np.exp(0.3j)
    mu_x = 0.5 * (gain * u + np.conj(gain) * v)
    assert np.any(mu_x.imag)
    with pytest.raises(ValueError, match="must be real"):
        EnsembleResult(mu_x, ens.a, ens.b, ens.weight, ens.branch)


@pytest.mark.parametrize("layout", ["branch_major", "permuted", "unequal_contiguous"])
def test_jackknife_matches_block_loop(layout):
    ens = noisy_channel_ensemble(192)
    if layout == "permuted":
        order = np.random.default_rng(3).permutation(192)
    else:
        order = np.arange(190 if layout == "unequal_contiguous" else 192)
    ens = take(ens, order)
    grid = default_wigner_grid(2.0)
    out = negativity_with_error(ens, grid, n_blocks=12)
    assert out["n_blocks"] == 12
    assert out["jackknife_se"] > 0.0
    assert out["jackknife_se"] == pytest.approx(loop_jackknife(ens, grid, 12), rel=1e-12)



@pytest.mark.parametrize("n,n_blocks", [(24000, 100), (192, 16), (64, 8)])
def test_divisible_counts_keep_the_branch_major_blocks(n, n_blocks):
    # when n/4 is a multiple of the block count, block j takes the j-th
    # equal slice of each branch-major run, as before the layout admitted
    # any sample count, so those runs keep the blocks they had
    rows, sizes = signatures._jackknife_blocks(sample_cat(2.0, n).branch_rows, n_blocks)
    quarter = n // 4
    per = quarter // n_blocks
    expected = (quarter * np.arange(4)[None, :, None] + per * np.arange(n_blocks)[:, None, None]
                + np.arange(per)[None, None, :]).reshape(n_blocks, 4 * per)
    assert np.array_equal(rows, expected)
    assert np.array_equal(sizes, np.full(n_blocks, 4 * per))


def test_jackknife_blocks_take_every_branch_for_any_count():
    # 24004 rows: 6001 per branch in runs of 60 or 61, so every block loses
    # the same count of each branch and the padding index only pads
    ens = sample_cat(2.0, 24004)
    members = [np.flatnonzero(ens.branch == label) for label in BRANCHES]
    rows, sizes = signatures._jackknife_blocks(ens.branch_rows, 100)
    for row, size in zip(rows, sizes):
        taken = [np.intersect1d(row, branch_rows).size for branch_rows in members]
        assert len(set(taken)) == 1 and sum(taken) == size
        assert np.all(row[size:] == 24004)
    assert np.array_equal(np.sort(rows[rows < 24004]), np.arange(24004))


def test_sampling_error_does_not_depend_on_divisibility():
    # 24004 samples do not split into 100 equal blocks per branch; the se
    # must still match that of 24000 samples within sampling noise, where
    # contiguous blocks inside one branch once read 8x too large
    from catmem.experiments import ExperimentConfig, run_point
    se = {n: run_point(ExperimentConfig(alpha0=2.0, n_bar=2.0, n_samples=n,
                                        jackknife_blocks=100, signatures=("negativity",))
                       ).scalars["sampling_error"]
          for n in (24000, 24004)}
    assert 0.8 <= se[24004] / se[24000] <= 1.25


# -- the direct kernel as it was before its work buffers were reused: every
# table is allocated fresh, in the kernel's arithmetic.  The jackknife's
# buffered tables must give the same bits; the full pass, an expansion, must
# stay within EXPANSION_REL of the direct sum.  That direct sum takes the
# subtract-square tables, exp(-2 ((u - centre)^2 - height^2)) cell by cell,
# an independent reference that the kernel's tables are pinned against
# within TABLE_ULPS.

# |expansion - direct sum| <= EXPANSION_REL * max |direct sum|; the fig10
# and fig11 preset points at 4k samples reach 1.4e-14
EXPANSION_REL = 2e-14


def fresh_tables(ens, axis):
    """``_kernel_tables`` on every row of the ensemble, in order, over a
    square grid of `axis`, in a table slot of its own, so its tables
    outlive later calls."""
    slot = np.empty((max(2, len(ens)), axis.size)), np.empty((max(2, len(ens)), axis.size))
    factors = signatures._table_factors(ens, axis, axis)
    return signatures._kernel_tables(ens, np.arange(len(ens)), factors, slot)


def _alloc_product(left, right):
    """left @ right through one spare zero row, so that a one-row left
    factor takes the many-row path of numpy's matmul, as every row of the
    kernel's products does."""
    return np.matmul(np.vstack([left, np.zeros((1, left.shape[1]))]), right)[:-1]


def _alloc_gaussian_table(centre, height, axis):
    """exp(-2 ((u - centre)^2 - height^2)), the exponent one product
    [4 centre, 2 (height^2 - centre^2), 1] . [u; 1; -2 u^2]."""
    left = np.stack([4.0 * centre, 2.0 * (height * height - centre * centre),
                     np.ones(centre.size)], axis=1)
    return np.exp(_alloc_product(left, np.stack([axis, np.ones(axis.size), -2.0 * axis * axis])))


def _alloc_rotate(table, rows, rate, axis, centre):
    """Angle addition as one product per distinct rho = |rate|:
    cos(rho (y - a)) = [cos rho a, sin rho a] . [cos rho y; sin rho y]."""
    rho = np.abs(rate)
    for r in np.unique(rho):
        part = rho == r
        angle = r * centre[part]
        cosine = _alloc_product(np.stack([np.cos(angle), np.sin(angle)], axis=1),
                                np.stack([np.cos(r * axis), np.sin(r * axis)]))
        table[rows[part]] = table[rows[part]] * cosine


def _alloc_kernel_tables(c, a, b, w, xs, ys):
    cx = _alloc_gaussian_table(c, np.zeros(c.size), xs)
    cx *= w[:, None]
    cy = _alloc_gaussian_table(a, b, ys)
    phased = np.flatnonzero(b != 0.0)
    _alloc_rotate(cy, phased, 4.0 * b[phased], ys, a[phased])
    return cx, cy


def _subtracted_gaussian_table(centre, height, axis):
    dev = axis[None, :] - centre[:, None]
    mag = dev * dev
    mag -= (height * height)[:, None]
    mag *= -2.0
    np.exp(mag, out=mag)
    return mag


def _subtracted_kernel_tables(c, a, b, w, xs, ys):
    """The kernel's tables cell by cell: (x - c)^2 and (y - a)^2 - b^2
    subtracted and squared per cell, the cosine by angle addition per cell."""
    cx = _subtracted_gaussian_table(c, np.zeros(c.size), xs)
    cx *= w[:, None]
    cy = _subtracted_gaussian_table(a, b, ys)
    phased = np.flatnonzero(b != 0.0)
    rho = np.abs(4.0 * b[phased])[:, None]
    angle = rho[:, 0] * a[phased]
    cy[phased] *= (np.cos(rho * ys) * np.cos(angle)[:, None]
                   + np.sin(rho * ys) * np.sin(angle)[:, None])
    return cx, cy


def direct_wigner_sum(c, a, b, w, xs, ys):
    """The real part of the Wigner kernel sum from the subtract-square
    tables, in chunks."""
    re = np.zeros((xs.size, ys.size))
    for lo in range(0, c.size, 1000):
        chunk = slice(lo, lo + 1000)
        cx, cy = _subtracted_kernel_tables(c[chunk], a[chunk], b[chunk], w[chunk], xs, ys)
        re += cx.T @ cy
    return re


def assert_within_expansion_bound(re, ens, xs, ys):
    direct = direct_wigner_sum(*kernel_columns(ens), xs, ys)
    assert np.max(np.abs(re - direct)) <= EXPANSION_REL * np.max(np.abs(direct))


def _alloc_block_sums(c, a, b, w, xs, ys, rows):
    n_b, size = rows.shape
    flat = rows.ravel()
    cx, cy = _alloc_kernel_tables(c[flat], a[flat], b[flat], w[flat], xs, ys)
    return np.matmul(cx.reshape(n_b, size, -1).transpose(0, 2, 1),
                     cy.reshape(n_b, size, -1))


def _alloc_negativity_with_error(ens, grid, n_blocks, band, re):
    """negativity_with_error from allocating tables, given the full kernel
    sum re: (negativity, se, negativity off the band, field values).  All
    blocks are summed at once, and each leave-one-out negativity is its
    column integrals' x integral."""
    n = len(ens)
    rows, sizes = signatures._jackknife_blocks(ens.branch_rows, n_blocks)
    xs_all, ys = (ax.points() for ax in grid)
    wx, wy = (ax.trapezoid_weights() for ax in grid)
    inside = np.abs(xs_all) <= band
    xs = xs_all[inside]
    values = re * (2.0 / (math.pi * n))
    columns = np.einsum("ij,j->i", np.maximum(-values, 0.0), wy)
    delta = float(np.einsum("i,i->", columns, wx))
    outside = float(np.einsum("i,i->", np.where(inside, 0.0, columns), wx))
    padded = (np.append(column, 0.0) for column in kernel_columns(ens))
    sums = _alloc_block_sums(*padded, xs, ys, rows)
    sums -= re[inside]
    np.maximum(sums, 0.0, out=sums)
    loo = np.einsum("bi,i->b", np.einsum("bij,j->bi", sums, wy), wx[inside])
    loo *= 2.0 / (math.pi * (n - sizes))
    se = math.sqrt((n_blocks - 1) / n_blocks * float(np.sum((loo - np.mean(loo)) ** 2)))
    return delta, se, outside, values


def corrected_channel_ensemble(n):
    """A thermal fig10-like run, phase-corrected: every mu_x exactly real."""
    from catmem.experiments import ExperimentConfig, _corrected_ensemble
    return _corrected_ensemble(ExperimentConfig(alpha0=2.0, n_bar=2.0, n_samples=n))[1]


_THREAD = threading.Thread


def count_threads(monkeypatch) -> list:
    """Count the threads started from here on: returns the list of their
    names."""
    started = []

    class Counted(_THREAD):
        def start(self):
            started.append(self.name)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    return started


def permuted(ens: EnsembleResult) -> EnsembleResult:
    return take(ens, np.random.default_rng(3).permutation(len(ens)))


def assert_is_the_allocating_reference(out, ens, grid, n_blocks, band=math.inf):
    """negativity_with_error's output `out`: every array and scalar bitwise
    equal to the allocating reference fed the same full kernel sum."""
    re, im, rank, bound = signatures._kernel_sum(*kernel_columns(ens), ens.branch_rows,
                                                 *(ax.points() for ax in grid))
    delta, se, outside, values = _alloc_negativity_with_error(ens, grid, n_blocks, band, re)
    assert out["negativity"] == delta
    assert out["jackknife_se"] == se and se > 0.0
    assert out["negativity_outside_band"] == outside
    assert np.array_equal(out["field"].values, values)
    meta = out["field"].meta
    assert meta["max_imag_residual_4th_node"] == \
        float(np.max(np.abs(im))) * (2.0 / (math.pi * len(ens)))
    assert (meta["kernel_rank"], meta["truncation_bound"]) == (rank, bound)


def assert_kernel_is_the_allocating_kernel(monkeypatch, part, grid, n_blocks):
    """The full kernel sum within EXPANSION_REL of the direct sum, and
    negativity_with_error, on the whole grid and on a 0.8 band, bitwise the
    allocating reference, each call on the calling thread alone."""
    xs, ys = (ax.points() for ax in grid)
    re = signatures._kernel_sum(*kernel_columns(part), part.branch_rows, xs, ys)[0]
    assert_within_expansion_bound(re, part, xs, ys)
    started = count_threads(monkeypatch)
    for band in (math.inf, 0.8):
        out = negativity_with_error(part, grid, n_blocks=n_blocks, band=band)
        assert_is_the_allocating_reference(out, part, grid, n_blocks, band)
    assert started == []


@pytest.mark.parametrize("kind", ["corrected", "noisy"])
def test_buffered_kernel_is_bitwise_the_allocating_kernel(monkeypatch, kind):
    # 3000 moment cells make moment chunks of 3000 // J rows, so every
    # cluster's moments are added over several chunks.  n = 192 keeps the
    # four branch runs, whose 16 jackknife blocks take 3 rows of each; at
    # n = 190 the last branch has 46 rows, so the blocks take 2 or 3 of
    # them and are padded to 12.  15 000 field cells batch the blocks one
    # at a time on the 121-point grid and three at a time on the 61 x 81
    # one, the last batch holding one block.  The 0.8 band keeps 33 columns
    # of each grid and the same batches.
    monkeypatch.setattr(signatures, "_MOMENT_CELLS", 3000)
    monkeypatch.setattr(signatures, "_TABLE_CELLS", 3000)
    monkeypatch.setattr(signatures, "_FIELD_CELLS", 15_000)
    ens = corrected_channel_ensemble(192) if kind == "corrected" \
        else noisy_channel_ensemble(192)
    grids = [wigner_axes(60), wigner_axes(30, 40)]
    for n in (192, 190):
        part = take(ens, np.arange(n))
        for grid in grids:  # consecutive calls on two grid sizes
            assert_kernel_is_the_allocating_kernel(monkeypatch, part, grid, 16)


@pytest.mark.parametrize("layout", ["straddle", "permuted", "one_block_per_batch"])
def test_kernel_layouts_are_bitwise_the_allocating_kernel(monkeypatch, layout):
    # straddle: 5000 table cells batch three 12-row blocks, so the phased
    # rows of a batch are three runs and _kernel_tables gathers them.  permuted:
    # the same batches, and every cluster of the expansion takes its rows
    # in another order.  one_block_per_batch: like a fig11 point, the 4
    # blocks of 48 rows each outgrow the 24-row tables of 3000 cells, so
    # every batch holds one block, whose phased rows are one run.
    ens = corrected_channel_ensemble(192)
    grid = wigner_axes(60)
    cells, n_blocks = (3000, 4) if layout == "one_block_per_batch" else (5000, 16)
    monkeypatch.setattr(signatures, "_TABLE_CELLS", cells)
    if layout == "permuted":
        ens = permuted(ens)
    blocks = signatures._jackknife_blocks(ens.branch_rows, n_blocks)[0]
    chunk = signatures._table_rows(*(ax.points() for ax in grid))
    batch = max(1, chunk // blocks.shape[1])
    phased = [np.flatnonzero(ens.b[blocks[lo:lo + batch].ravel()])
              for lo in range(0, n_blocks, batch)]
    runs = [np.count_nonzero(np.diff(rows) > 1) + 1 for rows in phased]
    assert runs == ([1] * 4 if layout == "one_block_per_batch" else [3] * 5 + [1])
    assert_kernel_is_the_allocating_kernel(monkeypatch, ens, grid, n_blocks)


def _root(table: np.ndarray) -> np.ndarray:
    while table.base is not None:
        table = table.base
    return table


def test_batches_reuse_one_table_slot(monkeypatch):
    # 5000 table cells batch three 12-row blocks, the last batch one: six
    # batches, whose cx and cy are the leading rows of one buffer each,
    # filled and read in turn on the calling thread; allocating fresh
    # tables per batch costs more than the kernel's element-wise work on
    # large blocks
    monkeypatch.setattr(signatures, "_TABLE_CELLS", 5000)
    ens = corrected_channel_ensemble(192)
    grid = wigner_axes(60)
    kernel_tables = signatures._kernel_tables
    built = []

    def spy(*args):
        built.append(kernel_tables(*args))
        return built[-1]

    monkeypatch.setattr(signatures, "_kernel_tables", spy)
    negativity_with_error(ens, grid, n_blocks=16)
    assert [cx.shape[0] for cx, _ in built] == [36] * 5 + [12]
    roots = [{id(_root(pair[k])) for pair in built} for k in (0, 1)]
    assert [len(ids) for ids in roots] == [1, 1]
    assert not roots[0] & roots[1]
    assert all(cx.flags.c_contiguous and cy.flags.c_contiguous for cx, cy in built)


def test_kernel_tables_gather_rows_and_zero_the_pads():
    # the builder's own gather: a permuted index vector holding the pad
    # index n, on a band of columns, into a slot with spare rows.  Its
    # tables are the slot's leading rows, bitwise the allocating tables of
    # the gathered rows with the pads' weight zeroed, and cx is all zero on
    # the pad rows (which take the last sample's cy).
    ens = corrected_channel_ensemble(192)
    c, a, b, w = kernel_columns(ens)
    n = w.size
    rows = np.random.default_rng(5).permutation(np.append(np.arange(n), [n] * 7))
    axis = wigner_axes(60)[0].points()
    xs = axis[30:91]
    slot = np.full((rows.size + 3, xs.size), np.nan), np.full((rows.size + 3, axis.size), np.nan)
    cx, cy = signatures._kernel_tables(ens, rows, signatures._table_factors(ens, xs, axis), slot)
    assert all(np.shares_memory(table, buf) and table.shape[0] == rows.size
               for table, buf in zip((cx, cy), slot))
    clip = np.minimum(rows, n - 1)
    want = _alloc_kernel_tables(c[clip], a[clip], b[clip], np.where(rows == n, 0.0, w[clip]),
                                xs, axis)
    for table, ref_table in zip((cx, cy), want, strict=True):
        assert np.array_equal(table, ref_table)
    assert not np.any(cx[rows == n])


def test_kernel_table_rows_do_not_depend_on_the_row_count():
    # every run of rows, from one row up, gets the bits those rows have in
    # the tables of the whole ensemble: a one-row product goes through two
    # rows, since numpy's matmul rounds a one-row left factor otherwise.
    # On the whole fig10 grid, on a band of 41 columns and on one column,
    # the last a matrix-vector product for every row count.
    ens = permuted(corrected_channel_ensemble(400))
    ys = default_wigner_grid(2.0)[1].points()
    for xs in (ys, ys[100:141], ys[120:121]):
        slot = np.empty((400, xs.size)), np.empty((400, ys.size))
        factors = signatures._table_factors(ens, xs, ys)
        whole = [table.copy() for table in
                 signatures._kernel_tables(ens, np.arange(400), factors, slot)]
        for start in (0, 1, 7, 150):
            for m in (1, 2, 3, 4, 5, 8, 13, 64, 97):
                got = signatures._kernel_tables(ens, np.arange(start, start + m), factors, slot)
                for table, ref in zip(got, whole, strict=True):
                    assert np.array_equal(table, ref[start:start + m])
        # the allocating reference's one-row tables have these bits too
        for table, ref in zip(_alloc_kernel_tables(*(col[:1] for col in kernel_columns(ens)),
                                                   xs, ys), whole, strict=True):
            assert np.array_equal(table, ref[:1])


# The kernel's tables against the subtract-square ones: an exponent formed
# as a product rounds its terms, up to 4 max(u^2, centre^2) + 2 height^2,
# so a table entry may move by TABLE_ULPS ulps of that size, relative.
TABLE_ULPS = 8.0


@pytest.mark.parametrize("point", ["fig10", "fig5", "alpha0_max"])
def test_kernel_tables_are_the_subtract_square_tables(point):
    # fig10 t = 0.02/Gm (alpha0 = 2) and fig5 (alpha0 = 5), each with a
    # thermal bath, and the largest alpha0 a config takes on its whole grid,
    # whose edges are where the product cancels most.  Entries whose scale
    # is below 2^-969 are compared absolutely: exp rounds to the subnormal
    # spacing 2^-1074 near there, more than the relative bound allows.
    from catmem.experiments import ALPHA0_MAX, ExperimentConfig, _corrected_ensemble, preset
    cfg = {"fig10": ExperimentConfig(alpha0=2.0),
           "fig5": preset("fig5"),
           "alpha0_max": ExperimentConfig(alpha0=ALPHA0_MAX)}[point]
    ens = _corrected_ensemble(replace(cfg, n_bar=2.0, n_samples=400))[1]
    xs, ys = (ax.points() for ax in default_wigner_grid(cfg.alpha0))
    c, a, b, w = kernel_columns(ens)
    slot = np.empty((400, xs.size)), np.empty((400, ys.size))
    cx, cy = signatures._kernel_tables(ens, np.arange(400), signatures._table_factors(ens, xs, ys),
                                       slot)
    ref_x, ref_y = _subtracted_kernel_tables(c, a, b, w, xs, ys)
    envelope = np.abs(_subtracted_gaussian_table(a, b, ys))
    eps, floor = np.finfo(float).eps, 2.0 ** -969
    for got, ref, size, scale in ((cx, ref_x, np.maximum(c[:, None] ** 2, xs ** 2), np.abs(ref_x)),
                                  (cy, ref_y, np.maximum(a[:, None] ** 2, ys ** 2)
                                   + 0.5 * (b * b)[:, None], envelope)):
        normal = scale > floor
        bound = TABLE_ULPS * eps * (1.0 + 4.0 * size) * scale
        assert np.all(np.abs(got - ref)[normal] <= bound[normal])
        assert np.all(np.abs(got - ref)[~normal] <= floor)


def test_concurrent_calls_with_fast_switching_are_bitwise(monkeypatch):
    # four callers at once, while the interpreter switches threads every
    # microsecond: every call gives the bits of the allocating reference,
    # and none starts a thread of its own.
    monkeypatch.setattr(signatures, "_TABLE_CELLS", 5000)
    monkeypatch.setattr(signatures, "_FIELD_CELLS", 15_000)
    ens = permuted(corrected_channel_ensemble(192))
    grid = wigner_axes(60)
    started = count_threads(monkeypatch)
    outs = [None] * 4

    def call(i):
        outs[i] = negativity_with_error(ens, grid, n_blocks=16)

    callers = [threading.Thread(target=call, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert len(started) == 4  # the four callers alone
    for out in outs:
        assert_is_the_allocating_reference(out, ens, grid, 16)


def complex_mu_x_at_the_end(n=192):
    """A corrected ensemble whose last row has a complex mu_x."""
    ens = corrected_channel_ensemble(n)
    c = ens.c.astype(complex)
    c[-1] += 0.1j
    return EnsembleResult(c, ens.a, ens.b, ens.weight, ens.branch)


def test_complex_mu_x_in_the_last_row_reaches_the_caller(monkeypatch):
    # a complex mu_x in the last row raises when the ensemble is formed,
    # before any estimator starts; an error in the expansion reaches the
    # caller too.  No call, failed or not, starts a thread.
    monkeypatch.setattr(signatures, "_TABLE_CELLS", 3000)
    grid = wigner_axes(60)
    before = threading.active_count()
    started = count_threads(monkeypatch)
    with pytest.raises(ValueError, match="must be real"):
        complex_mu_x_at_the_end()
    assert threading.active_count() == before
    assert started == []
    good = corrected_channel_ensemble(192)
    negativity_with_error(good, grid, n_blocks=16)
    assert threading.active_count() == before

    def failing(*args):
        raise RuntimeError("expansion failed")

    monkeypatch.setattr(signatures, "_kernel_sum", failing)
    with pytest.raises(RuntimeError, match="expansion failed"):
        negativity_with_error(good, grid, n_blocks=16)
    assert threading.active_count() == before
    assert started == []


@pytest.mark.parametrize("case", ["two_cpus", "one_cpu"])
def test_no_estimator_starts_a_thread(monkeypatch, case):
    # with the default table sizes the 16 blocks of 12 rows fit one batch on
    # the 121-point grid; with 5000 table cells they take six, on a process
    # allowed one CPU.  Either way every estimator runs on the calling
    # thread, and the jackknife builds its batches in order and gives the
    # allocating reference's bits.
    if case == "one_cpu":
        monkeypatch.setattr(signatures, "_TABLE_CELLS", 5000)
    cpus = {"two_cpus": {0, 1}, "one_cpu": {0}}[case]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    ens = corrected_channel_ensemble(192)
    grid = wigner_axes(60)
    kernel_tables = signatures._kernel_tables
    batches = []

    def spy(*args):
        batches.append(args[1].size)
        return kernel_tables(*args)

    monkeypatch.setattr(signatures, "_kernel_tables", spy)
    before = threading.active_count()
    started = count_threads(monkeypatch)
    out = negativity_with_error(ens, grid, n_blocks=16)
    wigner_estimate(ens, grid)
    p_distribution(ens, P_AXIS, 0.0)
    reconstruct_density(ens, default_density_axis(2.0))
    quadrature_moments(ens)
    assert started == []
    assert threading.active_count() == before
    assert batches == ([192] if case == "two_cpus" else [36] * 5 + [12])
    assert_is_the_allocating_reference(out, ens, grid, 16)


def test_small_noiseless_run_starts_no_thread(monkeypatch):
    # a noiseless point takes no jackknife (its sampling error is 0), and
    # the expansions run on the caller
    from catmem.experiments import ExperimentConfig, run_point
    started = count_threads(monkeypatch)
    point = run_point(ExperimentConfig(alpha0=2.0, signatures=("p_distribution", "wigner",
                                                               "negativity")))
    assert point.scalars["sampling_error"] == 0.0
    assert set(point.fields) == {"p_distribution", "wigner"}
    assert started == []


@pytest.mark.parametrize("theta", THETAS)
def test_noisy_p_distribution_is_bitwise_with_and_without_the_helper(monkeypatch, theta):
    # 5000 moment cells make moment chunks of 5000 // (2 J) rows, so every
    # cluster ends on a short chunk; the caller runs the expansion and
    # starts no thread, so its bits cannot depend on one: two calls give
    # the same bits
    monkeypatch.setattr(signatures, "_MOMENT_CELLS", 5000)
    ens = noisy_channel_ensemble(192)
    started = count_threads(monkeypatch)
    fields = [p_distribution(ens, P_AXIS, theta) for _ in range(2)]
    assert started == []
    assert np.array_equal(fields[0].values, fields[1].values)
    assert fields[0].meta == fields[1].meta


def noisy_preset_points():
    """Every point of the fig10 and fig11 presets with a thermal bath, at 4k
    samples and 100 jackknife blocks: (config, its protocol channel, the
    corrected ensemble sampled from it)."""
    from catmem.engine import protocol_channel
    from catmem.experiments import _corrected_ensemble, preset, sweep_points
    for name in ("fig10", "fig11"):
        for _, sub in sweep_points(preset(name)):
            if sub.n_bar > 0:
                sub = replace(sub, n_samples=4000, jackknife_blocks=100)
                channel = protocol_channel(sub.system_params(), sub.schedule())
                yield sub, channel, _corrected_ensemble(sub, channel)[1]


def test_banded_jackknife_matches_the_whole_grid():
    # the band of the run's channel leaves the field and the negativity
    # bitwise alone and the se within its last digits; past the lifetime
    # bound the band is the whole axis, so the se is bitwise that of the
    # whole grid too
    for cfg, (gain, noise_var), ens in noisy_preset_points():
        grid = default_wigner_grid(cfg.alpha0)
        band = negativity_band(cfg.alpha0, gain, noise_var)
        whole = negativity_with_error(ens, grid, n_blocks=100)
        banded = negativity_with_error(ens, grid, n_blocks=100, band=band)
        assert banded["negativity"] == whole["negativity"]
        assert np.array_equal(banded["field"].values, whole["field"].values)
        se = whole["jackknife_se"]
        assert abs(banded["jackknife_se"] - se) <= 1e-6 * se + 1e-15
        assert banded["negativity_outside_band"] <= 1e-15
        assert whole["negativity_outside_band"] == 0.0
        if q_channel(gain, noise_var) <= 0.0:
            assert math.isinf(band) and banded["jackknife_se"] == se


def test_too_narrow_band_shows_in_the_guard():
    # a zero-width band keeps the x = 0 column only, at fig10 t = 0.02/Gm,
    # where the negative volume reaches |x| = 0.88
    cfg, _, ens = next(noisy_preset_points())
    grid = default_wigner_grid(cfg.alpha0)
    out = negativity_with_error(ens, grid, n_blocks=100, band=0.0)
    assert 0.0 < out["negativity_outside_band"] < out["negativity"]
    with pytest.raises(ValueError, match="band"):
        negativity_with_error(ens, grid, n_blocks=100, band=-0.1)


def test_negativity_in_and_off_the_band_add_up():
    # the band's part, from np.trapezoid on the columns of the field, plus
    # the guard is the negativity to rounding, for bands from the x = 0
    # column alone to the whole axis
    cfg, (gain, noise_var), ens = next(noisy_preset_points())
    grid = default_wigner_grid(cfg.alpha0)
    (hx, hy), xs = (ax.step for ax in grid), grid[0].points()
    for band in (0.0, 0.5, negativity_band(cfg.alpha0, gain, noise_var), math.inf):
        out = negativity_with_error(ens, grid, n_blocks=100, band=band)
        columns = np.trapezoid(np.maximum(-out["field"].values, 0.0), dx=hy)
        in_band = float(np.trapezoid(np.where(np.abs(xs) <= band, columns, 0.0), dx=hx))
        assert in_band + out["negativity_outside_band"] == \
            pytest.approx(out["negativity"], rel=1e-13)
        assert math.copysign(1.0, out["negativity_outside_band"]) == 1.0
    assert out["negativity_outside_band"] == 0.0


@pytest.mark.parametrize("spread", [0.0, 1e-12, 1e-3, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0, 1.5])
def test_expansion_order_is_the_least_within_the_tail_bound(spread):
    # J is the least order whose Cramér tail k sum_{j >= J} (2 s)^j / sqrt(j!)
    # is at most 2^-60, the tail summed here term by term to j = 400
    def tail(order):
        if spread == 0.0:
            return 0.0
        return 1.0865 * math.fsum(math.exp(j * math.log(2.0 * spread) - 0.5 * math.lgamma(j + 1))
                                  for j in range(order, 400))

    order, bound = signatures._expansion_order(spread)
    assert tail(order) <= 2.0 ** -60
    assert order == 1 or tail(order - 1) > 2.0 ** -60
    assert bound == pytest.approx(tail(order), rel=1e-9, abs=0.0)
    assert (order == 1) == (spread == 0.0)


def test_expansion_is_within_its_pinned_bound_at_every_noisy_preset_point():
    # the full kernel sum against the direct real sum at every fig10 and
    # fig11 point with a thermal bath, n_bar = 4 at t = 0.3466/Gm included;
    # the a-priori bound is at most 2^-60 per axis of every cluster
    for cfg, _, ens in noisy_preset_points():
        xs, ys = (ax.points() for ax in default_wigner_grid(cfg.alpha0))
        re, _, rank, bound = signatures._kernel_sum(*kernel_columns(ens), ens.branch_rows, xs, ys)
        assert_within_expansion_bound(re, ens, xs, ys)
        assert 0.0 < bound <= 2.0 ** -60 * (2.0 + 2.0 ** -60)
        assert 0 < rank < len(ens)


def test_noiseless_expansion_takes_one_term_per_atom():
    # a 64-row noiseless ensemble is four clusters of equal rows: J = 1 and
    # nothing is truncated; the four rows of a preset's noiseless ensemble
    # are summed directly, one term each
    for n in (64, 4):
        field = wigner_estimate(input_ensemble(2.0, n), default_wigner_grid(2.0))
        assert (field.meta["kernel_rank"], field.meta["truncation_bound"]) == (4, 0.0)
        assert p_distribution(input_ensemble(2.0, n), default_quadrature_axis(2.0),
                              0.0).meta["truncation_bound"] == 0.0


def test_fig5_wigner_field_keeps_its_distinct_values():
    # the noiseless fig5 field is symmetric in x and in y: 181^2 = 32,761
    # distinct values on 361^2 cells, each one repr in wigner.csv
    from catmem.experiments import preset, run_point
    field = run_point(replace(preset("fig5"), signatures=("wigner",))).fields["wigner"]
    assert field.values.shape == (361, 361)
    assert abs(np.unique(field.values).size - 32_761) <= 0.01 * 32_761


def test_two_rates_take_one_column_pair_each(monkeypatch):
    # the -+ rows' rates scaled by 1.1, so every jackknife batch holds two
    # rates: the tables and the jackknife are bitwise the allocating
    # reference fed the same full sum, and no cos or sin runs on a per-cell
    # array
    ens = corrected_channel_ensemble(192)
    scaled = EnsembleResult(ens.c, ens.a, np.where(ens.branch == "-+", 1.1 * ens.b, ens.b),
                            ens.weight, ens.branch)
    rates = np.abs(scaled.b)
    assert np.unique(rates[rates > 0]).size == 2
    grid = wigner_axes(60)
    axis = grid[0].points()
    want = _alloc_kernel_tables(*kernel_columns(scaled), axis, axis)
    re = signatures._kernel_sum(*kernel_columns(scaled), scaled.branch_rows, axis, axis)[0]
    assert_within_expansion_bound(re, scaled, axis, axis)
    delta, se, _, values = _alloc_negativity_with_error(scaled, grid, 16, math.inf, re)
    ndims = []

    def spy(ufunc):
        def call(x, *args, **kwargs):
            ndims.append(np.ndim(x))
            return ufunc(x, *args, **kwargs)
        return call

    monkeypatch.setattr(np, "cos", spy(np.cos))
    monkeypatch.setattr(np, "sin", spy(np.sin))
    got = fresh_tables(scaled, axis)
    out = negativity_with_error(scaled, grid, n_blocks=16)
    monkeypatch.undo()
    assert ndims and max(ndims) == 1
    for table, ref_table in zip(got, want, strict=True):
        assert np.array_equal(table, ref_table)
    assert (out["negativity"], out["jackknife_se"]) == (delta, se)
    assert np.array_equal(out["field"].values, values)


def _output_bits(out) -> tuple:
    """Every output of negativity_with_error but its timings, floats as
    their bits."""
    bits = lambda x: x.hex() if isinstance(x, float) else x  # noqa: E731
    field = out["field"]
    return (tuple(bits(out[key]) for key in ("negativity", "jackknife_se",
                                             "negativity_outside_band", "n_blocks")),
            field.values.tobytes(), {key: bits(value) for key, value in field.meta.items()})


def test_jackknife_does_not_depend_on_the_batch_size(monkeypatch):
    # every table row takes its own branch's rate, and each
    # leave-one-out negativity is the x integral of its block's column
    # integrals, so the table and field cells, which set the batches (one
    # block each up to the whole ensemble), move no bit of any output.  On
    # the 192-row ensembles, 16 blocks, and their first 190 rows, whose
    # blocks are padded; and on a fig10 t = 0.02/Gm run of 4004 rows, 100
    # blocks of 40 or 41 rows; each with the run's band and the whole grid.
    # The -+ rows alone, 48 blocks of one row, make one-row batches at
    # 15 000 field cells, whose tables go through two-row products.
    from catmem.engine import protocol_channel
    from catmem.experiments import ExperimentConfig
    cfg = ExperimentConfig(alpha0=2.0, n_bar=2.0)
    band = negativity_band(2.0, *protocol_channel(cfg.system_params(), cfg.schedule()))
    cases = []
    for ens in (corrected_channel_ensemble(192), noisy_channel_ensemble(192)):
        for n in (192, 190):
            part = take(ens, np.arange(n))
            cases.append((part, wigner_axes(60), 16))
    ens = corrected_channel_ensemble(192)
    cases.append((take(ens, np.flatnonzero(ens.branch == "-+")), wigner_axes(60), 48))
    cases.append((corrected_channel_ensemble(4004), default_wigner_grid(2.0), 100))
    for ens, grid, n_blocks in cases:
        for edge in (band, math.inf):
            seen = set()
            for table_cells in (3000, 5000, 1 << 18):
                for field_cells in (15_000, 1 << 20, 1 << 26):
                    monkeypatch.setattr(signatures, "_TABLE_CELLS", table_cells)
                    monkeypatch.setattr(signatures, "_FIELD_CELLS", field_cells)
                    out = negativity_with_error(ens, grid, n_blocks=n_blocks, band=edge)
                    seen.add(repr(_output_bits(out)))
            assert len(seen) == 1


def test_wigner_field_is_scaled_in_place():
    # the field's values are the kernel sums' real part, scaled in place:
    # no second full-grid array
    ens = noisy_channel_ensemble(192)
    grid = wigner_axes(60)
    sums = signatures._kernel_sum(*kernel_columns(ens), ens.branch_rows,
                                  *(ax.points() for ax in grid))
    want = sums[0] * (2.0 / (math.pi * 192))
    field = signatures._wigner_field(sums, 192, grid)
    assert np.shares_memory(field.values, sums[0])
    assert np.array_equal(field.values, want)
