"""Cat-state signatures estimated from weighted trajectory ensembles.

Every estimator is a weighted mean of an analytically continued coherent
-state kernel over the doubled phase-space output amplitudes.  The Wigner
kernel of a sample is exp(-2 (x - c)^2) exp(-2 (y - mu)^2), with the real
centre c = mu_x and mu = mu_y = a + i b, the columns an ``EnsembleResult``
holds: a real Gaussian in x, and in y a Gaussian of height e^{2 b^2} times
the phase e^{4 i b (y - a)}.  The rate b is one exact value per branch.
The quadrature kernel is the y factor alone, at y = p/sqrt(2) and mu =
cos(theta) mu_x + sin(theta) mu_y.

The full kernel sums (``wigner_estimate``, the first pass of
``negativity_with_error`` and ``p_distribution``) are Hermite expansions:
the fast Gauss transform of Greengard and Strain (SIAM J. Sci. Stat.
Comput. 12, 79 (1991)).  Each branch's rows, which share its rate b, are
cut into clusters that span less than ``_CLUSTER_SPAN`` per axis.  About
a cluster's centre, exp(-2 (u - delta)^2) = sum_j phi_j(u) delta^j with
phi_0 = e^{-2 u^2} and phi_{j+1} = 4 (u phi_j - phi_{j-1})/(j + 1), so a
cluster enters through its moments sum w e^{2 b^2} e^{-4 i b delta_y}
delta_x^j delta_y^l, accumulated over row chunks, and through the tables
phi_j on the grid.  Cramer's inequality bounds |phi_j(u) delta^j| by
k (2 |delta|)^j / sqrt(j!), k = 1.0865, and each axis of a cluster takes
the least order J whose tail from J is at most 2^-60 of the cluster's
kernel mass sum |w| e^{2 b^2} (``_expansion_order``).  A cluster of equal
rows, as in a noiseless ensemble, takes J = 1; ensembles of at most
``_DIRECT_ROWS`` rows are summed directly.  Every branch is at least one
cluster, and at fig10's small storage times exactly one.  All clusters
are summed in one real matrix product, whose rank K (the clusters' x
orders added up) and largest relative truncation bound the Wigner
field's meta records as "kernel_rank" and "truncation_bound".

The delete-block jackknife stays direct.  At fig10's points, 24k rows or
200k rows in 1000 blocks, a block holds 24 or 200 rows, about as many as
the expansion's rank K (170 to 192) or fewer, so its moments and the
product of every cluster it falls in would cost no less than its own
tables.  fig11's 100 blocks of 2,000 rows at 200k are where per-block
moments would pay (ROADMAP item 11).  The jackknife forms the kernel sums
of many blocks in one batched product of real factor tables, on the band
of Re alpha columns where the Wigner function can be negative when given
one (``oracle.negativity_band``), and reports the full field's negative
volume off that band as its guard.  One builder, ``_kernel_tables``,
gathers a batch's rows of the ensemble's centre columns, the ones the
expansion reads, and writes the batch's tables into the leading rows of
one table slot, allocated once per call at the largest batch.  Each
exponent is one matrix product of a rank-3 row factor with a per-call
axis factor, then one exp; the phase factor is a rank-2 product by angle
addition, against one column pair per rate formed once per call, so the
trigonometry runs per row and per column, not per cell.  A row's phase
rate is its own |4 b|, and a one-row product goes through two rows, so
a row's tables do not depend on the batch it falls in.  Every estimator
runs on the calling thread, and the batches are taken in order.
The density kernel stays direct and complex, on the amplitudes (u, v) =
(c - b + i a, c + b - i a) (``EnsembleResult.amplitudes``): its phase
rate in a is Im u, the per-row noise, so its rows share no rate.
Imaginary parts cancel over symmetric branches and are reported as
residual diagnostics, on every 4th node for the expansions.  The factors
stay finite for |alpha0| up to ``experiments.ALPHA0_MAX``.  The
negativity's time-step error is ``experiments.run_point``'s, from the
closed-form channel negativity at dt and dt/2.

Every field integral is one quadrature, the trapezoid rule as contractions
with the per-axis weights of ``GridAxis.trapezoid_weights``: the Wigner and
quadrature norms, the negativity and its off-band guard, and the
leave-one-out negativities of the jackknife.  A 2-D integral takes the
column integrals first, over Im alpha for each Re alpha
(``GridAxis.integrate``, ``model.negative_columns`` for max(-W, 0)), and
then the Re alpha integral of that column vector.  Each column's integral
is one einsum reduction over that column alone, so a band of columns has
the bits of the same columns of the whole grid, and
``oracle.channel_negativity``, which tabulates its band only, those of
``wigner_negativity`` of the whole closed-form field.  The jackknife
takes each block's column integrals on its band the same way, then
contracts them with the band's slice of the Re alpha weights, so a
leave-one-out negativity depends on its block alone: no jackknife number
depends on the batch sizes that ``_TABLE_CELLS`` and ``_FIELD_CELLS`` set.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np

from .model import EnsembleResult, GridAxis, GridField, negative_columns

__all__ = [
    "default_quadrature_axis",
    "default_wigner_grid",
    "default_density_axis",
    "p_distribution",
    "wigner_estimate",
    "wigner_negativity",
    "negativity_with_error",
    "reconstruct_density",
    "quadrature_moments",
    "is_mixture_falsified",
    "fringe_visibility",
]

_SQRT2 = math.sqrt(2.0)
# Direct kernel tables: samples per chunk are sized so that one real factor
# table holds about _TABLE_CELLS values (2 MB), and a batch of jackknife
# block sums at most _FIELD_CELLS grid cells (fewer on a band of columns).
# Neither moves a jackknife number, only its speed and memory.  A chunk of
# expansion moments holds about _MOMENT_CELLS powers; the chunks set the
# order of the moments' sums, so this one sets the field's last bits.
_TABLE_CELLS = 1 << 18
_FIELD_CELLS = 1 << 20
_MOMENT_CELLS = 1 << 18
# Expansion clusters span less than this per axis: every |delta| < 1
_CLUSTER_SPAN = 2.0
# Ensembles of at most this many rows, such as a noiseless cat's four
# branch points, are summed directly: a few rows' own terms cost less than
# clustering them
_DIRECT_ROWS = 4
# Cramer's constant, |H_n(t)| <= k 2^{n/2} sqrt(n!) e^{t^2/2}, and the
# truncation bound of each axis of a cluster, relative to its kernel mass
_CRAMER_K = 1.0865
_TRUNCATION = 2.0 ** -60


def _symmetric_axis(extent: float, step: float, tag: str) -> GridAxis:
    n = math.ceil(extent / step)
    return GridAxis(step * -n, step * n, step, tag)


def default_quadrature_axis(alpha0: float) -> GridAxis:
    """Step 0.01, reaching past both hills: at least sqrt(2)|alpha0| + 5,
    never under 12."""
    return _symmetric_axis(max(12.0, _SQRT2 * abs(alpha0) + 5.0), 0.01, "x_theta_quadrature")


def default_wigner_grid(alpha0: float) -> tuple[GridAxis, GridAxis]:
    """The (Re alpha, Im alpha) axes: step 0.05, reaching |alpha0| + 4."""
    extent = abs(alpha0) + 4.0
    return _symmetric_axis(extent, 0.05, "re_alpha"), _symmetric_axis(extent, 0.05, "im_alpha")


def default_density_axis(alpha0: float) -> GridAxis:
    """Step 0.1, reaching |alpha0| + 2."""
    return _symmetric_axis(abs(alpha0) + 2.0, 0.1, "coherent_a")


def _rows(results: EnsembleResult) -> int:
    """The ensemble's row count; TypeError for another type, ValueError when
    it is empty."""
    if not isinstance(results, EnsembleResult):
        raise TypeError("results must be an EnsembleResult")
    if len(results) == 0:
        raise ValueError("empty ensemble")
    return len(results)


def _expansion_order(spread: float) -> tuple[int, float]:
    """(J, T_J) for a cluster whose rows lie within `spread` of its centre
    on one axis: the least J >= 1 with T_J = k sum_{j >= J} (2 spread)^j /
    sqrt(j!) <= ``_TRUNCATION``, Cramer's bound on the terms an expansion of
    order J leaves out, relative to the cluster's kernel mass.

    The terms are summed until each is at most half the one before and
    below 2^-113; the last one bounds the rest."""
    ratio = 2.0 * spread
    terms = [1.0]
    while len(terms) <= 4.0 * ratio * ratio or terms[-1] > 2.0 ** -113:
        terms.append(terms[-1] * ratio / math.sqrt(len(terms)))
    tail = terms[-1]
    best = len(terms), _CRAMER_K * tail
    for order in range(len(terms) - 1, 0, -1):
        tail += terms[order]
        if _CRAMER_K * tail > _TRUNCATION:
            break
        best = order, _CRAMER_K * tail
    return best


def _hermite_table(u: np.ndarray, order: int) -> np.ndarray:
    """phi_j(u) for j < order, one row each: phi_0 = e^{-2 u^2}, phi_1 = 4 u
    phi_0 and phi_{j+1} = 4 (u phi_j - phi_{j-1})/(j + 1), so that
    exp(-2 (u - delta)^2) = sum_j phi_j(u) delta^j."""
    table = np.empty((order, u.size))
    np.exp(-2.0 * u * u, out=table[0])
    if order > 1:
        np.multiply(table[0], 4.0 * u, out=table[1])
    for j in range(1, order - 1):
        row = np.multiply(u, table[j], out=table[j + 1])
        row -= table[j - 1]
        row *= 4.0 / (j + 1)
    return table


def _cover(rows: np.ndarray, values: np.ndarray) -> list:
    """rows cut into runs of increasing value, each spanning less than
    ``_CLUSTER_SPAN``: every run starts at the least value not yet taken.
    Rows that span less already are one run, in their order."""
    if np.ptp(values[rows]) < _CLUSTER_SPAN:  # one run, without a sort
        return [rows]
    rows = rows[np.argsort(values[rows], kind="stable")]
    ordered = values[rows]
    runs, i = [], 0
    while i < rows.size:
        end = max(i + 1, int(np.searchsorted(ordered, ordered[i] + _CLUSTER_SPAN)))
        runs.append(rows[i:end])
        i = end
    return runs


def _clusters(c: np.ndarray, a: np.ndarray, b: np.ndarray, branch_rows) -> list:
    """The expansion's clusters, (rows, rate): the rows of each branch, which
    share its one rate b, cut along c into runs of ``_cover`` and each run
    along a."""
    return [(cell, float(b[rows[0]])) for rows in branch_rows if rows.size
            for run in _cover(rows, c) for cell in _cover(run, a)]


def _centred(values: np.ndarray) -> tuple[float, np.ndarray, float]:
    """(centre, values - centre, largest |values - centre|), the centre
    midway between the least and the largest value."""
    lo, hi = values.min(), values.max()
    centre = 0.5 * (lo + hi)
    return centre, values - centre, float(max(hi - centre, centre - lo))


def _moments(dx: np.ndarray, dy: np.ndarray, mass: np.ndarray, phase, orders: tuple):
    """A cluster's moments sum mass e^{-i phase} dx^j dy^l, j < Jx and l < Jy
    for orders (Jx, Jy), accumulated over chunks of rows: (real part,
    imaginary part), the latter None when phase is None (a zero phase).
    Each chunk, of about _MOMENT_CELLS values, forms the powers as running
    products, those of dx from the weights mass cos(phase) and -mass
    sin(phase)."""
    parts = 1 if phase is None else 2
    total = np.zeros((orders[0] * parts, orders[1]))
    step = max(1, _MOMENT_CELLS // (parts * max(orders)))
    for lo in range(0, mass.size, step):
        sl = slice(lo, lo + step)
        lead = np.empty((orders[0], parts, mass[sl].size))
        if phase is None:
            lead[0, 0] = mass[sl]
        else:
            np.multiply(mass[sl], np.cos(phase[sl]), out=lead[0, 0])
            np.multiply(mass[sl], -np.sin(phase[sl]), out=lead[0, 1])
        for j in range(1, orders[0]):
            np.multiply(lead[j - 1], dx[sl], out=lead[j])
        powers = np.empty((orders[1], lead.shape[2]))
        powers[0] = 1.0
        for j in range(1, orders[1]):
            np.multiply(powers[j - 1], dy[sl], out=powers[j])
        total += lead.reshape(-1, lead.shape[2]) @ powers.T
    return total[0::parts], (total[1::parts] if parts == 2 else None)


def _kernel_sum(c, a, b, w, branch_rows, xs: np.ndarray, ys: np.ndarray):
    """Sum over rows of w exp(-2 (x - c)^2) exp(-2 (y - a - i b)^2) on the
    grid xs x ys, for real columns c, a and b, b one value on the rows of
    each entry of branch_rows: (real part, imaginary part on every 4th node
    of both axes, rank K, truncation bound).

    A cluster (``_clusters``) of rate r and centre (x0, y0) has, with u =
    x - x0, v = y - y0 and its ``_moments`` M = Mr + i Mi of mass w e^{2
    b^2} and phase 4 r delta_y, the kernel sum phi(u)^T M phi(v) e^{4 i r
    v}.  So it adds its Jx rows phi(u) to the x factor of one real matrix
    product, and Mr (phi(v) cos 4rv) - Mi (phi(v) sin 4rv) to its y factor;
    K counts those rows.  As |exp(-2 (u - delta)^2)| <= 1, a cluster
    whose axes leave out Tx and Ty (``_expansion_order``) is within Tx + (1
    + Tx) Ty of its kernel mass sum |w| e^{2 b^2}; the bound returned is
    the largest over the clusters.  Up to ``_DIRECT_ROWS`` rows are summed
    directly instead, each row its own term: rank n, bound 0.
    """
    mass = w * np.exp(2.0 * b * b)
    if c.size <= _DIRECT_ROWS:
        fx = np.exp(-2.0 * (xs - c[:, None]) ** 2)
        dy = ys - a[:, None]
        fy = mass[:, None] * np.exp(-2.0 * dy * dy)
        phase = 4.0 * b[:, None] * dy
        return (fx.T @ (fy * np.cos(phase)), fx[:, ::4].T @ (fy * np.sin(phase))[:, ::4],
                c.size, 0.0)
    x_rows, y_rows, x_im, y_im = [], [], [], []
    bound = 0.0
    for rows, rate in _clusters(c, a, b, branch_rows):
        x0, dx, spread_x = _centred(c[rows])
        y0, dy, spread_y = _centred(a[rows])
        (jx, tx), (jy, ty) = _expansion_order(spread_x), _expansion_order(spread_y)
        bound = max(bound, tx + (1.0 + tx) * ty)
        phi_x, phi_y = _hermite_table(xs - x0, jx), _hermite_table(ys - y0, jy)
        m_re, m_im = _moments(dx, dy, mass[rows], 4.0 * rate * dy if rate else None, (jx, jy))
        x_rows.append(phi_x)
        if not rate:
            y_rows.append(m_re @ phi_y)
            continue
        phase = 4.0 * rate * (ys - y0)
        cos_y, sin_y = phi_y * np.cos(phase), phi_y * np.sin(phase)
        y_rows.append(m_re @ cos_y - m_im @ sin_y)
        x_im.append(phi_x[:, ::4])
        y_im.append(m_re @ sin_y[:, ::4] + m_im @ cos_y[:, ::4])
    x_factor = np.vstack(x_rows)
    re = x_factor.T @ np.vstack(y_rows)
    im = (np.vstack(x_im).T @ np.vstack(y_im) if x_im
          else np.zeros((xs[::4].size, ys[::4].size)))
    return re, im, x_factor.shape[0], bound


def p_distribution(results, axis: GridAxis, theta: float) -> GridField:
    """Weighted distribution of the quadrature at homodyne angle theta on
    the axis; integrates to one up to grid truncation for any
    mean-weight-one ensemble.

    A sample's kernel exp(-(p - sqrt(2) mu)^2), mu = (e^{-i theta} u +
    e^{i theta} v)/2, is exp(-2 (y - mu)^2) at y = p/sqrt(2): the y factor
    of ``_kernel_sum``, taken on a one-point x axis where every c is 0: Re mu
    = cos(theta) c + sin(theta) a, and the rate Im mu = sin(theta) b is one
    per branch.  The meta holds the expansion's "truncation_bound".
    """
    n = _rows(results)
    ys = axis.points() / _SQRT2
    cos, sin = math.cos(theta), math.sin(theta)
    re, im, _, bound = _kernel_sum(np.zeros(n), cos * results.c + sin * results.a,
                                   sin * results.b, results.weight, results.branch_rows,
                                   np.zeros(1), ys)
    scale = 1.0 / (n * math.sqrt(math.pi))
    values = re[0] * scale
    return GridField(axes=(axis,), values=values,
                     meta={"kind": "quadrature_distribution", "theta": theta,
                           "norm": float(axis.integrate(values)),
                           "max_imag_residual_4th_node": float(np.max(np.abs(im))) * scale,
                           "truncation_bound": bound})


def _product_rows(left: np.ndarray, right: np.ndarray, out=None) -> np.ndarray:
    """left @ right, in the leading rows of `out` when given, each row with
    the bits it has in a product of many rows: numpy's matmul takes a
    matrix-vector path for a one-row left factor, which rounds otherwise,
    so one row goes through a product of two (`out` holds at least two)."""
    m = left.shape[0]
    if m == 1:
        left = np.repeat(left, 2, axis=0)
    return np.matmul(left, right, out=None if out is None else out[:left.shape[0]])[:m]


def _table_factors(results: EnsembleResult, xs, ys) -> tuple:
    """The right factors of ``_kernel_tables``, formed once per call:
    [x; 1; -2 x^2] and [y; 1; -2 y^2], and a pair (rho, [cos rho y; sin rho
    y]) for each distinct nonzero phase rate rho = |4 b| of the ensemble's
    branches."""
    def powers(u):
        return np.stack([u, np.ones_like(u), -2.0 * u * u])

    rates = sorted({4.0 * abs(float(results.b[rows[0]]))
                    for rows in results.branch_rows if rows.size} - {0.0})
    return powers(xs), powers(ys), [(r, np.stack([np.cos(r * ys), np.sin(r * ys)]))
                                    for r in rates]


def _kernel_tables(results: EnsembleResult, rows: np.ndarray, factors: tuple,
                   out: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Real factor tables of the Wigner kernel for the direct block sums,
    one row per entry of the index vector `rows` into the ensemble's
    columns; the index n, which pads short blocks (``_jackknife_blocks``),
    takes the last sample at weight 0.

    A sample's kernel has the real part fx(x) fy(y), with fx = w exp(-2 (x
    - c)^2) and fy = exp(-2 (y - a)^2 + 2 b^2) cos(rho (y - a)), rho = |4
    b|.  Returns (cx, cy), fx and fy on every row, so that the sum over
    samples of the real part is cx^T cy: the leading rows of the (cx, cy)
    table slot `out`, valid until its next use.  Each exponent is one
    matrix product of a rank-3 left factor with the call's axis factors
    (``_table_factors``), then one exp: -2 (x - c)^2 = [4 c, -2 c^2, 1] .
    [x; 1; -2 x^2] and -2 ((y - a)^2 - b^2) = [4 a, 2 (b^2 - a^2), 1] . [y;
    1; -2 y^2].  The cosine is a rank-2 product by angle addition,
    cos(rho (y - a)) = [cos rho a, sin rho a] . [cos rho y; sin rho y],
    so the trigonometry runs per row and per column, not per cell.  A
    row's tables depend on that row alone, whichever rows come with it
    (``_product_rows``).
    """
    x_powers, y_powers, phases = factors
    c, a, b, weight = (column.take(rows, mode="clip")
                       for column in (results.c, results.a, results.b, results.weight))
    weight[rows == len(results)] = 0.0
    ones = np.ones(rows.size)
    cx = _product_rows(np.stack([4.0 * c, -2.0 * (c * c), ones], axis=1), x_powers, out[0])
    np.exp(cx, out=cx)
    cx *= weight[:, None]
    cy = _product_rows(np.stack([4.0 * a, 2.0 * (b * b - a * a), ones], axis=1), y_powers,
                       out[1])
    np.exp(cy, out=cy)
    rate = 4.0 * np.abs(b)
    for r, table in phases:
        part = np.flatnonzero(rate == r)
        if not part.size:
            continue
        angle = r * a[part]
        cosine = _product_rows(np.stack([np.cos(angle), np.sin(angle)], axis=1), table)
        if part[-1] - part[0] + 1 == part.size:  # a contiguous run of rows
            cy[part[0]:part[-1] + 1] *= cosine
        else:
            cosine *= cy[part]
            cy[part] = cosine
    return cx, cy


def _table_rows(xs, ys) -> int:
    return max(1, _TABLE_CELLS // max(xs.size, ys.size))


def _wigner_field(sums: tuple, count: int, grid: tuple[GridAxis, GridAxis]) -> GridField:
    """Normalised Wigner field on the axes grid of a ``_kernel_sum`` over
    `count` samples, scaled in place: its values are the sums' real part.
    Its meta holds the largest |Im W| over every 4th node of both axes and
    the expansion's rank and truncation bound."""
    re, im, rank, bound = sums
    scale = 2.0 / (math.pi * count)
    values = np.multiply(re, scale, out=re)
    ax_x, ax_y = grid
    return GridField(axes=grid, values=values,
                     meta={"kind": "wigner",
                           "norm": float(ax_x.integrate(ax_y.integrate(values))),
                           "max_imag_residual_4th_node": float(np.max(np.abs(im))) * scale,
                           "kernel_rank": rank, "truncation_bound": bound})


def wigner_estimate(results, grid: tuple[GridAxis, GridAxis]) -> GridField:
    """Weighted Wigner-function estimate on the (Re alpha, Im alpha) axes."""
    n = _rows(results)
    return _wigner_field(_kernel_sum(results.c, results.a, results.b, results.weight,
                                     results.branch_rows, grid[0].points(), grid[1].points()),
                         n, grid)


def wigner_negativity(field: GridField) -> float:
    """Integrated negative volume: trapezoidal quadrature of max(-W, 0),
    the column integrals (``model.negative_columns``) first."""
    if len(field.axes) != 2:
        raise ValueError("negativity needs a 2-D field")
    ax_x, ax_y = field.axes
    return float(ax_x.integrate(negative_columns(field.values, ax_y)))


def _jackknife_blocks(branch_rows, n_blocks: int) -> tuple[np.ndarray, np.ndarray]:
    """Delete-block index matrix, one row per block, and the block sizes.

    Each branch's rows (``EnsembleResult.branch_rows``) are split into
    n_blocks runs at ``np.linspace`` edges, and block b takes run b of
    every branch, in ``BRANCHES`` order.
    Deleting a block then removes each branch in proportion to its rows, so
    for equal branches the mean weight of what is left stays one, for any
    sample count and row order.  n_blocks is cut to the smallest branch's
    row count, so that every block takes rows of every branch.  Shorter
    rows are padded with the index n, which ``_kernel_tables`` takes as a
    zero-weight sample.
    """
    n = sum(rows.size for rows in branch_rows)
    members = [rows for rows in branch_rows if rows.size]
    n_blocks = min([n_blocks] + [rows.size for rows in members])
    if n_blocks < 2:
        raise ValueError("the jackknife needs at least two blocks, and a row of "
                         "every branch in each")
    edges = [np.linspace(0, rows.size, n_blocks + 1, dtype=int) for rows in members]
    runs = np.diff(edges, axis=1)  # (branch, block) run lengths
    offsets = np.cumsum(runs, axis=0) - runs  # where each run starts in its block
    sizes = runs.sum(axis=0)
    blocks = np.full((n_blocks, sizes.max()), n)
    for rows, edge, run, offset in zip(members, edges, runs, offsets):
        block = np.repeat(np.arange(n_blocks), run)
        blocks[block, offset[block] + np.arange(rows.size) - edge[block]] = rows
    return blocks, sizes


def _block_sums(cx: np.ndarray, cy: np.ndarray, blocks: int, out: np.ndarray) -> np.ndarray:
    """Real kernel sums of a batch of blocks from its tables, shape
    (blocks, x, y), in the leading blocks of `out`: one batched matrix
    product over the blocks replaces a kernel sum per block."""
    size = cx.shape[0] // blocks
    return np.matmul(cx.reshape(blocks, size, cx.shape[1]).transpose(0, 2, 1),
                     cy.reshape(blocks, size, cy.shape[1]), out=out[:blocks])


def _band_columns(xs: np.ndarray, band: float) -> slice:
    """The slice of the monotone axis xs with |x| <= band."""
    if not band >= 0:
        raise ValueError(f"band must be a non-negative half-width, got {band!r}")
    inside = np.flatnonzero(np.abs(xs) <= band)
    return slice(int(inside[0]), int(inside[-1]) + 1) if inside.size else slice(0, 0)


def negativity_with_error(results, grid: tuple[GridAxis, GridAxis], n_blocks: int = 100,
                          band: float = math.inf) -> dict:
    """Negativity plus delete-block jackknife standard error.

    Two passes over the ensemble: the first is the full kernel sum on the
    whole grid, a Hermite expansion (``_kernel_sum``), which gives the field
    and the negativity; the second the direct real kernel sums of every
    block, in batches of blocks by one batched matrix product each.  The
    negativity and "negativity_outside_band" are x integrals of one set of
    column integrals of the field (``model.negative_columns``).  A
    leave-one-block-out negativity is the trapezoid rule's integral of
    max(block - full, 0), its column integrals first, scaled to the
    remaining sample count.  Both passes read the ensemble's centre
    columns, each branch with its one rate, so the results do not depend
    on the batch sizes.  Each batch's tables (``_kernel_tables``) go into
    one table slot and its sums into one block-sum buffer, on the calling
    thread, batch after batch.  "wigner_s" and "jackknife_s" hold the
    seconds from the call's start to the field and the negativity, and
    from there to its end.  The blocks are stratified by branch
    (``_jackknife_blocks``).

    With a band (``oracle.negativity_band``) the block sums, their
    max(block - full, 0) and their integrals are formed only on the columns
    with |Re alpha| <= band, where the Wigner function can be negative;
    the default, inf, keeps the whole grid.  Off the band the
    leave-one-out fields are taken as positive, so
    "negativity_outside_band" reports the full field's negative volume on
    the other columns: a band too narrow for the ensemble shows there.
    """
    start = time.perf_counter()
    n = _rows(results)
    rows, sizes = _jackknife_blocks(results.branch_rows, n_blocks)
    n_blocks = rows.shape[0]
    ax_x, ax_y = grid
    xs, ys = ax_x.points(), ax_y.points()
    cols = _band_columns(xs, band)
    xs_band = xs[cols]
    sums = _kernel_sum(results.c, results.a, results.b, results.weight,
                       results.branch_rows, xs, ys)
    full = sums[0][cols].copy()  # the field is scaled in place
    field = _wigner_field(sums, n, grid)
    columns = negative_columns(field.values, ax_y)
    delta = float(ax_x.integrate(columns))
    columns[cols] = 0.0
    outside = float(ax_x.integrate(columns))
    full_done = time.perf_counter()

    batch = min(n_blocks, max(1, min(_FIELD_CELLS // (xs.size * ys.size),
                                     _table_rows(xs, ys) // rows.shape[1])))
    size = max(2, batch * rows.shape[1])  # _product_rows takes two rows at least
    slot = np.empty((size, xs_band.size)), np.empty((size, ys.size))
    factors = _table_factors(results, xs_band, ys)

    wx = ax_x.trapezoid_weights()[cols]
    block_sums = np.empty((batch, xs_band.size, ys.size))
    loo = np.empty(n_blocks)
    for lo in range(0, n_blocks, batch):
        cx, cy = _kernel_tables(results, rows[lo:lo + batch].ravel(), factors, slot)
        block = _block_sums(cx, cy, min(batch, n_blocks - lo), block_sums)
        block -= full
        np.maximum(block, 0.0, out=block)
        loo[lo:lo + batch] = np.einsum("bi,i->b", ax_y.integrate(block), wx)
    loo *= 2.0 / (math.pi * (n - sizes))
    se = math.sqrt((n_blocks - 1) / n_blocks * float(np.sum((loo - np.mean(loo)) ** 2)))
    return {"negativity": delta, "jackknife_se": se, "n_blocks": n_blocks,
            "negativity_outside_band": outside,
            "field": field,
            "wigner_s": full_done - start, "jackknife_s": time.perf_counter() - full_done}


def reconstruct_density(results, axis: GridAxis) -> GridField:
    """Modulus of coherent-basis matrix elements |<a|rho|b>| for real a and
    b on the points of axis.

    The sample constant is split evenly between the two grid factors to
    keep both exponents moderate for large cats.
    """
    n = _rows(results)
    u, v = results.amplitudes()
    w = results.weight
    a = b = axis.points()
    total = np.zeros((a.size, b.size), dtype=np.complex128)
    chunk = _table_rows(a, b)
    for lo in range(0, n, chunk):
        sl = slice(lo, lo + chunk)
        half_const = -0.5 * u[sl] * v[sl]
        fa = np.exp(-0.5 * a[None, :] ** 2 + a[None, :] * u[sl, None]
                    + half_const[:, None]) * w[sl, None]
        fb = np.exp(-0.5 * b[None, :] ** 2 + b[None, :] * v[sl, None]
                    + half_const[:, None])
        total += fa.T @ fb
    total /= n
    axes = (replace(axis, tag="coherent_a"), replace(axis, tag="coherent_b"))
    return GridField(axes=axes, values=np.abs(total),
                     meta={"kind": "density_modulus",
                           "max_imag_residual": float(np.max(np.abs(np.imag(total))))})


def quadrature_moments(results) -> dict:
    """Weighted first and second moments of the doubled output amplitudes,
    and the p variance they give.

    The p mean and second moment are real up to branch-cancelling residuals,
    which stay in "p_mean" and "p_sq"; "p_variance" is formed from their
    real parts.  "mean_weight" sums the weights exactly (``math.fsum``), so
    a stratified ensemble reads exactly one (``sampling.branch_weights``).
    """
    n = _rows(results)
    u, v = results.amplitudes()
    w = results.weight
    mean = lambda arr: complex(np.sum(w * arr) / n)  # noqa: E731
    m_a = mean(u)
    m_ap = mean(v)
    m_aa = mean(u * u)
    m_apap = mean(v * v)
    m_apa = mean(v * u)
    p_mean = (m_a - m_ap) / (1j * _SQRT2)
    p_sq = -0.5 * (m_aa + m_apap - 2.0 * m_apa - 1.0)
    return {"a": m_a, "a_plus": m_ap, "a_sq": m_aa, "a_plus_sq": m_apap,
            "adag_a": m_apa, "p_mean": p_mean, "p_sq": p_sq,
            "p_variance": float(p_sq.real - p_mean.real ** 2),
            "mean_weight": math.fsum(w) / n}


def is_mixture_falsified(variance: float) -> bool:
    """True iff the variance beats the coherent-mixture floor of 1/2."""
    if variance < 0:
        raise ValueError("variance must be non-negative")
    return variance < 0.5


def fringe_visibility(field: GridField, alpha_bar: float) -> float:
    """Contrast of the interference fringes near p = 0.

    Divides out the Gaussian envelope exp(-p^2) (exact for a lossless-width
    retrieved cat), then returns the peak-to-trough contrast between p = 0
    and the first fringe trough at pi/(2 sqrt(2) alpha_bar).  Equals the
    off-diagonal coherence coefficient for an ideal decohered cat.
    """
    if len(field.axes) != 1:
        raise ValueError("need a 1-D quadrature field")
    ax = field.axes[0]
    xs = ax.points()
    trough = math.pi / (2.0 * _SQRT2 * abs(alpha_bar))
    peak_idx = int(np.argmin(np.abs(xs)))
    trough_idx = int(np.argmin(np.abs(xs - trough)))
    top = field.values[peak_idx] / math.exp(-xs[peak_idx] ** 2)
    bottom = field.values[trough_idx] / math.exp(-xs[trough_idx] ** 2)
    return float((top - bottom) / (top + bottom))

