"""Cat-state signatures estimated from weighted trajectory ensembles.

Every estimator is a weighted mean of an analytically continued coherent
-state kernel over the doubled phase-space output amplitudes.  The kernels
are evaluated by completing the square, which makes each kernel separable
in the grid coordinates; the ensemble sums then reduce to chunked matrix
products.  The Wigner and quadrature estimators share one real factor
table (``_factor_table``): per sample a Gaussian times a phase whose rate
is the imaginary part of its mean, so samples with real means (the
diagonal branches) enter one real product only.  The phase factors come
from angle addition, so the trigonometry runs per row and per column, not
per cell.  The Wigner kernel multiplies the table in Im alpha by a real
Gaussian in Re alpha, so it needs every mu_x = (alpha_out +
alpha_out_plus)/2 real, as a real cat keeps it in the phase-corrected
frame of ``engine.run_ensemble``, and raises ValueError otherwise.  The
density kernel stays complex: its phase rate in a is the per-row noise, so
its rows share no column pair.  In the Wigner and jackknife passes, with
two or more usable CPUs and two or more chunks, one helper thread builds
the next chunk's (or jackknife batch's) tables, element-wise numpy work
only, while the calling thread runs the current one's matrix products;
the quadrature pass builds its tables on the caller.  Every BLAS call
stays on the caller and the chunks are added in the same order, so the
results have the same bits for any CPU count; no thread outlives the
call.  The delete-block jackknife forms the kernel sums of many blocks in
one batched product, on the band of Re alpha columns where the Wigner
function can be negative when given one (``oracle.negativity_band``), and
reports the full field's negative volume off that band as its guard.
Imaginary parts cancel over symmetric branches and are reported as
residual diagnostics, on every 4th node for the table kernels.  The
factors stay finite for |alpha0| up to ``experiments.ALPHA0_MAX``.  The
negativity's time-step error is ``experiments.run_point``'s, from the
closed-form channel negativity at dt and dt/2.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import time
from contextlib import closing
from dataclasses import replace

import numpy as np

from .model import BRANCHES, EnsembleResult, GridAxis, GridField

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
# Kernel tables: samples per chunk are sized so that one real factor
# table holds about _TABLE_CELLS values (2 MB), and a batch of jackknife
# block sums at most _FIELD_CELLS grid cells (fewer on a band of columns)
_TABLE_CELLS = 1 << 18
_FIELD_CELLS = 1 << 20


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


def _columns(results: EnsembleResult) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (u, v, w) = (alpha_out, alpha_out_plus, weight) columns."""
    if not isinstance(results, EnsembleResult):
        raise TypeError("results must be an EnsembleResult")
    return results.alpha_out, results.alpha_out_plus, results.weight


def p_distribution(results, axis: GridAxis, theta: float) -> GridField:
    """Weighted distribution of the quadrature at homodyne angle theta on
    the axis; integrates to one up to grid truncation for any
    mean-weight-one ensemble.

    A sample's kernel exp(-(p - sqrt(2) mu)^2), mu = (e^{-i theta} u +
    e^{i theta} v)/2, is exp(-2 (y - mu)^2) at y = p/sqrt(2): each chunk
    adds w @ its ``_factor_table``, whose rate Im mu = sin(theta) Im mu_y
    is one per branch.  The tables are built on the caller, into slot 0 of
    one workspace: the product per chunk is a vector, too small beside the
    table build for a helper thread to gain anything by overlapping them.
    """
    u, v, w = _columns(results)
    n = u.size
    if n == 0:
        raise ValueError("empty ensemble")
    ys = axis.points() / _SQRT2
    mu = math.cos(theta) * 0.5 * (u + v) + math.sin(theta) * 0.5j * (v - u)
    chunk = _table_rows(ys, ys)
    work = _Workspace(min(chunk, n), ys, ys)
    re, im = np.zeros(ys.size), np.zeros(ys[::4].size)
    for lo in range(0, n, chunk):
        table, phased, sine = _factor_table(mu[lo:lo + chunk], ys, work)
        re += w[lo:lo + chunk] @ table
        if phased.size:
            im += w[lo:lo + chunk][phased] @ sine
    scale = 1.0 / (n * math.sqrt(math.pi))
    values = re * scale
    return GridField(axes=(axis,), values=values,
                     meta={"kind": "quadrature_distribution", "theta": theta,
                           "norm": float(np.trapezoid(values, dx=axis.step)),
                           "max_imag_residual_4th_node": float(np.max(np.abs(im))) * scale})


class _Workspace:
    """Work buffers of a table kernel, allocated once per kernel-sum call.

    Each chunk of samples, or batch of jackknife blocks, of at most `rows`
    samples writes its factor tables into the leading rows of the same flat
    buffers, so a call allocates them once however many it takes; a buffer
    is allocated on first use.  The tables that the matrix products read,
    cx, cy and sy, come in two slots (names suffixed 0 and 1): the helper
    thread of ``_built`` fills one while the caller reads the other, and
    without a helper only slot 0 is used, as ``p_distribution`` always
    does.  Only the table builder writes the phase scratch "angle0" and
    "angle1".  So a call holds at most eight buffers.
    """

    def __init__(self, rows: int, xs: np.ndarray, ys: np.ndarray):
        self._cells = rows * max(xs.size, ys.size)
        self._flat: dict = {}

    def table(self, name: str, rows: int, cols: int) -> np.ndarray:
        """The C-contiguous (rows, cols) head of buffer `name`."""
        flat = self._flat.get(name)
        if flat is None:
            flat = self._flat[name] = np.empty(self._cells)
        return flat[:rows * cols].reshape(rows, cols)


def _kernel_tables(u, v, w, xs, ys, work: _Workspace, slot: int = 0, sine: bool = True):
    """Real factor tables of the Wigner kernel, one row per sample.

    With a real mu_x = (u + v)/2 = c and mu_y = i (v - u)/2, a sample's
    kernel is fx(x) fy(y) with fx = w exp(-2 (x - c)^2) and fy = exp(-2
    (y - mu_y)^2).  Returns (cx, cy, phased, sy): fx on every row, and fy's
    ``_factor_table`` (cy, phased, sy).  Summed over samples, the real part
    of the kernel is cx^T cy and the imaginary part on every 4th node
    cx[phased][:, ::4]^T sy.  Raises ValueError when any mu_x is not real.
    The tables are views into slot `slot` of `work` until its next use.
    """
    mu_x = 0.5 * (u + v)
    if np.any(mu_x.imag):
        raise ValueError("the Wigner kernel needs a real mu_x = (alpha_out + "
                         "alpha_out_plus)/2 on every row")
    cx = _gaussian_table(mu_x, xs, work.table(f"cx{slot}", u.size, xs.size))
    cx *= w[:, None]
    return (cx, *_factor_table(0.5j * (v - u), ys, work, slot, sine))


def _factor_table(mu, axis, work: _Workspace, slot: int = 0, sine: bool = True):
    """exp(-2 (y - mu)^2) = exp(-2 (y - a)^2 + 2 b^2) e^{4 i b (y - a)}, mu =
    a + i b, one row per sample and y the axis: (its real part, in buffer
    "cy{slot}" of `work`; the rows `phased` where b is nonzero; with `sine`
    its imaginary part on those rows and every 4th node, in "sy{slot}")."""
    table = _gaussian_table(mu, axis, work.table(f"cy{slot}", mu.size, axis.size))
    phased = np.flatnonzero(mu.imag)
    return table, phased, _rotate(table, phased, 4.0 * mu.imag[phased], axis,
                                  mu.real[phased], work, f"sy{slot}" if sine else None)


def _table_rows(xs, ys) -> int:
    return max(1, _TABLE_CELLS // max(xs.size, ys.size))


def _gaussian_table(mu: np.ndarray, axis: np.ndarray, out: np.ndarray) -> np.ndarray:
    """|exp(-2 (axis - mu)^2)| with one row per sample, computed in out."""
    np.subtract(axis[None, :], mu.real[:, None], out=out)
    np.multiply(out, out, out=out)
    if np.any(mu.imag):  # x - 0.0 is x: real means skip the pass
        out -= (mu.imag * mu.imag)[:, None]
    out *= -2.0
    np.exp(out, out=out)
    return out


# The phased rows of one table share one column pair when every |rate|
# lies within this relative distance of the least: four ulps of 1, where
# one branch's rates spread by one ulp at the fig10 and fig11 points
_RATE_TOL = 2.0 ** -50


def _angle_sum(first, second, f_row, s_row, work: _Workspace, shape) -> np.ndarray:
    """first * f_row - second * s_row in scratch buffer "angle0", for column
    tables first and second (one row, or one per row) and f_row, s_row one
    value per row."""
    out = np.multiply(first, f_row[:, None], out=work.table("angle0", *shape))
    out -= np.multiply(second, s_row[:, None], out=work.table("angle1", *shape))
    return out


def _rotate(table: np.ndarray, rows: np.ndarray, rate: np.ndarray, axis: np.ndarray,
            centre: np.ndarray, work: _Workspace, name: str | None) -> np.ndarray | None:
    """Multiply table[rows] by e^{i phase}, phase = rate (axis - centre) (one
    rate and centre per row): the cosine part in place and, given a buffer
    `name`, the sine part on every 4th node of axis returned in it.

    By angle addition with rho = |rate|, cos(phase) = cos(rho y) cos(rho a)
    + sin(rho y) sin(rho a) and sin(phase) = sign(rate) (sin(rho y)
    cos(rho a) - cos(rho y) sin(rho a)), y the axis and a the centre, so
    the trigonometry runs per row and per column, not per cell, when the
    rows share one rho.  They do when every rho lies within ``_RATE_TOL`` of
    the least, as one branch's rates do up to rounding: the least then
    serves every row, each row keeping its own cos(rho a) and sin(rho a).
    Otherwise each row takes its own rho and column pair.  The buffers
    "angle0" and "angle1" are scratch, free again on return.
    """
    if rows.size == 0:
        return None
    rho = np.abs(rate)
    if rho.max() <= rho.min() * (1.0 + _RATE_TOL):
        rho = rho.min()[None]
    angle = rho[:, None] * axis[None, :]
    cos_y, sin_y = np.cos(angle), np.sin(angle)
    angle = rho * centre
    cos_a, sin_a = np.cos(angle), np.sin(angle)
    sine = None
    if name is not None:  # before the cosine part overwrites the Gaussian
        sign = np.sign(rate)
        sine = np.take(table[:, ::4], rows, axis=0, mode="clip",
                       out=work.table(name, rows.size, axis[::4].size))
        sine *= _angle_sum(sin_y[:, ::4], cos_y[:, ::4], sign * cos_a, sign * sin_a, work,
                           sine.shape)
    shape = (rows.size, table.shape[1])
    cosine = _angle_sum(cos_y, -sin_y, cos_a, sin_a, work, shape)
    if rows[-1] - rows[0] + 1 == rows.size:  # a contiguous run of rows
        table[rows[0]:rows[-1] + 1] *= cosine
    else:
        cosine *= np.take(table, rows, axis=0, mode="clip", out=work.table("angle1", *shape))
        table[rows] = cosine
    return sine


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _built(builds: list):
    """Yield (slot, build(slot)) for each build in `builds`, in order.

    With two or more builds and two or more usable CPUs, one helper thread
    runs the builds, each into the slot the caller is not reading: build
    k + 1 runs while the caller works on the tables of build k, which stay
    valid until the caller asks for the next.  The helper does element-wise
    numpy work only, which releases the GIL, so it overlaps the caller's
    matrix products.  An exception in a build is raised to the caller when
    it asks for that build's tables.  With one build or one usable CPU,
    every build runs on the caller, into slot 0, when its tables are asked
    for.  Close the generator (``contextlib.closing``) so that the helper is
    joined however the caller's loop ends.
    """
    if len(builds) < 2 or _usable_cpus() < 2:
        for build in builds:
            yield 0, build(0)
        return
    # imported here, not at module level: the import takes milliseconds,
    # which runs that start no helper need not pay
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1, thread_name_prefix="catmem-kernel-tables") as helper:
        pending = helper.submit(builds[0], 0)
        for k in range(len(builds)):
            tables = pending.result()
            if k + 1 < len(builds):
                pending = helper.submit(builds[k + 1], (k + 1) % 2)
            yield k % 2, tables


def _chunk_builds(u, v, w, xs, ys, work: _Workspace) -> list:
    """One table build per chunk of `_table_rows` samples."""
    chunk = _table_rows(xs, ys)
    return [functools.partial(_kernel_tables, u[lo:lo + chunk], v[lo:lo + chunk],
                              w[lo:lo + chunk], xs, ys, work)
            for lo in range(0, u.size, chunk)]


def _sum_chunks(built, count: int, xs, ys, work: _Workspace):
    """Unnormalised kernel sum of the next `count` chunk tables of `built`:
    (real part, imaginary part), the chunks added in order.

    The Gaussian kernel factorises into complete squares along Re alpha and
    Im alpha, so the sum over samples is two real matrix products of the
    factor tables; rows whose means are real (the diagonal branches) enter
    only the one for the real part.  The imaginary part, a diagnostic that
    vanishes in expectation, is formed on every 4th node of both axes only:
    a chunk's phased rows of cx on every 4th column are gathered into its
    slot's cy buffer, free again once the real part is formed.  Every chunk
    shares one product buffer per part.
    """
    re = np.zeros((xs.size, ys.size))
    im = np.zeros((xs[::4].size, ys[::4].size))
    prod = np.empty(re.shape)
    prod4 = np.empty(im.shape)
    for slot, (cx, cy, phased, sy) in itertools.islice(built, count):
        re += np.matmul(cx.T, cy, out=prod)
        if phased.size:
            cx4 = np.take(cx[:, ::4], phased, axis=0, mode="clip",
                          out=work.table(f"cy{slot}", phased.size, im.shape[0]))
            im += np.matmul(cx4.T, sy, out=prod4)
    return re, im


def _wigner_sum(u, v, w, xs, ys):
    """Unnormalised kernel sum over the ensemble: (real part, imaginary part
    on every 4th node)."""
    work = _Workspace(min(_table_rows(xs, ys), u.size), xs, ys)
    chunks = _chunk_builds(u, v, w, xs, ys, work)
    with closing(_built(chunks)) as built:
        return _sum_chunks(built, len(chunks), xs, ys, work)


def _wigner_field(re: np.ndarray, im: np.ndarray, count: int,
                  grid: tuple[GridAxis, GridAxis]) -> GridField:
    """Normalised Wigner field on the axes grid of a kernel sum over `count`
    samples; its meta holds the largest |Im W| over every 4th node of both axes."""
    scale = 2.0 / (math.pi * count)
    values = re * scale
    ax_x, ax_y = grid
    return GridField(axes=grid, values=values,
                     meta={"kind": "wigner",
                           "norm": float(np.trapezoid(np.trapezoid(values, dx=ax_y.step),
                                                      dx=ax_x.step)),
                           "max_imag_residual_4th_node": float(np.max(np.abs(im))) * scale})


def wigner_estimate(results, grid: tuple[GridAxis, GridAxis]) -> GridField:
    """Weighted Wigner-function estimate on the (Re alpha, Im alpha) axes."""
    u, v, w = _columns(results)
    if u.size == 0:
        raise ValueError("empty ensemble")
    re, im = _wigner_sum(u, v, w, grid[0].points(), grid[1].points())
    return _wigner_field(re, im, u.size, grid)


def wigner_negativity(field: GridField) -> float:
    """Integrated negative volume: trapezoidal quadrature of max(-W, 0)."""
    if len(field.axes) != 2:
        raise ValueError("negativity needs a 2-D field")
    neg = np.maximum(-field.values, 0.0)
    return float(np.trapezoid(np.trapezoid(neg, dx=field.axes[1].step),
                              dx=field.axes[0].step))


def _trapezoid_weights(size: int, step: float) -> np.ndarray:
    weights = np.full(size, step)
    weights[[0, -1]] = 0.5 * step
    return weights


def _jackknife_blocks(branch: np.ndarray, n_blocks: int) -> tuple[np.ndarray, np.ndarray]:
    """Delete-block index matrix, one row per block, and the block sizes.

    Each branch's rows are split into n_blocks runs at ``np.linspace``
    edges, and block b takes run b of every branch, in ``BRANCHES`` order.
    Deleting a block then removes each branch in proportion to its rows, so
    for equal branches the mean weight of what is left stays one, for any
    sample count and row order.  n_blocks is cut to the smallest branch's
    row count, so that every block takes rows of every branch.  Shorter
    rows are padded with the index n, which the caller maps to a
    zero-weight sample.
    """
    members = [np.flatnonzero(branch == label) for label in BRANCHES]
    if sum(rows.size for rows in members) != branch.size:
        raise ValueError(f"branch labels must come from {BRANCHES}")
    members = [rows for rows in members if rows.size]
    n_blocks = min([n_blocks] + [rows.size for rows in members])
    if n_blocks < 2:
        raise ValueError("the jackknife needs at least two blocks, and a row of "
                         "every branch in each")
    edges = [np.linspace(0, rows.size, n_blocks + 1, dtype=int) for rows in members]
    runs = np.diff(edges, axis=1)  # (branch, block) run lengths
    offsets = np.cumsum(runs, axis=0) - runs  # where each run starts in its block
    sizes = runs.sum(axis=0)
    blocks = np.full((n_blocks, sizes.max()), branch.size)
    for rows, edge, run, offset in zip(members, edges, runs, offsets):
        block = np.repeat(np.arange(n_blocks), run)
        blocks[block, offset[block] + np.arange(rows.size) - edge[block]] = rows
    return blocks, sizes


def _batch_tables(u, v, w, xs, ys, work: _Workspace, rows: np.ndarray, slot: int):
    """Kernel cosine tables of a batch of blocks, block after block: the
    samples of the (blocks, size) index matrix rows, built into `slot` of
    `work`."""
    flat = rows.ravel()
    return _kernel_tables(u[flat], v[flat], w[flat], xs, ys, work, slot, sine=False)


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

    Two passes over the ensemble: the first accumulates the full kernel
    sum on the whole grid, which gives the field and the negativity; the
    second the real kernel sums of every block, in batches of blocks by one
    batched matrix product each.  A leave-one-block-out negativity is then
    the trapezoid-weighted sum of max(block - full, 0), scaled to the
    remaining sample count.  Both passes share the table buffers of one
    workspace, and every batch one block-sum buffer.  The tables of the
    chunks and then of the batches are built one task ahead on the helper
    thread of ``_built``, when one starts, so the first batch's tables are
    ready as the full pass ends.  "wigner_s" and "jackknife_s" hold the
    seconds from the call's start to the field and the negativity, and from
    there to its end.  The blocks are stratified by branch
    (``_jackknife_blocks``).

    With a band (``oracle.negativity_band``) the block sums, their
    max(block - full, 0) and their weights are formed only on the columns
    with |Re alpha| <= band, where the Wigner function can be negative;
    the default, inf, keeps the whole grid.  Off the band the
    leave-one-out fields are taken as positive, so
    "negativity_outside_band" reports the full field's negative volume on
    the other columns: a band too narrow for the ensemble shows there.
    """
    start = time.perf_counter()
    u, v, w = _columns(results)
    n = u.size
    if n == 0:
        raise ValueError("empty ensemble")
    rows, sizes = _jackknife_blocks(results.branch, n_blocks)
    n_blocks = rows.shape[0]
    ax_x, ax_y = grid
    xs, ys = ax_x.points(), ax_y.points()
    cols = _band_columns(xs, band)
    xs_band = xs[cols]
    chunk = _table_rows(xs, ys)
    batch = min(n_blocks, max(1, min(_FIELD_CELLS // (xs.size * ys.size),
                                     chunk // rows.shape[1])))
    work = _Workspace(max(min(chunk, n), batch * rows.shape[1]), xs, ys)

    # index n is the zero-weight padding sample of short blocks
    u_pad, v_pad = np.append(u, 0.0), np.append(v, 0.0)
    w_pad = np.append(w, 0.0)
    chunks = _chunk_builds(u, v, w, xs, ys, work)
    batches = [functools.partial(_batch_tables, u_pad, v_pad, w_pad, xs_band, ys, work,
                                 rows[lo:lo + batch])
               for lo in range(0, n_blocks, batch)]
    weights = np.outer(_trapezoid_weights(xs.size, ax_x.step)[cols],
                       _trapezoid_weights(ys.size, ax_y.step)).ravel()
    block_sums = np.empty((batch, xs_band.size, ys.size))
    loo = np.empty(n_blocks)
    with closing(_built(chunks + batches)) as built:
        re, im = _sum_chunks(built, len(chunks), xs, ys, work)
        field = _wigner_field(re, im, n, grid)
        delta = wigner_negativity(field)
        outside = np.trapezoid(np.maximum(-field.values, 0.0), dx=ax_y.step)
        outside[cols] = 0.0
        full_done = time.perf_counter()

        for lo, (_, (cx, cy, _, _)) in zip(range(0, n_blocks, batch), built):
            sums = _block_sums(cx, cy, min(batch, n_blocks - lo), block_sums)
            sums -= re[cols]
            np.maximum(sums, 0.0, out=sums)
            loo[lo:lo + batch] = sums.reshape(sums.shape[0], -1) @ weights
    loo *= 2.0 / (math.pi * (n - sizes))
    se = math.sqrt((n_blocks - 1) / n_blocks * float(np.sum((loo - np.mean(loo)) ** 2)))
    return {"negativity": delta, "jackknife_se": se, "n_blocks": n_blocks,
            "negativity_outside_band": float(np.trapezoid(outside, dx=ax_x.step)),
            "field": field,
            "wigner_s": full_done - start, "jackknife_s": time.perf_counter() - full_done}


def reconstruct_density(results, axis: GridAxis) -> GridField:
    """Modulus of coherent-basis matrix elements |<a|rho|b>| for real a and
    b on the points of axis.

    The sample constant is split evenly between the two grid factors to
    keep both exponents moderate for large cats.
    """
    u, v, w = _columns(results)
    n = u.size
    if n == 0:
        raise ValueError("empty ensemble")
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
    u, v, w = _columns(results)
    n = u.size
    if n == 0:
        raise ValueError("empty ensemble")
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

