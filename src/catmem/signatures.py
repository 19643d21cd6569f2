"""Cat-state signatures estimated from weighted trajectory ensembles.

Every estimator is a weighted mean of an analytically continued coherent
-state kernel over the doubled phase-space output amplitudes.  The kernels
are evaluated by completing the square, which makes each kernel separable
in the grid coordinates; the ensemble sums then reduce to chunked matrix
products.  The Wigner kernel is evaluated in real arithmetic: per sample a
real Gaussian factor in Re alpha times a Gaussian factor with a phase in
Im alpha, so samples whose means are real (the diagonal branches) enter
one real product only.  It needs every mu_x = (alpha_out + alpha_out_plus)/2
real, as a real cat keeps it on every row in the phase-corrected frame of
``engine.run_ensemble``, and raises ValueError otherwise.  Each kernel-sum
call allocates its factor tables and products once and reuses them for every
chunk.  The delete-block jackknife forms the kernel sums of many blocks in
one batched product.  Imaginary parts cancel over symmetric branches and
are reported as residual diagnostics rather than silently dropped.  The
factors stay finite for |alpha0| up to ``experiments.ALPHA0_MAX``, where
the cat overlap is still a normal double.  The negativity's time-step
error is not estimated here: ``experiments.run_point`` takes it from the
closed-form channel negativity at dt and dt/2, so no ensemble is summed twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import EnsembleResult, GridAxis, GridField

__all__ = [
    "QuadratureGrid",
    "WignerGrid",
    "default_quadrature_grid",
    "default_wigner_grid",
    "default_density_axis",
    "p_distribution",
    "wigner_estimate",
    "wigner_negativity",
    "negativity_with_error",
    "reconstruct_density",
    "quadrature_moments",
    "p_variance",
    "is_mixture_falsified",
    "fringe_visibility",
]

_SQRT2 = math.sqrt(2.0)
_CHUNK = 16384  # samples per evaluation chunk, keeps temporaries cache-sized
# Wigner kernel tables: samples per chunk are sized so that one factor
# table holds about _TABLE_CELLS values (2 MB), and a batch of jackknife
# block sums about _FIELD_CELLS grid cells
_TABLE_CELLS = 1 << 18
_FIELD_CELLS = 1 << 20


@dataclass(frozen=True)
class QuadratureGrid:
    """Homodyne angle plus a uniform 1-D grid of quadrature values."""

    theta: float
    points: np.ndarray

    def __post_init__(self):
        if self.points.ndim != 1 or self.points.size < 2:
            raise ValueError("need a 1-D grid with at least two points")
        steps = np.diff(self.points)
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
            raise ValueError("grid must be uniform")

    @property
    def step(self) -> float:
        return float(self.points[1] - self.points[0])


@dataclass(frozen=True)
class WignerGrid:
    """Uniform grid over (Re alpha, Im alpha) with spacing h <= 0.05."""

    x: np.ndarray
    y: np.ndarray
    h: float

    def __post_init__(self):
        if self.h > 0.05 + 1e-12:
            raise ValueError("Wigner grid spacing must not exceed 0.05")
        for axis in (self.x, self.y):
            if axis.ndim != 1 or axis.size < 2:
                raise ValueError("axes must be 1-D with at least two points")
            if not np.allclose(np.diff(axis), self.h, rtol=1e-9, atol=1e-12):
                raise ValueError("axes must be uniform with spacing h")


def _symmetric_axis(extent: float, step: float) -> np.ndarray:
    if not step > 0:
        raise ValueError(f"grid step must be positive, got {step!r}")
    n = math.ceil(extent / step)
    return step * np.arange(-n, n + 1)


def default_quadrature_grid(alpha0: float, theta: float, step: float = 0.01) -> QuadratureGrid:
    """Grid reaching past both hills: at least sqrt(2)|alpha0| + 5, never under 12."""
    extent = max(12.0, _SQRT2 * abs(alpha0) + 5.0)
    return QuadratureGrid(theta=theta, points=_symmetric_axis(extent, step))


def default_wigner_grid(alpha0: float, h: float = 0.05, pad: float = 4.0) -> WignerGrid:
    extent = abs(alpha0) + pad
    return WignerGrid(x=_symmetric_axis(extent, h), y=_symmetric_axis(extent, h), h=h)


def default_density_axis(alpha0: float, step: float = 0.1) -> np.ndarray:
    return _symmetric_axis(abs(alpha0) + 2.0, step)


def _columns(results: EnsembleResult) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (u, v, w) = (alpha_out, alpha_out_plus, weight) columns."""
    if not isinstance(results, EnsembleResult):
        raise TypeError("results must be an EnsembleResult")
    return results.alpha_out, results.alpha_out_plus, results.weight


def p_distribution(results, grid: QuadratureGrid) -> GridField:
    """Weighted quadrature distribution on the grid.

    Integrates to one up to grid truncation for any mean-weight-one
    ensemble.
    """
    u, v, w = _columns(results)
    n = u.size
    if n == 0:
        raise ValueError("empty ensemble")
    xs = grid.points
    shift = (np.exp(-1j * grid.theta) * u + np.exp(1j * grid.theta) * v) / _SQRT2
    total = np.zeros(xs.size, dtype=np.complex128)
    for lo in range(0, n, _CHUNK):
        sl = slice(lo, min(lo + _CHUNK, n))
        kern = np.exp(-((xs[None, :] - shift[sl, None]) ** 2))
        total += w[sl] @ kern
    total /= n * math.sqrt(math.pi)
    values = np.real(total)
    axis = GridAxis(start=float(xs[0]), stop=float(xs[-1]), step=grid.step,
                    tag="x_theta_quadrature")
    norm = float(np.trapezoid(values, dx=grid.step))
    return GridField(axes=(axis,), values=values,
                     meta={"kind": "quadrature_distribution", "theta": grid.theta,
                           "norm": norm,
                           "max_imag_residual": float(np.max(np.abs(np.imag(total))))})


class _Workspace:
    """Work buffers of the Wigner kernel, allocated once per kernel-sum call.

    Each chunk of at most `rows` samples writes its factor tables into the
    leading rows of the same flat buffers, so a call allocates them once
    however many chunks it takes.  A buffer is allocated on first use.
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


def _kernel_tables(u, v, w, xs, ys, work: _Workspace | None = None):
    """Real factor tables of the Wigner kernel, one row per sample.

    With a real mu_x = (u + v)/2 = c and mu_y = i (v - u)/2 = a + i b, a
    sample's kernel is fx(x) fy(y) with fx = w exp(-2 (x - c)^2) and
    fy = exp(-2 (y - a)^2 + 2 b^2) e^{4 i b (y - a)}.  Returns
    (cx, cy, phased, sy): fx and the real part cy of fy on every row; the
    indices `phased` of the rows where b is nonzero; and the imaginary part
    sy of fy on those rows only.  Summed over samples, the real part of the
    kernel is cx^T cy and the imaginary part cx[phased]^T sy.  Raises
    ValueError when any mu_x is not real.  The tables are views into `work`
    (a fresh one when None), valid until its next use.
    """
    n = u.size
    mu_x = 0.5 * (u + v)
    if np.any(mu_x.imag):
        raise ValueError("the Wigner kernel needs a real mu_x = (alpha_out + "
                         "alpha_out_plus)/2 on every row")
    if work is None:
        work = _Workspace(n, xs, ys)
    mu_y = 0.5j * (v - u)
    _, cx = _gaussian_table(mu_x, xs, work.table("dev_x", n, xs.size),
                                work.table("cx", n, xs.size))
    cx *= w[:, None]
    dev_y, cy = _gaussian_table(mu_y, ys, work.table("dev_y", n, ys.size),
                                work.table("cy", n, ys.size))
    b = mu_y.imag
    phased = np.flatnonzero(b)
    sy = _rotate(cy, phased, 4.0 * b[phased], dev_y, work, "sy")
    return cx, cy, phased, sy


def _table_rows(xs, ys) -> int:
    return max(1, _TABLE_CELLS // max(xs.size, ys.size))


def _gaussian_table(mu: np.ndarray, axis: np.ndarray, dev: np.ndarray,
                    mag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(axis - Re mu, |exp(-2 (axis - mu)^2)|) with one row per sample,
    written into dev and mag."""
    np.subtract(axis[None, :], mu.real[:, None], out=dev)
    np.multiply(dev, dev, out=mag)
    mag -= (mu.imag * mu.imag)[:, None]
    mag *= -2.0
    np.exp(mag, out=mag)
    return dev, mag


def _rotate(table: np.ndarray, rows: np.ndarray, rate: np.ndarray, dev: np.ndarray,
            work: _Workspace, name: str) -> np.ndarray:
    """Multiply table[rows] by e^{i phase}, phase = rate dev[rows] (one rate
    per row): the cosine part in place, the sine part returned in buffer
    `name`.

    Both come from t = tan(phase/2) as cos = (1 - t^2)/(1 + t^2) and
    sin = 2t/(1 + t^2), within an ulp of np.cos and np.sin; one np.tan
    costs a fraction of those two calls.  The buffers "tan", "tan_sq" and
    "ratio" are scratch, free again on return.
    """
    shape = (rows.size, table.shape[1])
    t = work.table("tan", *shape)
    np.take(dev, rows, axis=0, out=t, mode="clip")
    t *= rate[:, None]
    t *= 0.5
    np.tan(t, out=t)
    t_sq = np.multiply(t, t, out=work.table("tan_sq", *shape))
    scale = np.take(table, rows, axis=0, out=work.table(name, *shape), mode="clip")
    ratio = np.add(t_sq, 1.0, out=work.table("ratio", *shape))
    scale /= ratio
    np.subtract(1.0, t_sq, out=ratio)
    ratio *= scale
    table[rows] = ratio
    t *= 2.0
    scale *= t
    return scale


def _wigner_sum(u, v, w, xs, ys, work: _Workspace | None = None):
    """Unnormalised kernel sum over the ensemble: (real part, imaginary part).

    The Gaussian kernel factorises into complete squares along Re alpha and
    Im alpha, so the sum over samples is two real matrix products of the
    factor tables; rows whose means are real (the diagonal branches) enter
    only the one for the real part.  Every chunk reuses the tables of `work`
    (one is allocated when None) and one product buffer.
    """
    re = np.zeros((xs.size, ys.size))
    im = np.zeros((xs.size, ys.size))
    prod = np.empty((xs.size, ys.size))
    chunk = _table_rows(xs, ys)
    if work is None:
        work = _Workspace(min(chunk, u.size), xs, ys)
    for lo in range(0, u.size, chunk):
        sl = slice(lo, lo + chunk)
        cx, cy, phased, sy = _kernel_tables(u[sl], v[sl], w[sl], xs, ys, work)
        re += np.matmul(cx.T, cy, out=prod)
        if phased.size:
            # the rotation scratch is free again: gather the phased rows there
            cx_p = np.take(cx, phased, axis=0, mode="clip",
                           out=work.table("ratio", phased.size, xs.size))
            im += np.matmul(cx_p.T, sy, out=prod)
    return re, im


def _wigner_field(re: np.ndarray, im: np.ndarray, count: int, grid: WignerGrid) -> GridField:
    """Normalised Wigner field of a kernel sum over `count` samples."""
    scale = 2.0 / (math.pi * count)
    values = re * scale
    axes = (GridAxis(float(grid.x[0]), float(grid.x[-1]), grid.h, "re_alpha"),
            GridAxis(float(grid.y[0]), float(grid.y[-1]), grid.h, "im_alpha"))
    return GridField(axes=axes, values=values,
                     meta={"kind": "wigner", "h": grid.h,
                           "norm": float(np.trapezoid(np.trapezoid(values, dx=grid.h), dx=grid.h)),
                           "max_imag_residual": float(np.max(np.abs(im))) * scale})


def wigner_estimate(results, grid: WignerGrid) -> GridField:
    """Weighted Wigner-function estimate on the phase-space grid."""
    u, v, w = _columns(results)
    if u.size == 0:
        raise ValueError("empty ensemble")
    re, im = _wigner_sum(u, v, w, grid.x, grid.y)
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


def _jackknife_blocks(n: int, branch: np.ndarray, n_blocks: int) -> tuple[np.ndarray, np.ndarray]:
    """Delete-block index matrix, one row per block, and the block sizes.

    Stratified ensembles come branch-major (four equal contiguous runs); a
    block then takes matching sub-slices of each run so that deleting it
    keeps the mean weight at one.  Other layouts fall back to contiguous
    blocks whose sizes differ by at most one; the shorter rows are padded
    with the index n, which the caller maps to a zero-weight sample.
    """
    quarter = n // 4
    branch_major = (n % 4 == 0 and quarter > 0
                    and all(np.all(branch[q * quarter:(q + 1) * quarter]
                                   == branch[q * quarter]) for q in range(4)))
    if branch_major and quarter % n_blocks == 0:
        per = quarter // n_blocks
        rows = (quarter * np.arange(4)[None, :, None]
                + per * np.arange(n_blocks)[:, None, None]
                + np.arange(per)[None, None, :]).reshape(n_blocks, 4 * per)
        return rows, np.full(n_blocks, 4 * per)
    edges = np.linspace(0, n, n_blocks + 1, dtype=int)
    sizes = np.diff(edges)
    rows = edges[:-1, None] + np.arange(sizes.max())[None, :]
    rows[rows >= edges[1:, None]] = n
    return rows, sizes


def _block_sums(u, v, w, xs, ys, rows: np.ndarray, work: _Workspace,
                out: np.ndarray) -> np.ndarray:
    """Real kernel sums of a batch of blocks, shape (blocks, x, y).

    rows is the (blocks, size) index matrix; one batched matrix product
    over the blocks replaces a kernel sum per block.  The tables live in
    `work` and the sums in the leading blocks of `out`.
    """
    n_b, size = rows.shape
    flat = rows.ravel()
    cx, cy, _, _ = _kernel_tables(u[flat], v[flat], w[flat], xs, ys, work)
    return np.matmul(cx.reshape(n_b, size, -1).transpose(0, 2, 1),
                     cy.reshape(n_b, size, -1), out=out[:n_b])


def negativity_with_error(results, grid: WignerGrid, n_blocks: int = 100) -> dict:
    """Negativity plus delete-block jackknife standard error.

    Two passes over the ensemble: the first accumulates the full kernel
    sum, the second the real kernel sums of every block, in batches of
    blocks by one batched matrix product each.  A leave-one-block-out
    negativity is then the trapezoid-weighted sum of max(block - full, 0),
    scaled to the remaining sample count.  Both passes share one set of
    table buffers, and every batch one block-sum buffer.
    """
    u, v, w = _columns(results)
    n = u.size
    if n == 0:
        raise ValueError("empty ensemble")
    n_blocks = min(n_blocks, n)
    if n_blocks < 2:
        raise ValueError("the jackknife needs at least two blocks")
    rows, sizes = _jackknife_blocks(n, results.branch, n_blocks)
    xs, ys = grid.x, grid.y
    chunk = _table_rows(xs, ys)
    batch = min(n_blocks, max(1, min(_FIELD_CELLS // (xs.size * ys.size),
                                     chunk // rows.shape[1])))
    work = _Workspace(max(min(chunk, n), batch * rows.shape[1]), xs, ys)

    re, im = _wigner_sum(u, v, w, xs, ys, work=work)
    field = _wigner_field(re, im, n, grid)
    delta = wigner_negativity(field)

    # index n is the zero-weight padding sample of short blocks
    u_pad, v_pad = np.append(u, 0.0), np.append(v, 0.0)
    w_pad = np.append(w, 0.0)
    weights = np.outer(_trapezoid_weights(xs.size, grid.h),
                       _trapezoid_weights(ys.size, grid.h)).ravel()
    block_sums = np.empty((batch, xs.size, ys.size))
    loo = np.empty(n_blocks)
    for lo in range(0, n_blocks, batch):
        sums = _block_sums(u_pad, v_pad, w_pad, xs, ys, rows[lo:lo + batch], work,
                           block_sums)
        sums -= re
        np.maximum(sums, 0.0, out=sums)
        loo[lo:lo + batch] = sums.reshape(sums.shape[0], -1) @ weights
    loo *= 2.0 / (math.pi * (n - sizes))
    se = math.sqrt((n_blocks - 1) / n_blocks * float(np.sum((loo - np.mean(loo)) ** 2)))
    return {"negativity": delta, "jackknife_se": se, "n_blocks": n_blocks,
            "field": field, "max_imag_residual": field.meta["max_imag_residual"]}


def reconstruct_density(results, a_grid: np.ndarray, b_grid: np.ndarray) -> GridField:
    """Modulus of coherent-basis matrix elements |<a|rho|b>| on real grids.

    The sample constant is split evenly between the two grid factors to
    keep both exponents moderate for large cats.
    """
    u, v, w = _columns(results)
    n = u.size
    if n == 0:
        raise ValueError("empty ensemble")
    a = np.asarray(a_grid, dtype=float)
    b = np.asarray(b_grid, dtype=float)
    total = np.zeros((a.size, b.size), dtype=np.complex128)
    for lo in range(0, n, _CHUNK):
        sl = slice(lo, min(lo + _CHUNK, n))
        half_const = -0.5 * u[sl] * v[sl]
        fa = np.exp(-0.5 * a[None, :] ** 2 + a[None, :] * u[sl, None]
                    + half_const[:, None]) * w[sl, None]
        fb = np.exp(-0.5 * b[None, :] ** 2 + b[None, :] * v[sl, None]
                    + half_const[:, None])
        total += fa.T @ fb
    total /= n
    step_a = float(a[1] - a[0])
    step_b = float(b[1] - b[0])
    axes = (GridAxis(float(a[0]), float(a[-1]), step_a, "coherent_a"),
            GridAxis(float(b[0]), float(b[-1]), step_b, "coherent_b"))
    return GridField(axes=axes, values=np.abs(total),
                     meta={"kind": "density_modulus",
                           "max_imag_residual": float(np.max(np.abs(np.imag(total))))})


def quadrature_moments(results) -> dict:
    """Weighted first and second moments of the doubled output amplitudes,
    and the p variance they give.

    The p mean and second moment are real up to branch-cancelling residuals,
    which stay in "p_mean" and "p_sq"; "p_variance" is formed from their
    real parts.
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
            "mean_weight": float(np.sum(w) / n)}


def p_variance(results) -> float:
    """Variance of the p quadrature: the "p_variance" of quadrature_moments."""
    return quadrature_moments(results)["p_variance"]


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

