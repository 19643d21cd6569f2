"""Core types and parameter containers for the cat-state memory simulator.

All rates are dimensionless: time is measured in units of the inverse total
optical damping rate, so gamma_o = 1 by construction.  The optomechanical
system is an optical cavity mode coupled to a mechanical mode through a
switchable beam-splitter interaction; the input field carries an even cat
state of one real amplitude alpha0 in a single exponential-sinh temporal
mode.
"""

from __future__ import annotations

import hashlib
import os
from contextlib import contextmanager
from dataclasses import KW_ONLY, dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

__all__ = [
    "SystemParams",
    "DerivedRates",
    "ProtocolSchedule",
    "EnsembleResult",
    "GridAxis",
    "GridField",
    "derive_rates",
    "negative_columns",
    "open_atomic",
    "parse_storage_time",
]

@dataclass(frozen=True)
class SystemParams:
    """Dimensionless system rates.

    gamma_o, the total optical damping, is gamma_ext + gamma_int.
    n_th_mech is the mechanical bath occupation driving the Langevin noise;
    n_init_mech is the occupation of the initial mechanical thermal state,
    which may differ (a pre-cooled oscillator in a warm bath).
    """

    gamma_ext: float
    gamma_int: float = 0.0
    _: KW_ONLY
    gamma_m: float
    g_eff: float
    n_th_mech: float = 0.0
    n_init_mech: float = 0.0

    def __post_init__(self):
        if self.gamma_ext < 0 or self.gamma_int < 0:
            raise ValueError("damping channel rates must be non-negative")
        if not 0 <= self.gamma_m < self.gamma_o:
            raise ValueError("gamma_m must satisfy 0 <= gamma_m < gamma_o")
        if self.g_eff < 0:
            raise ValueError("g_eff must be non-negative")
        if self.n_th_mech < 0 or self.n_init_mech < 0:
            raise ValueError("thermal occupations must be non-negative")

    @property
    def gamma_o(self) -> float:
        return self.gamma_ext + self.gamma_int


@dataclass(frozen=True)
class DerivedRates:
    """Rates derived from the damping asymmetry and the coupling.

    m_rate is sqrt(gamma_minus^2 - g_eff^2) on the principal branch: it is
    real non-negative for weak coupling and purely imaginary with positive
    imaginary part in the oscillatory strong-coupling regime.  gamma_bar is
    the slow retrieval rate gamma_plus - m_rate; only its real part sets the
    pulse duration when m_rate is imaginary.
    """

    gamma_plus: float
    gamma_minus: float
    m_rate: complex
    gamma_bar: complex


def derive_rates(params: SystemParams) -> DerivedRates:
    """Combine damping rates and coupling into the mode-function rates."""
    gp = 0.5 * (params.gamma_o + params.gamma_m)
    gm = 0.5 * (params.gamma_o - params.gamma_m)
    m = np.sqrt(complex(gm * gm - params.g_eff * params.g_eff))
    # principal branch: non-negative real part, and non-negative imaginary
    # part when purely imaginary; numpy's sqrt already lands there for the
    # real inputs produced above, the assert guards against regressions
    assert m.real >= 0 and (m.real > 0 or m.imag >= 0)
    return DerivedRates(gamma_plus=gp, gamma_minus=gm, m_rate=complex(m),
                        gamma_bar=complex(gp - m))


@dataclass(frozen=True)
class ProtocolSchedule:
    """Write/store/read timing on a uniform integration grid.

    The write window is [-t_write, 0], storage (0, t_store), and the read
    window [t_store, t_store + t_write] mirrors the write window.  Both
    durations are integer multiples of dt; use ``make`` to snap requested
    durations onto the grid.
    """

    t_write: float
    t_store: float
    dt: float

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.dt > 0.5:
            # Shannon-style guard in units of 1/gamma_o
            raise ValueError("dt must not exceed 1/(2 gamma_o)")
        if self.t_write <= 0 or self.t_store < 0:
            raise ValueError("window durations must be positive (storage may be zero)")
        for name in ("t_write", "t_store"):
            value = getattr(self, name)
            steps = value / self.dt
            if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
                raise ValueError(f"{name} must be an integer multiple of dt")

    @classmethod
    def make(cls, t_write: float, t_store: float, dt: float) -> "ProtocolSchedule":
        """Snap durations to the grid; the read window mirrors the write."""
        n_w = max(1, round(t_write / dt))
        n_s = max(0, round(t_store / dt))
        return cls(t_write=n_w * dt, t_store=n_s * dt, dt=dt)

    @property
    def n_write(self) -> int:
        return round(self.t_write / self.dt)

    @property
    def n_store(self) -> int:
        return round(self.t_store / self.dt)

    @property
    def n_read(self) -> int:
        return self.n_write


# branch labels, in stratified sampling order
BRANCHES = ("++", "--", "+-", "-+")


@dataclass
class EnsembleResult:
    """Weighted trajectory ensemble as columns, one row per trajectory.

    A row is held by the real centres of its Wigner kernel: c = mu_x and
    mu_y = a + i b, with mu_x = (alpha + alpha+)/2 and mu_y = i (alpha+ -
    alpha)/2 of its doubled amplitudes, so that mu_x is real by
    construction.  b is the row's rate, one value per branch; weight and
    branch (labels from BRANCHES) complete the row.  ``sampling.sample_cat``
    returns the input ensemble in this layout, the ensemble before any
    evolution, and ``engine.run_ensemble`` the retrieved one.  ValueError
    when the columns differ in length, c, a or b is complex, a label is not
    in BRANCHES, or a branch's rows carry two rates.  branch_rows holds
    each label's row indices, in BRANCHES order.
    """

    c: np.ndarray
    a: np.ndarray
    b: np.ndarray
    weight: np.ndarray
    branch: np.ndarray

    def __post_init__(self):
        if not self.c.shape == self.a.shape == self.b.shape == self.weight.shape \
                == self.branch.shape:
            raise ValueError("the ensemble's columns must have one length")
        if "c" in (self.c.dtype.kind, self.a.dtype.kind, self.b.dtype.kind):
            raise ValueError("the centre columns c, a and b must be real")
        masks = self.branch == np.array(BRANCHES)[:, None]
        if np.count_nonzero(masks) != self.branch.size:
            raise ValueError(f"branch labels must come from {BRANCHES}")
        if self.b.size:
            # every row against the rate of its label's first row
            stray = masks & (self.b != self.b[masks.argmax(axis=1)][:, None])
            if np.count_nonzero(stray):
                label = BRANCHES[stray.any(axis=1).argmax()]
                raise ValueError(f"the {label} rows carry more than one rate b")

    @cached_property
    def branch_rows(self) -> tuple:
        """Each label's row indices, in BRANCHES order."""
        return tuple(np.flatnonzero(self.branch == label) for label in BRANCHES)

    def __len__(self) -> int:
        return self.c.size

    def amplitudes(self) -> tuple[np.ndarray, np.ndarray]:
        """The doubled amplitudes (alpha, alpha+) = (c - b + i a, c + b - i a)."""
        u = np.empty(self.c.size, dtype=np.complex128)
        u.real, u.imag = self.c - self.b, self.a
        v = np.empty_like(u)
        v.real, v.imag = self.c + self.b, -self.a
        return u, v


@dataclass(frozen=True)
class GridAxis:
    """Uniform axis of gridded fields: the points step * k for the integers
    k from start / step to stop / step; both ends must lie on the step's
    lattice, to rounding.  Fields are evaluated at these points and their
    CSVs list them, under the tag (e.g. "re_alpha"), which is not quoted."""

    start: float
    stop: float
    step: float
    tag: str

    def __post_init__(self):
        self.points()  # raises ValueError unless the ends lie on the lattice

    def points(self) -> np.ndarray:
        if self.step > 0:
            ends = [end / self.step for end in (self.start, self.stop)]
            if ends[0] <= ends[1] and all(
                    np.isfinite(k) and abs(k - round(k)) <= 1e-9 * max(1.0, abs(k)) for k in ends):
                return self.step * np.arange(round(ends[0]), round(ends[1]) + 1)
        raise ValueError(f"axis ends {self.start!r}, {self.stop!r} are not in order on the "
                         f"lattice of step {self.step!r}")

    @property
    def size(self) -> int:
        # the number of lattice points from end to end, which __post_init__
        # checked; points() need not be built
        return round(self.stop / self.step) - round(self.start / self.step) + 1

    def trapezoid_weights(self) -> np.ndarray:
        """The trapezoid rule's weight of each point: step, and step/2 at
        both ends; the one point of an axis with start == stop spans no
        interval and weighs 0."""
        weights = np.full(self.size, self.step)
        weights[[0, -1]] = 0.5 * self.step if self.size > 1 else 0.0
        return weights

    def integrate(self, values: np.ndarray) -> np.ndarray:
        """The trapezoid rule on this axis along the last axis of values: one
        contraction with ``trapezoid_weights``, which forms no temporary of
        the size of values.  Each row's integral is one einsum reduction
        over that row alone, so it has the same bits whichever rows, and
        however many, come with it; a BLAS matrix-vector product does not
        promise that."""
        return np.einsum("...j,j->...", values, self.trapezoid_weights())


def negative_columns(values: np.ndarray, axis: GridAxis) -> np.ndarray:
    """The integral of max(-values, 0) on `axis`, the last axis of the 2-D
    values, for each row: +0.0 on a row with no negative value.

    Only the run of rows from the first to the last with a negative (or
    nan) value is passed over again, as 0.0 - ``axis.integrate``(min(values,
    0)).  That is the integral of max(-values, 0) to the bit, since negation
    is exact, and 0.0 - 0.0 keeps a row without negative volume at +0.0.
    Each row's integral depends on that row alone (``GridAxis.integrate``),
    so a caller that passes only the rows where values can be negative gets
    the bits of the whole field's rows."""
    columns = np.zeros(values.shape[0])
    rows = np.flatnonzero(~(values.min(axis=1) >= 0.0))
    if rows.size:
        run = slice(int(rows[0]), int(rows[-1]) + 1)
        columns[run] = 0.0 - axis.integrate(np.minimum(values[run], 0.0))
    return columns


def _distinct_texts(values) -> tuple[np.ndarray, np.ndarray]:
    """repr of every distinct value as a float, and the int32 index of each
    value's text among them, in C order.

    Fields are symmetric, so each distinct value is formatted once.  Values
    are told apart by bit pattern: -0.0 equals 0.0 but has its own repr.
    The sort's temporaries are freed before the texts are formatted.
    """
    bits = np.asarray(values, dtype=float).ravel().view(np.uint64)
    order = np.argsort(bits)
    ordered = bits[order]
    new = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    distinct = ordered[new]
    inverse = np.empty(bits.size, dtype=np.int32)
    inverse[order] = np.cumsum(new, dtype=np.int32) - 1
    del order, ordered, new
    texts = np.array([repr(v) for v in distinct.view(np.float64).tolist()], dtype=object)
    return texts, inverse


@contextmanager
def open_atomic(path):
    """Open a temporary file beside path for binary writing and rename it
    over path when the block ends; if the block raises, remove it instead.
    An interrupted write never leaves a partial file at path."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with tmp.open("wb") as fh:
            yield fh
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


@dataclass
class GridField:
    """Values sampled on a 1-D or 2-D uniform grid, with diagnostics in meta."""

    axes: tuple
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        shape = tuple(ax.size for ax in self.axes)
        if tuple(self.values.shape) != shape:
            raise ValueError(f"values shape {self.values.shape} does not match axes {shape}")

    def write_csv(self, path, manifest_sha256: str) -> str:
        """Write the field as CSV; return the SHA-256 hex digest of the bytes
        written.

        Each distinct value is formatted once.  The rows are streamed: each
        x row of a 2-D field, and the whole of a 1-D field, is one join of
        its cells' tokens, then one write and one digest update (the header
        is one more), so the text of one x row is the most the writer
        holds.  The file is written to a temporary file and renamed into
        place when complete (``open_atomic``).  The bytes are fixed,
        because run manifests hash them: UTF-8 with '.' decimals and ','
        separators,

        - a first line ``# manifest_sha256 = <hex>`` with the run's config
          fingerprint, ending in LF;
        - a header row of the axis tags and ``value``, unquoted;
        - one row per grid point in C order (the last axis varies fastest):
          the coordinates, then the value, each the shortest repr of the
          float that round-trips (``repr(float)``: ``0.1``, ``-0.0``,
          ``5e-324``, ``nan``, ``inf``), separated by commas;
        - every row, the header included, ends in CRLF.

        The meta and the ``GridAxis`` records are not in the file;
        ``experiments.write_run_artifacts`` puts them in the run manifest.
        """
        if len(self.axes) not in (1, 2):
            raise ValueError("only 1-D and 2-D fields are serialised")
        coords = [[repr(v) for v in ax.points().tolist()] for ax in self.axes]
        texts, inverse = _distinct_texts(self.values)
        header = (f"# manifest_sha256 = {manifest_sha256}\n"
                  + ",".join([ax.tag for ax in self.axes] + ["value"]) + "\r\n")
        # a row's tokens: per cell the x text, ",y," (or "," in 1-D), the
        # value text and CRLF; a 1-D field is one row of every point
        ny = len(coords[-1])
        if len(coords) == 1:
            mids, leads = [","] * ny, [coords[0]]
        else:
            mids, leads = [f",{y}," for y in coords[1]], ([x] * ny for x in coords[0])
        tokens = [""] * (4 * ny)
        tokens[1::4], tokens[3::4] = mids, ["\r\n"] * ny
        digest = hashlib.sha256()
        with open_atomic(path) as fh:
            def put(text: str) -> None:
                data = text.encode("utf-8")
                fh.write(data)
                digest.update(data)

            put(header)
            for i, lead in enumerate(leads):
                tokens[0::4] = lead
                tokens[2::4] = texts[inverse[i * ny:(i + 1) * ny]].tolist()
                put("".join(tokens))
        return digest.hexdigest()


def parse_storage_time(text: str, gamma_m: float) -> float:
    """Parse a storage time given either as raw dimensionless tau or 'x/Gm'."""
    s = str(text).strip()
    for suffix in ("/Gm", "/gm", "/Gamma_m", "/gamma_m"):
        if s.endswith(suffix):
            if gamma_m <= 0:
                raise ValueError("storage time in 1/Gamma_m units needs gamma_m > 0")
            return float(s[: -len(suffix)]) / gamma_m
    return float(s)
