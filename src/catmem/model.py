"""Core types and parameter containers for the cat-state memory simulator.

All rates are dimensionless: time is measured in units of the inverse total
optical damping rate, so gamma_o = 1 by construction.  The optomechanical
system is an optical cavity mode coupled to a mechanical mode through a
switchable beam-splitter interaction; the input field carries an even cat
state in a single exponential-sinh temporal mode.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

__all__ = [
    "SystemParams",
    "DerivedRates",
    "CatParams",
    "ProtocolSchedule",
    "EnsembleResult",
    "GridAxis",
    "GridField",
    "derive_rates",
    "open_atomic",
    "parse_storage_time",
]

# Relative slack used when checking closure relations between floats that are
# supposed to agree exactly up to rounding.
_REL_TOL = 1e-12


@dataclass(frozen=True)
class SystemParams:
    """Dimensionless system rates.

    gamma_o is the total optical damping and must equal gamma_ext + gamma_int.
    n_th_mech is the mechanical bath occupation driving the Langevin noise;
    n_init_mech is the occupation of the initial mechanical thermal state,
    which may differ (a pre-cooled oscillator in a warm bath).
    """

    gamma_o: float
    gamma_ext: float
    gamma_int: float
    gamma_m: float
    g_eff: float
    n_th_mech: float = 0.0
    n_init_mech: float = 0.0

    def __post_init__(self):
        if self.gamma_ext < 0 or self.gamma_int < 0:
            raise ValueError("damping channel rates must be non-negative")
        if abs(self.gamma_o - (self.gamma_ext + self.gamma_int)) > _REL_TOL * max(self.gamma_o, 1.0):
            raise ValueError("gamma_o must equal gamma_ext + gamma_int")
        if not 0 <= self.gamma_m < self.gamma_o:
            raise ValueError("gamma_m must satisfy 0 <= gamma_m < gamma_o")
        if self.g_eff < 0:
            raise ValueError("g_eff must be non-negative")
        if self.n_th_mech < 0 or self.n_init_mech < 0:
            raise ValueError("thermal occupations must be non-negative")

    @classmethod
    def make(cls, gamma_ext: float, gamma_int: float = 0.0, *, gamma_m: float,
             g_eff: float, n_th_mech: float = 0.0, n_init_mech: float = 0.0) -> "SystemParams":
        """Build params with gamma_o closed from the channel rates."""
        return cls(gamma_o=gamma_ext + gamma_int, gamma_ext=gamma_ext,
                   gamma_int=gamma_int, gamma_m=gamma_m, g_eff=g_eff,
                   n_th_mech=n_th_mech, n_init_mech=n_init_mech)


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
class CatParams:
    """Even cat state (|alpha0> + |-alpha0>)/sqrt(norm) on the input mode."""

    alpha0: complex
    norm: float

    def __post_init__(self):
        if abs(self.alpha0) == 0:
            raise ValueError("alpha0 must be nonzero")
        expected = 2.0 * (1.0 + math.exp(-2.0 * abs(self.alpha0) ** 2))
        if abs(self.norm - expected) > 1e-9:
            raise ValueError("norm inconsistent with alpha0")

    @classmethod
    def make(cls, alpha0: complex) -> "CatParams":
        a = complex(alpha0)
        return cls(alpha0=a, norm=2.0 * (1.0 + math.exp(-2.0 * abs(a) ** 2)))


@dataclass(frozen=True)
class ProtocolSchedule:
    """Write/store/read timing on a uniform integration grid.

    The write window is [-t_write, 0], storage (0, t_store), read
    [t_store, t_store + t_read].  All durations are integer multiples of dt;
    use ``make`` to snap requested durations onto the grid.
    """

    t_write: float
    t_store: float
    t_read: float
    dt: float

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.dt > 0.5:
            # Shannon-style guard in units of 1/gamma_o
            raise ValueError("dt must not exceed 1/(2 gamma_o)")
        if self.t_write <= 0 or self.t_read <= 0 or self.t_store < 0:
            raise ValueError("window durations must be positive (storage may be zero)")
        if self.t_read != self.t_write:
            raise ValueError("read window must mirror the write window")
        for name in ("t_write", "t_store", "t_read"):
            value = getattr(self, name)
            steps = value / self.dt
            if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
                raise ValueError(f"{name} must be an integer multiple of dt")

    @classmethod
    def make(cls, t_write: float, t_store: float, dt: float) -> "ProtocolSchedule":
        """Snap durations to the grid; the read window mirrors the write."""
        n_w = max(1, round(t_write / dt))
        n_s = max(0, round(t_store / dt))
        return cls(t_write=n_w * dt, t_store=n_s * dt, t_read=n_w * dt, dt=dt)

    @property
    def n_write(self) -> int:
        return round(self.t_write / self.dt)

    @property
    def n_store(self) -> int:
        return round(self.t_store / self.dt)

    @property
    def n_read(self) -> int:
        return round(self.t_read / self.dt)

    @property
    def t_final(self) -> float:
        return self.t_store + self.t_read


# branch labels, in stratified sampling order
BRANCHES = ("++", "--", "+-", "-+")


@dataclass
class EnsembleResult:
    """Weighted trajectory ensemble as columns, one row per trajectory.

    branch holds each row's label from BRANCHES.  ``sampling.sample_cat``
    returns the input ensemble in this layout (alpha_out = alpha_in, the
    ensemble before any evolution); ``engine.run_ensemble`` returns the
    retrieved one, with the protocol channel it was sampled from in gain
    and noise_var.  Both are None for any other ensemble.
    """

    alpha_out: np.ndarray
    alpha_out_plus: np.ndarray
    weight: np.ndarray
    branch: np.ndarray
    gain: Optional[complex] = None
    noise_var: Optional[float] = None

    def __len__(self) -> int:
        return self.alpha_out.size


@dataclass(frozen=True)
class GridAxis:
    """Uniform axis for gridded output fields."""

    start: float
    stop: float
    step: float
    tag: str  # semantic label, e.g. "x_quadrature", "re_alpha"

    def points(self) -> np.ndarray:
        n = round((self.stop - self.start) / self.step) + 1
        return self.start + self.step * np.arange(n)

    @property
    def size(self) -> int:
        return round((self.stop - self.start) / self.step) + 1


def _distinct_texts(values) -> tuple[np.ndarray, np.ndarray]:
    """repr of every distinct value as a float, and the index of each value's
    text among them, in C order.

    Fields are symmetric, so each distinct value is formatted once.  Values
    are told apart by bit pattern: -0.0 equals 0.0 but has its own repr.
    """
    flat = np.asarray(values, dtype=float).ravel()
    bits, inverse = np.unique(flat.view(np.uint64), return_inverse=True)
    texts = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
    return texts, inverse


# JSON spells the non-finite values that repr writes as nan, inf and -inf
_JSON_SPELLING = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# values per JSON write, so no file's whole text is held in memory
_JSON_PIECE = 4096


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

    def write_files(self, csv_path, json_path,
                    manifest_sha256: str | None = None) -> str:
        """Write the field as CSV and as JSON; return the SHA-256 hex digest
        of the CSV bytes written.

        Each distinct value is formatted once, for both files.  Both files
        are written to temporary files and renamed into place only when
        both are complete (``open_atomic``).  The bytes are fixed, because
        run manifests hash them.  The CSV, UTF-8 with '.' decimals and ','
        separators:

        - with a ``manifest_sha256`` fingerprint given, a first line
          ``# manifest_sha256 = <hex>`` ending in LF;
        - a header row of the axis tags and ``value``, as the csv module's
          excel dialect writes it;
        - one row per grid point in C order (the last axis varies fastest):
          the coordinates, then the value, each the shortest repr of the
          float that round-trips (``repr(float)``: ``0.1``, ``-0.0``,
          ``5e-324``, ``nan``, ``inf``), separated by commas;
        - every row, the header included, ends in CRLF.

        The JSON is ``{"axes": [...], "values": [...], "meta": {...}}`` byte
        for byte as ``json.dumps`` writes it, values flattened in C order
        (non-finite values spelled ``NaN``, ``Infinity``, ``-Infinity``);
        a fingerprint given goes into the written meta under
        ``manifest_sha256``.  ``self.meta`` is left as it is.
        """
        if len(self.axes) not in (1, 2):
            raise ValueError("only 1-D and 2-D fields are serialised")
        coords = [[repr(v) for v in ax.points().tolist()] for ax in self.axes]
        texts, inverse = _distinct_texts(self.values)
        json_texts = texts
        if not np.all(np.isfinite(self.values)):
            json_texts = np.array([_JSON_SPELLING.get(t, t) for t in texts.tolist()],
                                  dtype=object)
        header = io.StringIO()
        meta = dict(self.meta)
        if manifest_sha256 is not None:
            header.write(f"# manifest_sha256 = {manifest_sha256}\n")
            meta["manifest_sha256"] = manifest_sha256
        # the header is the only row whose cells (the tags) may need quoting
        csv.writer(header).writerow([ax.tag for ax in self.axes] + ["value"])
        digest = hashlib.sha256()
        with open_atomic(csv_path) as csv_fh, open_atomic(json_path) as json_fh:
            def put_csv(text: str) -> None:
                data = text.encode("utf-8")
                csv_fh.write(data)
                digest.update(data)

            put_csv(header.getvalue())
            if len(coords) == 1:
                values = texts[inverse].tolist()
                put_csv("".join([f"{x},{v}\r\n" for x, v in zip(coords[0], values)]))
            else:
                ny = len(coords[1])
                y_cells = [f",{y}," for y in coords[1]]
                for i, x in enumerate(coords[0]):
                    row = texts[inverse[i * ny:(i + 1) * ny]].tolist()
                    cells = [y + v for y, v in zip(y_cells, row)]
                    put_csv(x + ("\r\n" + x).join(cells) + "\r\n")

            axes = json.dumps([dataclasses.asdict(ax) for ax in self.axes])
            json_fh.write(f'{{"axes": {axes}, "values": ['.encode("utf-8"))
            for k in range(0, inverse.size, _JSON_PIECE):
                piece = ", ".join(json_texts[inverse[k:k + _JSON_PIECE]].tolist())
                json_fh.write(((", " if k else "") + piece).encode("utf-8"))
            json_fh.write(f'], "meta": {json.dumps(meta)}}}'.encode("utf-8"))
        return digest.hexdigest()

    @classmethod
    def from_json(cls, path) -> "GridField":
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        axes = tuple(GridAxis(**ax) for ax in payload["axes"])
        shape = tuple(ax.size for ax in axes)
        values = np.array(payload["values"], dtype=float).reshape(shape)
        return cls(axes=axes, values=values, meta=payload.get("meta", {}))


def parse_storage_time(text: str, gamma_m: float) -> float:
    """Parse a storage time given either as raw dimensionless tau or 'x/Gm'."""
    s = str(text).strip()
    for suffix in ("/Gm", "/gm", "/Gamma_m", "/gamma_m"):
        if s.endswith(suffix):
            if gamma_m <= 0:
                raise ValueError("storage time in 1/Gamma_m units needs gamma_m > 0")
            return float(s[: -len(suffix)]) / gamma_m
    return float(s)
