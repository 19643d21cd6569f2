"""Parameter containers, derived rates and grid plumbing."""

import copy
import csv
import dataclasses
import hashlib
import itertools
import json
import math
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catmem import model
from catmem.experiments import (ALPHA0_MAX, PointResult, preset, run_point,
                                write_run_artifacts)
from catmem.model import (GridAxis, GridField, ProtocolSchedule, SystemParams,
                          derive_rates, parse_storage_time)
from catmem.signatures import (default_density_axis, default_quadrature_axis,
                               default_wigner_grid)

GM = 17.5 / 170e3


def test_system_params_closure():
    p = SystemParams(0.95, 0.05, gamma_m=GM, g_eff=0.6)
    assert p.gamma_o == 0.95 + 0.05
    assert p.gamma_ext == 0.95 and p.gamma_int == 0.05
    assert SystemParams(1.0, gamma_m=GM, g_eff=0.6).gamma_int == 0.0
    with pytest.raises(TypeError):
        SystemParams(1.0, 0.0, GM, 0.6)  # the rates after gamma_int are keyword-only
    with pytest.raises(TypeError):
        SystemParams(gamma_o=1.0, gamma_ext=1.0, gamma_m=GM, g_eff=0.6)


@pytest.mark.parametrize("kwargs", [
    dict(gamma_ext=1.1, gamma_int=-0.1, gamma_m=GM, g_eff=0.6),
    dict(gamma_ext=1.0, gamma_int=0.0, gamma_m=1.5, g_eff=0.6),
    dict(gamma_ext=1.0, gamma_int=0.0, gamma_m=GM, g_eff=-0.1),
    dict(gamma_ext=1.0, gamma_int=0.0, gamma_m=GM, g_eff=0.6, n_th_mech=-1.0),
])
def test_system_params_rejects_inconsistent(kwargs):
    with pytest.raises(ValueError):
        SystemParams(**kwargs)


def test_derived_rates_identities():
    p = SystemParams(1.0, gamma_m=GM, g_eff=0.6)
    d = derive_rates(p)
    assert d.gamma_plus + d.gamma_minus == pytest.approx(p.gamma_o)
    assert d.gamma_plus - d.gamma_minus == pytest.approx(p.gamma_m)
    assert d.m_rate ** 2 == pytest.approx(d.gamma_minus ** 2 - p.g_eff ** 2)
    assert d.gamma_bar == pytest.approx(d.gamma_plus - d.m_rate)


def test_derived_rates_oscillatory_branch():
    # strong coupling: m purely imaginary with positive imaginary part
    p = SystemParams(1.0, gamma_m=GM, g_eff=0.6)
    m = derive_rates(p).m_rate
    assert m.real == 0.0
    assert m.imag == pytest.approx(0.3317400607991, rel=1e-12)


def test_derived_rates_overdamped_branch():
    # weak coupling: m real non-negative
    p = SystemParams(1.0, gamma_m=0.0, g_eff=0.3)
    m = derive_rates(p).m_rate
    assert m.imag == 0.0
    assert m.real == pytest.approx(math.sqrt(0.25 - 0.09))


def test_schedule_snapping():
    s = ProtocolSchedule.make(1.97, 0.33, 0.1)
    assert s.t_write == pytest.approx(2.0)
    assert s.t_store == pytest.approx(0.3)
    assert (s.n_write, s.n_store, s.n_read) == (20, 3, 20)


def test_schedule_rejects_bad_grids():
    with pytest.raises(ValueError):
        ProtocolSchedule(t_write=1.0, t_store=0.0, dt=0.6)
    with pytest.raises(ValueError):
        ProtocolSchedule(t_write=0.0, t_store=0.0, dt=0.1)
    with pytest.raises(ValueError):
        ProtocolSchedule(t_write=1.05, t_store=0.0, dt=0.1)
    with pytest.raises(ValueError):
        ProtocolSchedule(t_write=1.0, t_store=0.25, dt=0.1)


def test_grid_axis_points():
    ax = GridAxis(start=-1.0, stop=1.0, step=0.25, tag="x")
    pts = ax.points()
    assert ax.size == 9 and pts.size == 9
    assert pts[0] == -1.0 and pts[-1] == 1.0
    assert np.allclose(np.diff(pts), 0.25)


def test_grid_axis_points_are_step_times_integers():
    # the points come from the integers start / step and stop / step, so
    # every one is step * k as the kernels form it, and an axis rebuilt
    # from its fields has the same points
    ax = GridAxis(start=0.05 * -97, stop=0.05 * 97, step=0.05, tag="re_alpha")
    assert np.array_equal(ax.points(), 0.05 * np.arange(-97, 98))
    assert ax.size == 195
    assert np.array_equal(GridAxis(**dataclasses.asdict(ax)).points(), ax.points())
    assert GridAxis(0.1, 0.3, 0.1, "x").points().tolist() == [0.1, 0.2, 0.1 * 3]


@pytest.mark.parametrize("start,stop,step", [
    (0.0, 1.0, 0.3),      # stop off the lattice
    (0.01, 1.0, 0.25),    # start off the lattice
    (1.0, 0.0, 0.5),      # ends out of order
    (0.0, 1.0, 0.0),
    (0.0, 1.0, -0.5),
    (0.0, math.inf, 0.5),
    (math.nan, 1.0, 0.5),
])
def test_grid_axis_rejects_ends_off_its_lattice(start, stop, step):
    with pytest.raises(ValueError):
        GridAxis(start, stop, step, "x")


def test_trapezoid_weights_span_the_axis():
    axis = GridAxis(-0.2, 0.3, 0.1, "x")
    assert np.array_equal(axis.trapezoid_weights(), [0.05, 0.1, 0.1, 0.1, 0.1, 0.05])
    values = np.random.default_rng(5).standard_normal((3, axis.size))
    assert np.allclose(axis.integrate(values), np.trapezoid(values, dx=0.1), rtol=0, atol=1e-15)
    # one point spans no interval: the rule gives 0, as np.trapezoid does
    point = GridAxis(0.3, 0.3, 0.1, "x")
    assert np.array_equal(point.trapezoid_weights(), [0.0])
    assert point.integrate(np.array([2.5])) == np.trapezoid([2.5], dx=0.1) == 0.0
    assert np.array_equal(point.integrate(np.ones((3, 1))), np.zeros(3))


@pytest.mark.parametrize("ny", [1, 2, 7, 241, 361])
def test_column_integrals_of_any_rows_are_those_of_the_whole_field(ny):
    # each row's integral depends on that row alone, so a band or any other
    # choice of rows has the bits of the same rows of the whole field
    rng = np.random.default_rng(ny)
    ax_y = GridAxis(0.0, 0.05 * (ny - 1), 0.05, "im_alpha")
    values = rng.standard_normal((300, ny))
    values[::3] = np.abs(values[::3])  # rows with no negative value
    whole, negative = ax_y.integrate(values), model.negative_columns(values, ax_y)
    assert np.array_equal(negative, ax_y.integrate(np.maximum(-values, 0.0)))
    assert np.all(np.copysign(1.0, negative[::3]) == 1.0) and not np.any(negative[::3])
    for count in (1, 2, 3, 5, 16, 64, 299):
        for rows in (slice(0, count), slice(300 - count, 300),
                     np.sort(rng.choice(300, count, replace=False))):
            assert np.array_equal(ax_y.integrate(values[rows]), whole[rows])
            assert np.array_equal(model.negative_columns(values[rows], ax_y), negative[rows])


def test_grid_field_shape_checked():
    ax = GridAxis(0.0, 1.0, 0.5, "x")
    with pytest.raises(ValueError):
        GridField(axes=(ax,), values=np.zeros(4))


def test_grid_field_manifest_round_trip(tmp_path):
    # the manifest holds each field's axes and meta, its CSV the values
    ax = GridAxis(0.0, 1.0, 0.5, "x")
    ay = GridAxis(-1.0, 1.0, 1.0, "y")
    values = np.array([[0.1, -0.0, 1 / 3], [5e-324, math.nan, math.inf],
                       [-2.5, 1e16, 2.0 ** -1074 * 3]])
    fld = GridField(axes=(ax, ay), values=values, meta={"kind": "demo", "norm": 1.25})
    point = PointResult(scalars={}, fields={"demo": fld})
    write_run_artifacts(preset("fig5"), point, tmp_path, 0.0)
    entry = json.loads(tmp_path.joinpath("manifest.json").read_text())["artifacts"]["demo"]
    assert tuple(GridAxis(**ax_entry) for ax_entry in entry["axes"]) == fld.axes
    assert entry["meta"] == fld.meta
    with tmp_path.joinpath(entry["csv"]).open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[2:]
    back = np.array([float(row[-1]) for row in rows]).reshape(values.shape)
    assert np.array_equal(back.view(np.uint64), values.view(np.uint64))


def test_grid_field_csv_layout(tmp_path):
    ax = GridAxis(0.0, 1.0, 0.5, "x")
    fld = GridField(axes=(ax,), values=np.array([1.0, 2.0, 3.0]), meta={"kind": "demo"})
    path = tmp_path / "field.csv"
    fld.write_csv(path, "abc123")
    lines = path.read_text().splitlines()
    assert lines[0] == "# manifest_sha256 = abc123"
    assert lines[1] == "x,value"
    assert len(lines) == 5
    assert lines[2].split(",") == ["0.0", "1.0"]
    assert fld.meta == {"kind": "demo"}
    assert [p.name for p in tmp_path.iterdir()] == ["field.csv"]


def reference_csv(fld, path, fingerprint):
    """The CSV writer as first written: csv.writer, repr(float(.)) per cell."""
    coords = [ax.points() for ax in fld.axes]
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write(f"# manifest_sha256 = {fingerprint}\n")
        writer = csv.writer(fh)
        writer.writerow([ax.tag for ax in fld.axes] + ["value"])
        if len(fld.axes) == 1:
            for x, v in zip(coords[0], fld.values):
                writer.writerow([repr(float(x)), repr(float(v))])
        else:
            for i, x in enumerate(coords[0]):
                for j, y in enumerate(coords[1]):
                    writer.writerow([repr(float(x)), repr(float(y)),
                                     repr(float(fld.values[i, j]))])


def assert_write_csv_matches_reference(fld, fingerprint):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        digest = fld.write_csv(out / "new.csv", fingerprint)
        reference_csv(fld, out / "ref.csv", fingerprint)
        csv_bytes = (out / "new.csv").read_bytes()
        assert csv_bytes == (out / "ref.csv").read_bytes()
        assert digest == hashlib.sha256(csv_bytes).hexdigest()
        assert sorted(p.name for p in out.iterdir()) == ["new.csv", "ref.csv"]


# values whose text is easy to get wrong: signed zeros (equal as floats,
# different reprs), non-finite values, subnormals, and values that repeat
# within a field
SPECIAL_VALUES = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                  2.2250738585072014e-308, 1.1125369292536007e-308, 0.1, 1e16, -2.5]


@st.composite
def grid_axes(draw):
    """Short axes of 1 to 9 points on a few steps, anywhere within 100
    steps of zero."""
    tag = draw(st.sampled_from(["x", "re_alpha", "x_theta_quadrature", "coherent_b"]))
    n = draw(st.integers(1, 9))
    step = draw(st.sampled_from([0.05, 0.1, 0.25, 1.0]))
    first = draw(st.integers(-100, 100))
    return GridAxis(step * first, step * (first + n - 1), step, tag)


@st.composite
def default_axes(draw):
    """An axis the signature passes use by default, for any input cat."""
    alpha0 = draw(st.floats(0.0, ALPHA0_MAX))
    make = draw(st.sampled_from([default_quadrature_axis, default_density_axis,
                                 lambda a: default_wigner_grid(a)[0]]))
    return make(alpha0)


@settings(max_examples=200, deadline=None)
@given(st.one_of(grid_axes(), default_axes()))
def test_grid_axis_size_counts_its_points(axis):
    assert axis.size == axis.points().size


@st.composite
def grid_fields(draw):
    axes = tuple(draw(grid_axes()) for _ in range(draw(st.integers(1, 2))))
    size = math.prod(ax.size for ax in axes)
    value = st.one_of(st.sampled_from(SPECIAL_VALUES), st.floats())
    values = np.array(draw(st.lists(value, min_size=size, max_size=size)), dtype=float)
    meta = {"kind": "demo", "norm": draw(st.floats(allow_nan=False))}
    fingerprint = draw(st.text("0123456789abcdef", min_size=64, max_size=64))
    fld = GridField(axes=axes, values=values.reshape([ax.size for ax in axes]), meta=meta)
    return fld, fingerprint


@settings(max_examples=150, deadline=None)
@given(grid_fields())
def test_write_csv_matches_reference_bytes(case):
    assert_write_csv_matches_reference(*case)


def test_signed_zero_and_non_finite_text(tmp_path):
    ax = GridAxis(0.0, 4.0, 1.0, "x")
    fld = GridField(axes=(ax,), values=np.array([0.0, -0.0, math.nan, math.inf, 0.0]))
    fld.write_csv(tmp_path / "f.csv", "ab" * 32)
    fingerprint_line, table = tmp_path.joinpath("f.csv").read_bytes().split(b"\n", 1)
    assert fingerprint_line == b"# manifest_sha256 = " + b"ab" * 32
    rows = table.split(b"\r\n")
    assert [r.split(b",")[1] for r in rows[1:-1]] == [b"0.0", b"-0.0", b"nan", b"inf", b"0.0"]
    assert_write_csv_matches_reference(fld, "ab" * 32)


@pytest.fixture(scope="module")
def fig5_run():
    config = replace(preset("fig5"), signatures=("p_distribution", "wigner", "negativity",
                                                  "density", "p_variance"))
    return config, run_point(config)


def test_write_csv_matches_reference_on_run_fields(fig5_run):
    fields = fig5_run[1].fields
    assert set(fields) == {"p_distribution", "wigner", "density"}
    for fld in fields.values():
        assert_write_csv_matches_reference(fld, "cd" * 32)


def test_manifest_axes_give_the_csv_coordinates(fig5_run, tmp_path):
    # each field's axes in the manifest rebuild the coordinate columns of
    # its CSV as text: the points the values were evaluated at
    config, point = fig5_run
    manifest = write_run_artifacts(config, point, tmp_path, 0.0)
    assert set(manifest["artifacts"]) == {"p_distribution", "wigner", "density"}
    for name, info in manifest["artifacts"].items():
        axes = [GridAxis(**entry) for entry in info["axes"]]
        assert tuple(axes) == point.fields[name].axes
        with tmp_path.joinpath(info["csv"]).open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[2:]
        texts = [[repr(v) for v in ax.points().tolist()] for ax in axes]
        assert [row[:-1] for row in rows] == [list(c) for c in itertools.product(*texts)]
        assert all(ax.step in (0.01, 0.05, 0.1) for ax in axes)


def test_write_run_artifacts_leaves_meta_alone(fig5_run, tmp_path):
    # the fingerprint goes into the CSVs, not into the caller's fields or
    # the manifest's copies of their meta
    config, point = fig5_run
    before = {name: copy.deepcopy(fld.meta) for name, fld in point.fields.items()}
    write_run_artifacts(config, point, tmp_path, 0.0)
    assert {name: fld.meta for name, fld in point.fields.items()} == before
    written = json.loads(tmp_path.joinpath("manifest.json").read_text())["artifacts"]
    assert {name: info["meta"] for name, info in written.items()} == before


def test_writer_memory_stays_below_file_sizes(fig5_run, tmp_path):
    # the writer streams the CSV by rows; holding its whole text (or the
    # text and its bytes) would take more than the file
    fld = fig5_run[1].fields["wigner"]
    assert fld.values.shape == (361, 361)
    csv_path = tmp_path / "w.csv"
    tracemalloc.start()
    try:
        fld.write_csv(csv_path, "ab" * 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < csv_path.stat().st_size


class _FailingDigest:
    """A sha256 stand-in that raises on its third update: inside the rows
    of the first 2-D field, after its header and first row are written."""

    def __init__(self):
        self.updates = 0
        self.digest = hashlib.sha256()

    def update(self, data):
        self.updates += 1
        if self.updates == 3:
            raise OSError("write failed")
        self.digest.update(data)

    def hexdigest(self):
        return self.digest.hexdigest()


def test_writer_streams_one_digest_update_per_row(fig5_run, tmp_path, monkeypatch):
    # the writer's granularity, which the interruption test and the memory
    # bound rely on: one update for the header, then one per x row of a 2-D
    # field, or one for all the rows of a 1-D field; the updates are the
    # file's bytes in order
    updates = []

    class Counted:
        def __init__(self):
            self.digest = hashlib.sha256()
            updates.append([])

        def update(self, data):
            updates[-1].append(data)
            self.digest.update(data)

        def hexdigest(self):
            return self.digest.hexdigest()

    monkeypatch.setattr(model, "hashlib", type("hashlib", (), {"sha256": Counted}))
    fields = fig5_run[1].fields
    assert [fld.values.ndim for fld in fields.values()] == [1, 2, 2]
    for name, fld in fields.items():
        path = tmp_path / f"{name}.csv"
        digest = fld.write_csv(path, "ab" * 32)
        header, *rows = updates[-1]
        assert header.endswith(b",value\r\n")
        if fld.values.ndim == 1:
            assert len(rows) == 1
        else:
            nx, ny = fld.values.shape
            assert [row.count(b"\r\n") for row in rows] == [ny] * nx
        assert b"".join(updates[-1]) == path.read_bytes()
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert len(updates) == len(fields)


def test_interrupted_field_write_keeps_previous_run(fig5_run, tmp_path, monkeypatch):
    config, point = fig5_run
    write_run_artifacts(config, point, tmp_path, 0.0)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert set(before) == {"manifest.json", "p_distribution.csv", "wigner.csv", "density.csv"}

    halved = PointResult(scalars=point.scalars, fields={
        name: GridField(fld.axes, 0.5 * fld.values, dict(fld.meta))
        for name, fld in point.fields.items()})
    monkeypatch.setattr(model, "hashlib", type("hashlib", (), {"sha256": _FailingDigest}))
    with pytest.raises(OSError):
        write_run_artifacts(config, halved, tmp_path, 0.0)

    after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert set(after) == set(before)
    # the 1-D field before it was written in full; the field that failed and
    # everything after it keep the previous run's bytes
    assert after["p_distribution.csv"] != before["p_distribution.csv"]
    for name in ("wigner.csv", "density.csv", "manifest.json"):
        assert after[name] == before[name]


def test_three_dimensional_csv_rejected_before_writing(tmp_path):
    ax = GridAxis(0.0, 1.0, 1.0, "x")
    fld = GridField(axes=(ax, ax, ax), values=np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        fld.write_csv(tmp_path / "cube.csv", "ab" * 32)
    assert list(tmp_path.iterdir()) == []


def test_parse_storage_time_forms():
    assert parse_storage_time("0.02/Gm", GM) == pytest.approx(0.02 / GM)
    assert parse_storage_time("0.3466/gamma_m", GM) == pytest.approx(0.3466 / GM)
    assert parse_storage_time("12.5", GM) == 12.5
    with pytest.raises(ValueError):
        parse_storage_time("0.02/Gm", 0.0)
    with pytest.raises(ValueError):
        parse_storage_time("abc", GM)
