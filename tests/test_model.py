"""Parameter containers, derived rates and grid plumbing."""

import copy
import csv
import dataclasses
import hashlib
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
from catmem.experiments import PointResult, preset, run_point, write_run_artifacts
from catmem.model import (GridAxis, GridField, ProtocolSchedule, SystemParams,
                          derive_rates, parse_storage_time)

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


def test_grid_field_shape_checked():
    ax = GridAxis(0.0, 1.0, 0.5, "x")
    with pytest.raises(ValueError):
        GridField(axes=(ax,), values=np.zeros(4))


def test_grid_field_json_round_trip(tmp_path):
    ax = GridAxis(0.0, 1.0, 0.5, "x")
    ay = GridAxis(-1.0, 1.0, 1.0, "y")
    fld = GridField(axes=(ax, ay), values=np.arange(9.0).reshape(3, 3),
                    meta={"kind": "demo", "norm": 1.25})
    path = tmp_path / "field.json"
    fld.write_files(tmp_path / "field.csv", path)
    back = GridField.from_json(path)
    assert back.axes == fld.axes
    assert np.array_equal(back.values, fld.values)
    assert back.meta == fld.meta


def test_grid_field_csv_layout(tmp_path):
    ax = GridAxis(0.0, 1.0, 0.5, "x")
    fld = GridField(axes=(ax,), values=np.array([1.0, 2.0, 3.0]), meta={"kind": "demo"})
    path = tmp_path / "field.csv"
    fld.write_files(path, tmp_path / "field.json", "abc123")
    lines = path.read_text().splitlines()
    assert lines[0] == "# manifest_sha256 = abc123"
    assert lines[1] == "x,value"
    assert len(lines) == 5
    assert lines[2].split(",") == ["0.0", "1.0"]
    written = json.loads(tmp_path.joinpath("field.json").read_text())["meta"]
    assert written == {"kind": "demo", "manifest_sha256": "abc123"}
    assert fld.meta == {"kind": "demo"}


def reference_csv(fld, path, fingerprint):
    """The CSV writer as first written: csv.writer, repr(float(.)) per cell."""
    coords = [ax.points() for ax in fld.axes]
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        if fingerprint is not None:
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


def reference_json(fld, path, fingerprint):
    """The JSON writer as first written: one json.dumps of the payload, the
    fingerprint stored into meta."""
    meta = dict(fld.meta)
    if fingerprint is not None:
        meta["manifest_sha256"] = fingerprint
    payload = {
        "axes": [dataclasses.asdict(ax) for ax in fld.axes],
        "values": np.asarray(fld.values, dtype=float).ravel().tolist(),
        "meta": meta,
    }
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def assert_writers_match_reference(fld, fingerprint=None):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        digest = fld.write_files(out / "new.csv", out / "new.json", fingerprint)
        reference_csv(fld, out / "ref.csv", fingerprint)
        reference_json(fld, out / "ref.json", fingerprint)
        csv_bytes = (out / "new.csv").read_bytes()
        assert csv_bytes == (out / "ref.csv").read_bytes()
        assert digest == hashlib.sha256(csv_bytes).hexdigest()
        assert (out / "new.json").read_bytes() == (out / "ref.json").read_bytes()
        assert sorted(p.name for p in out.iterdir()) == ["new.csv", "new.json",
                                                         "ref.csv", "ref.json"]


# values whose text is easy to get wrong: signed zeros (equal as floats,
# different reprs), non-finite values (JSON spells them differently),
# subnormals, and values that repeat within a field
SPECIAL_VALUES = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                  2.2250738585072014e-308, 1.1125369292536007e-308, 0.1, 1e16, -2.5]


@st.composite
def grid_fields(draw):
    def axis(tag):
        n = draw(st.integers(1, 9))
        start = draw(st.floats(-5.0, 5.0))
        step = draw(st.sampled_from([0.05, 0.1, 0.25, 1.0]))
        return GridAxis(start, start + step * (n - 1), step, tag)

    tags = st.sampled_from(["x", "re_alpha", "a,b", 'q"t'])
    axes = tuple(axis(draw(tags)) for _ in range(draw(st.integers(1, 2))))
    size = math.prod(ax.size for ax in axes)
    value = st.one_of(st.sampled_from(SPECIAL_VALUES), st.floats())
    values = np.array(draw(st.lists(value, min_size=size, max_size=size)), dtype=float)
    meta = {"kind": "demo", "norm": draw(st.floats(allow_nan=False))}
    fingerprint = "ab" * 32 if draw(st.booleans()) else None
    fld = GridField(axes=axes, values=values.reshape([ax.size for ax in axes]), meta=meta)
    return fld, fingerprint


@settings(max_examples=150, deadline=None)
@given(grid_fields())
def test_writers_match_reference_bytes(case):
    assert_writers_match_reference(*case)


def test_signed_zero_and_non_finite_text(tmp_path):
    ax = GridAxis(0.0, 4.0, 1.0, "x")
    fld = GridField(axes=(ax,), values=np.array([0.0, -0.0, math.nan, math.inf, 0.0]))
    fld.write_files(tmp_path / "f.csv", tmp_path / "f.json")
    rows = tmp_path.joinpath("f.csv").read_bytes().split(b"\r\n")
    assert [r.split(b",")[1] for r in rows[1:-1]] == [b"0.0", b"-0.0", b"nan", b"inf", b"0.0"]
    assert '"values": [0.0, -0.0, NaN, Infinity, 0.0]' in tmp_path.joinpath("f.json").read_text()
    assert_writers_match_reference(fld)


@pytest.fixture(scope="module")
def fig5_run():
    config = replace(preset("fig5"), signatures=("p_distribution", "wigner", "negativity",
                                                  "density", "p_variance"))
    return config, run_point(config)


def test_writers_match_reference_on_run_fields(fig5_run):
    fields = fig5_run[1].fields
    assert set(fields) == {"p_distribution", "wigner", "density"}
    for fld in fields.values():
        assert_writers_match_reference(fld, "cd" * 32)


def test_write_run_artifacts_leaves_meta_alone(fig5_run, tmp_path):
    # the fingerprint goes into the written files, not into the caller's fields
    config, point = fig5_run
    before = {name: copy.deepcopy(fld.meta) for name, fld in point.fields.items()}
    manifest = write_run_artifacts(config, point, tmp_path, 0.0)
    assert {name: fld.meta for name, fld in point.fields.items()} == before
    for name, meta in before.items():
        written = json.loads(tmp_path.joinpath(f"{name}.json").read_text())["meta"]
        assert written == {**meta, "manifest_sha256": manifest["config_sha256"]}


def test_writer_memory_stays_below_file_sizes(fig5_run, tmp_path):
    # the writer streams both files; holding either whole text (or the CSV
    # text and its bytes) would take more than the two files together
    fld = fig5_run[1].fields["wigner"]
    assert fld.values.shape == (361, 361)
    csv_path, json_path = tmp_path / "w.csv", tmp_path / "w.json"
    tracemalloc.start()
    try:
        fld.write_files(csv_path, json_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < csv_path.stat().st_size + json_path.stat().st_size


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


def test_interrupted_field_write_keeps_previous_run(fig5_run, tmp_path, monkeypatch):
    config, point = fig5_run
    write_run_artifacts(config, point, tmp_path, 0.0)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert set(before) == {"manifest.json", "p_distribution.csv", "p_distribution.json",
                           "wigner.csv", "wigner.json", "density.csv", "density.json"}

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
    for name in ("wigner.csv", "wigner.json", "density.csv", "density.json",
                 "manifest.json"):
        assert after[name] == before[name]


def test_three_dimensional_csv_rejected_before_writing(tmp_path):
    ax = GridAxis(0.0, 1.0, 1.0, "x")
    fld = GridField(axes=(ax, ax, ax), values=np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        fld.write_files(tmp_path / "cube.csv", tmp_path / "cube.json")
    assert list(tmp_path.iterdir()) == []


def test_parse_storage_time_forms():
    assert parse_storage_time("0.02/Gm", GM) == pytest.approx(0.02 / GM)
    assert parse_storage_time("0.3466/gamma_m", GM) == pytest.approx(0.3466 / GM)
    assert parse_storage_time("12.5", GM) == 12.5
    with pytest.raises(ValueError):
        parse_storage_time("0.02/Gm", 0.0)
    with pytest.raises(ValueError):
        parse_storage_time("abc", GM)
