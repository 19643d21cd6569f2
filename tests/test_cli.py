"""Configuration parsing, presets, and the command-line interface."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import catmem
from catmem import engine, experiments
from catmem.acceptance import WIGNER_NORM_TOL, run_criteria
from catmem.cli import main
from catmem.engine import protocol_channel
from catmem.experiments import (ALPHA0_MAX, ConfigError, ExperimentConfig,
                                PRESETS, config_fingerprint, load_config,
                                parse_config_text, preset, run_point, run_sweep,
                                sweep_points, write_run_artifacts)
from catmem.model import ProtocolSchedule
from catmem.oracle import channel_negativity, q_channel
from catmem.signatures import default_wigner_grid

TINY_RUN = """\
# small smoke configuration
alpha0 = 1.0
t_store = 0.02/Gm
n_samples = 64
dt = 0.1
signatures = p_distribution, p_variance
"""

TINY_SWEEP = """\
sweep.alpha0 = 1.0, 2.0
n_samples = 32
dt = 0.1
signatures = p_variance
"""


def test_parse_basics_and_two_pass_storage():
    # t_store uses the gamma_m that appears later in the same file
    cfg = parse_config_text("t_store = 0.02/Gm\ngamma_m = 2e-4\nt_write = auto\n")
    assert cfg.t_store == pytest.approx(100.0)
    assert cfg.gamma_m == 2e-4
    assert cfg.t_write is None
    cfg = parse_config_text("signatures = p_distribution,negativity\n")
    assert cfg.signatures == ("p_distribution", "negativity")


def test_parse_comments_and_blank_lines():
    cfg = parse_config_text("\n# comment\nalpha0 = 3.0  # trailing\n\n")
    assert cfg.alpha0 == 3.0


@pytest.mark.parametrize("text,fragment", [
    ("alpha0 = 2\nfrobnicate = 1\n", "line 2"),
    ("alpha0 = duck\n", "line 1"),
    ("alpha0 2\n", "line 1"),
    ("n_samples = 2.5\n", "line 1"),
    ("signatures = wigner, nope\n", "line 1"),
    ("sweep.dt = 0.1, 0.2\n", "line 1"),
    ("stratified = maybe\n", "line 1"),
    ("time_step_check = maybe\n", "line 1"),
    ("t_write = abc\n", "line 1"),
    ("alpha0 = nan\n", "line 1"),
    ("dt = 0.1\nsweep.alpha0 = 1, inf\n", "line 2"),
    ("t_store = nan/Gm\n", "line 1"),
])
def test_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize("command,text,key,lines", [
    ("run", "n_samples = 8\nn_bar = 1\nn_bar = 2\n", "n_bar", (2, 3)),
    ("run", "t_store = 0.02/Gm\n# a comment\nt_store = 0.04/Gm\n", "t_store", (1, 3)),
    ("sweep", "sweep.alpha0 = 1, 2\nn_bar = 1\nsweep.alpha0 = 3\n", "sweep.alpha0", (1, 3)),
], ids=["plain", "storage", "sweep"])
def test_a_key_given_twice_is_a_config_error(tmp_path, capsys, command, text, key, lines):
    # plain, storage and sweep keys alike: the last value used to win
    # silently (n_bar = 2, one alpha0, 0.04/Gm).  Refining a preset's value
    # is no repeat.
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert err.value.line == lines[1]
    assert f"key {key!r} is given twice, on lines {lines[0]} and {lines[1]}" in str(err.value)
    path = tmp_path / "twice.cfg"
    path.write_text(text)
    assert main([command, "--preset", "fig10", "--config", str(path), "--dry-run"]) == 2
    assert f"key {key!r} is given twice" in capsys.readouterr().err
    once = "".join(text.splitlines(keepends=True)[lines[1] - 1:])
    path.write_text(once)
    assert main([command, "--preset", "fig10", "--config", str(path), "--dry-run"]) == 0


@pytest.mark.parametrize("command,text", [
    ("run", "n_samples = 6"),
    ("run", "n_samples = 2"),
    ("run", "master_seed = -1"),
    ("run", "dt = 0.7"),
    ("run", "t_write = abc"),
    ("run", "alpha0 = nan"),
    ("run", "n_bar = 1\njackknife_blocks = 1"),
    ("run", "n_bar = 1\nn_samples = 4"),
    ("sweep", "sweep.n_bar = -1, 2"),
    ("sweep", "sweep.alpha0 = 0, 2"),
])
def test_bad_config_values_are_config_errors(tmp_path, capsys, command, text):
    # caught before any work: otherwise the run raises a traceback deep in
    # the engine, writes NaN scalars (alpha0 = nan) or reports a noisy point
    # with a zero error bar (jackknife_blocks = 1) or no two blocks that
    # each hold every branch (a noisy run of 4 samples)
    path = tmp_path / "bad.cfg"
    path.write_text(text + "\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_stratified_key_is_unknown(tmp_path, capsys):
    # every run samples n/4 rows per branch; there is no layout to choose
    path = tmp_path / "old.cfg"
    path.write_text("stratified = true\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out), "--dry-run"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "unknown key 'stratified'" in err
    assert not out.exists()


def test_time_step_check_key_is_unknown(tmp_path, capsys):
    # the time-step error comes from the channel at every negativity run;
    # there is no rerun to switch off
    path = tmp_path / "old.cfg"
    path.write_text("time_step_check = false\n")
    assert main(["run", "--config", str(path), "--dry-run"]) == 2
    assert "unknown key 'time_step_check'" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["quad_theta", "quad_step", "wigner_h", "wigner_pad",
                                 "density_step"])
def test_grid_keys_are_unknown(tmp_path, capsys, key):
    # the grids follow from alpha0; there is no spacing, pad or angle to set
    path = tmp_path / "old.cfg"
    path.write_text(f"{key} = 0.1\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out), "--dry-run"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"unknown key '{key}'" in err
    assert not out.exists()


def test_alpha0_must_be_real_and_nonzero():
    for alpha0 in (0.0, -0.0, 2.0 + 0.5j, 2.0 + 0j, complex(0.0, 2.0), float("nan")):
        with pytest.raises(ConfigError, match="alpha0 must be real, finite and nonzero"):
            ExperimentConfig(alpha0=alpha0).validate()
    with pytest.raises(ConfigError, match="alpha0 must be real"):
        parse_config_text("alpha0 = 0\n")


def test_parse_sweep_axes():
    cfg = parse_config_text(
        "sweep.alpha0 = 1, 2, 3\nsweep.t_store = 0.02/Gm, 0.1/Gm\ngamma_m = 1e-2\n")
    assert cfg.sweep[0] == ("alpha0", (1.0, 2.0, 3.0))
    assert cfg.sweep[1][0] == "t_store"
    assert cfg.sweep[1][1][0] == pytest.approx(2.0)
    assert cfg.sweep[1][1][1] == pytest.approx(10.0)


def test_fingerprint_ignores_execution_knobs():
    base = ExperimentConfig()
    assert config_fingerprint(base) == config_fingerprint(
        ExperimentConfig(out_dir="elsewhere"))
    assert config_fingerprint(base) != config_fingerprint(
        ExperimentConfig(alpha0=2.5))


def test_alpha0_beyond_overlap_underflow_rejected():
    # exp(-2 alpha0^2) is a normal double up to alpha0 = 18.8, subnormal above
    ExperimentConfig(alpha0=18.8).validate()
    for alpha0 in (18.9, -18.9):
        with pytest.raises(ConfigError, match="underflows"):
            ExperimentConfig(alpha0=alpha0).validate()
    with pytest.raises(ConfigError, match="underflows"):
        parse_config_text("sweep.alpha0 = 2, 18.9\n")


def test_run_point_at_alpha0_bound_matches_protocol_reference():
    # beyond the bound the kernel and oracle exponentials overflow against an
    # underflowed weight, and the Wigner scalars turn NaN
    cfg = ExperimentConfig(alpha0=ALPHA0_MAX, signatures=("negativity",))
    scalars = run_point(cfg).scalars
    assert abs(scalars["wigner_norm"] - 1.0) <= WIGNER_NORM_TOL
    gain, noise_var = protocol_channel(cfg.system_params(), cfg.schedule())
    reference = channel_negativity(*default_wigner_grid(ALPHA0_MAX), ALPHA0_MAX,
                                   abs(gain), noise_var)
    assert reference > 0.0
    assert scalars["negativity"] == pytest.approx(reference, rel=1e-10, abs=0.0)


def _channel_negativity_at(cfg, dt):
    """negativity_protocol of cfg's schedule evaluated at step dt."""
    schedule = cfg.schedule()
    gain, noise_var = protocol_channel(
        cfg.system_params(), ProtocolSchedule(schedule.t_write, schedule.t_store, dt))
    return channel_negativity(*default_wigner_grid(cfg.alpha0), cfg.alpha0, abs(gain),
                              noise_var)


def test_time_step_error_is_the_channel_richardson_estimate():
    # no second ensemble: the estimate is 2 |s(dt) - s(dt/2)| of the channel
    # negativity s, on the schedule snapped at dt
    cfg = ExperimentConfig(alpha0=2.0, n_bar=2.0, n_samples=400, jackknife_blocks=10,
                           signatures=("negativity",))
    scalars = run_point(cfg).scalars
    fine = _channel_negativity_at(cfg, cfg.dt)
    assert scalars["negativity_protocol"] == fine
    assert scalars["time_step_error"] > 0.0
    assert scalars["time_step_error"] == 2.0 * abs(fine - _channel_negativity_at(
        cfg, cfg.dt / 2.0))
    assert scalars["error_quadrature_sum"] == math.hypot(scalars["sampling_error"],
                                                         scalars["time_step_error"])


def test_time_step_error_brackets_the_direct_difference():
    # against |s(dt) - s(dt/16)| at every fig10 point: the estimate may
    # overshoot by up to 2x, never undershoot; where the direct difference
    # vanishes (past the lifetime bound) so does the estimate.  The estimate
    # depends on the channel alone, so a small ensemble gives the same value.
    for _, sub in sweep_points(preset("fig10")):
        sub = replace(sub, n_samples=400, jackknife_blocks=10)
        estimate = run_point(sub).scalars["time_step_error"]
        direct = abs(_channel_negativity_at(sub, sub.dt)
                     - _channel_negativity_at(sub, sub.dt / 16.0))
        if direct == 0.0:
            assert estimate == 0.0
        else:
            assert 0.99 * direct <= estimate <= 2.0 * direct


def test_noiseless_rows_match_the_protocol_reference(tmp_path):
    # four weighted points carry the exact cat, the off-diagonal weight is
    # exact to rounding at every alpha0, and the estimate and the closed
    # form are evaluated at the same points, so a noiseless run's negativity
    # is the channel's to a few ulps; past the bound both read 0
    for name in ("fig9", "fig12"):
        rows = run_sweep(preset(name), tmp_path / name)
        for row in rows:
            s = row["scalars"]
            assert s["sampling_error"] == 0.0
            assert abs(s["negativity"] - s["negativity_protocol"]) <= \
                2e-15 * s["negativity_protocol"]


@pytest.mark.parametrize("name", ["fig9", "fig12"])
def test_noiseless_points_past_the_bound_read_plus_zero(name):
    # past the lifetime bound (q_channel <= 0) the channel leaves no
    # negative volume: the estimate and both closed forms read +0.0, never
    # -0.0, which would print as "-0"
    past = [sub for _, sub in sweep_points(preset(name))
            if q_channel(*protocol_channel(sub.system_params(), sub.schedule())) <= 0.0]
    assert past
    for sub in past:
        scalars = run_point(sub).scalars
        for key in ("negativity", "negativity_protocol", "negativity_oracle"):
            if key in scalars:
                assert scalars[key] == 0.0 and math.copysign(1.0, scalars[key]) == 1.0, key


def test_run_point_evaluates_each_channel_once(monkeypatch):
    # the run's channel serves its ensemble and its protocol reference; the
    # time-step error adds one channel at dt/2
    calls = []
    original = engine.protocol_channel

    def counted(params, schedule):
        calls.append(schedule.dt)
        return original(params, schedule)

    monkeypatch.setattr(engine, "protocol_channel", counted)
    cfg = ExperimentConfig(alpha0=2.0, n_bar=2.0, n_samples=400, jackknife_blocks=10,
                           signatures=("negativity",))
    scalars = run_point(cfg).scalars
    assert "negativity_protocol" in scalars and "time_step_error" in scalars
    assert calls == [cfg.dt, cfg.dt / 2.0]


def _count_channel_walks(monkeypatch) -> list:
    """Record the step of every true protocol-channel evaluation: each one
    walks the write window once."""
    calls = []
    original = engine._write_walk

    def counted(params, schedule, *rest):
        calls.append(schedule.dt)
        return original(params, schedule, *rest)

    monkeypatch.setattr(engine, "_write_walk", counted)
    return calls


def _exact(scalars: dict) -> str:
    # floats as their shortest repr, which tells every bit pattern apart
    return json.dumps(scalars, sort_keys=True)


@pytest.mark.parametrize("name, distinct", [("fig9", 8), ("table1", 1)])
def test_sweep_evaluates_each_channel_once_per_call(tmp_path, monkeypatch, name, distinct):
    # the alpha0 points of one storage time share its dt channel and, with
    # the negativity, its dt/2 channel: fig9 has 4 storage times, table1
    # one and no negativity.  The channels live for one run_sweep call, so
    # a second sweep evaluates them again.  A point run alone evaluates its
    # own and gives the row's scalars bit for bit.
    config = preset(name)
    calls = _count_channel_walks(monkeypatch)
    first = run_sweep(config, tmp_path / "first")
    assert len(calls) == distinct
    second = run_sweep(config, tmp_path / "second")
    assert len(calls) == 2 * distinct
    assert [_exact(r["scalars"]) for r in second] == [_exact(r["scalars"]) for r in first]
    calls.clear()
    per_point = 2 if "negativity" in config.signatures else 1
    for row, (_, sub) in zip(first, sweep_points(config)):
        assert _exact(run_point(sub).scalars) == _exact(row["scalars"])
    assert len(calls) == per_point * len(first)


def test_resumed_sweep_writes_the_same_csv(tmp_path, monkeypatch):
    # with every other checkpoint gone, the resumed fig9 sweep fills its
    # channels from the points it recomputes: two of each storage time's
    # four, so all eight channels again
    out = tmp_path / "fig9"
    run_sweep(preset("fig9"), out)
    first_csv = (out / "sweep.csv").read_bytes()
    for ckpt in sorted((out / "checkpoints").glob("point_*.json"))[::2]:
        ckpt.unlink()
    calls = _count_channel_walks(monkeypatch)
    run_sweep(preset("fig9"), out)
    assert len(calls) == 8
    assert (out / "sweep.csv").read_bytes() == first_csv


def test_noisy_manifest_records_the_band_guard(tmp_path):
    cfg = ExperimentConfig(alpha0=2.0, n_bar=2.0, n_samples=4000, jackknife_blocks=100,
                           signatures=("negativity",))
    point = run_point(cfg)
    manifest = write_run_artifacts(cfg, point, tmp_path, 0.0)
    saved = json.loads((tmp_path / "manifest.json").read_text())["scalars"]
    assert manifest["scalars"]["negativity_outside_band"] == \
        saved["negativity_outside_band"] == point.scalars["negativity_outside_band"]
    assert 0.0 <= saved["negativity_outside_band"] <= 1e-15


def test_manifests_record_the_kernel_expansion(tmp_path):
    # the Wigner expansion's rank K and truncation bound sit in the scalars
    # and in the field's meta of a run manifest, and in sweep rows: one term
    # per row on the noiseless point, clusters of many terms on noisy ones
    cfg = ExperimentConfig(alpha0=2.0, n_bar=2.0, n_samples=400, jackknife_blocks=10,
                           signatures=("wigner", "negativity"))
    write_run_artifacts(cfg, run_point(cfg), tmp_path / "run", 0.0)
    saved = json.loads((tmp_path / "run" / "manifest.json").read_text())
    scalars, meta = saved["scalars"], saved["artifacts"]["wigner"]["meta"]
    rank, bound = scalars["wigner_kernel_rank"], scalars["wigner_truncation_bound"]
    assert (meta["kernel_rank"], meta["truncation_bound"]) == (rank, bound)
    assert 4 < rank < 400 and 0.0 < bound <= 2.0 ** -59
    rows = run_sweep(replace(cfg, signatures=("negativity",), sweep=(("n_bar", (0.0, 2.0)),)),
                     tmp_path / "sweep")
    assert [(row["scalars"]["wigner_kernel_rank"], row["scalars"]["wigner_truncation_bound"])
            for row in rows] == [(4, 0.0), (rank, bound)]


def test_manifest_timings_stay_out_of_the_results(tmp_path):
    # two runs of one config repeat their scalars bit for bit; the seconds of
    # each pass go to the manifest's timings only
    cfg = ExperimentConfig(alpha0=2.0, n_bar=2.0, n_samples=400, jackknife_blocks=10,
                           signatures=("wigner", "negativity"))
    first, second = (write_run_artifacts(cfg, run_point(cfg), tmp_path / name, 0.0)
                     for name in ("first", "second"))
    assert first["scalars"] == second["scalars"]
    for manifest in (first, second):
        timings = manifest["timings"]
        assert set(timings) == {"channel_s", "sampling_s", "wigner_s", "jackknife_s",
                                "references_s", "time_step_s", "artifact_io_s"}
        assert all(isinstance(t, float) and math.isfinite(t) and t >= 0.0
                   for t in timings.values())
        assert not set(timings) & set(manifest["scalars"])
    assert (tmp_path / "first" / "wigner.csv").read_bytes() == \
        (tmp_path / "second" / "wigner.csv").read_bytes()
    saved = json.loads((tmp_path / "first" / "manifest.json").read_text())
    assert saved["timings"] == first["timings"]
    # sweep rows carry each point's timings beside its scalars, outside
    # them and outside the row digest
    noiseless = {"channel_s", "sampling_s", "wigner_s", "references_s", "time_step_s"}
    rows = run_sweep(replace(cfg, signatures=("negativity",),
                             sweep=(("n_bar", (0.0, 2.0)),)), tmp_path / "sweep")
    assert [set(row["timings"]) for row in rows] == [noiseless, noiseless | {"jackknife_s"}]
    assert all(not set(row["timings"]) & set(row["scalars"]) for row in rows)
    assert all(row["row_sha256"] == experiments._row_digest(dict(row, timings={}))
               for row in rows)
    saved = json.loads((tmp_path / "sweep" / "sweep_manifest.json").read_text())
    assert [row["timings"] for row in saved["rows"]] == [row["timings"] for row in rows]
    assert run_point(replace(cfg, n_bar=0.0)).timings.keys() == noiseless
    # every signature: the quadrature, density and moment passes are timed too
    every = replace(cfg, signatures=experiments.KNOWN_SIGNATURES)
    manifest = write_run_artifacts(every, run_point(every), tmp_path / "every", 0.0)
    passes = noiseless | {"jackknife_s", "p_distribution_s", "density_s", "moments_s"}
    assert set(manifest["timings"]) == passes | {"artifact_io_s"}
    assert not set(manifest["timings"]) & set(manifest["scalars"])
    row, = run_sweep(replace(every, sweep=(("n_bar", (2.0,)),)), tmp_path / "every_sweep")
    assert set(row["timings"]) == passes and not set(row["timings"]) & set(row["scalars"])
    assert row["row_sha256"] == experiments._row_digest(dict(row, timings={}))
    assert row["scalars"] == manifest["scalars"]


def test_sweep_column_of_the_band_guard(tmp_path):
    # a small fig10 sweep with a noiseless row added per time: the guard is
    # a number on noisy rows and blank on noiseless ones
    base = preset("fig10")
    cfg = replace(base, n_samples=400, jackknife_blocks=10,
                  sweep=(("n_bar", (0.0, 2.0)),) + base.sweep)
    run_sweep(cfg, tmp_path)
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    header = lines[1].split(",")
    col = header.index("negativity_outside_band")
    for line in lines[2:]:
        cells = line.split(",")
        if float(cells[header.index("n_bar")]) == 0.0:
            assert cells[col] == ""
        else:
            assert 0.0 <= float(cells[col]) <= 1e-15


def test_cli_import_skips_scipy_integrate():
    # `catmem run` and `catmem sweep` do not pay for the acceptance module's
    # scipy import; `catmem validate` imports it when it runs
    src = str(Path(catmem.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = ("import sys, catmem.cli; "
            "assert 'scipy.integrate' not in sys.modules, 'scipy.integrate imported'; "
            "assert 'catmem.acceptance' not in sys.modules, 'acceptance imported'")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr


def test_manifests_record_the_blas_setup(tmp_path):
    # in a fresh process with OPENBLAS_NUM_THREADS=1, both manifests record
    # the library, one BLAS thread and the usable CPUs; none of it enters
    # the scalars, the fingerprint or the row digests
    src = str(Path(catmem.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    run_cfg = tmp_path / "run.cfg"
    run_cfg.write_text("n_bar = 2\nn_samples = 400\njackknife_blocks = 10\n"
                       "signatures = negativity\n")
    sweep_cfg = tmp_path / "sweep.cfg"
    sweep_cfg.write_text("sweep.n_bar = 0, 2\nn_samples = 400\njackknife_blocks = 10\n"
                         "signatures = negativity\n")
    code = ("import sys; from catmem.cli import main; "
            "assert main(['run', '--config', sys.argv[1], '--out', sys.argv[2]]) == 0; "
            "assert main(['sweep', '--config', sys.argv[3], '--out', sys.argv[4]]) == 0")
    result = subprocess.run([sys.executable, "-c", code, str(run_cfg), str(tmp_path / "run"),
                             str(sweep_cfg), str(tmp_path / "sweep")],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    run = json.loads((tmp_path / "run" / "manifest.json").read_text())
    sweep = json.loads((tmp_path / "sweep" / "sweep_manifest.json").read_text())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    bundled = blas["name"] == "scipy-openblas"
    for manifest in (run, sweep):
        assert manifest["blas"] == {"library": f"{blas['name']} {blas['version']}",
                                    "threads": 1 if bundled else None,
                                    "usable_cpus": experiments._usable_cpus()}
    assert "blas" not in run["scalars"]
    assert run["config_sha256"] == config_fingerprint(
        load_config(run_cfg, ExperimentConfig()))
    for row in sweep["rows"]:
        assert "blas" not in row and "blas" not in row["scalars"]
        assert row["row_sha256"] == experiments._row_digest(row)


def test_presets_resolve_and_validate():
    for name in PRESETS:
        cfg = preset(name)
        cfg.validate()
    assert preset("fig10").n_samples == 200_000
    assert preset("table1").sweep[0][0] == "alpha0"
    assert preset("fig12").gamma_int == 0.05
    with pytest.raises(ConfigError):
        preset("nope")


def test_run_dry_run(capsys):
    assert main(["run", "--preset", "fig5", "--dry-run"]) == 0
    out = capsys.readouterr().out
    assert "dry run; would execute:" in out
    assert "alpha0=5" in out
    assert "manifest.json" in out and "p_distribution.csv" in out


def test_sweep_dry_run(capsys):
    assert main(["sweep", "--preset", "fig9", "--dry-run"]) == 0
    out = capsys.readouterr().out
    assert "dry run; 16 points:" in out
    assert out.count("t_store=") == 16


def test_sweep_without_axes_fails(capsys):
    assert main(["sweep", "--dry-run"]) == 2
    assert "no sweep axes" in capsys.readouterr().err


def test_oracle_queries(capsys):
    assert main(["oracle", "t_positive", "n_bar=0", "gamma=1"]) == 0
    assert "t_positive = 0.346574" in capsys.readouterr().out

    assert main(["oracle", "t_p_bound", "n_bar=0", "gamma=1"]) == 0
    assert "t_p_bound = inf" in capsys.readouterr().out

    assert main(["oracle", "transfer_amplitude", "gamma_int=0.05"]) == 0
    assert "transfer_amplitude = 0.97449" in capsys.readouterr().out

    assert main(["oracle", "decohered_density", "t=0.1", "alpha0=2", "gamma=1"]) == 0
    out = capsys.readouterr().out
    assert "amplitude = " in out and "coefficient = " in out

    assert main(["oracle", "q_channel", "gain=0.9", "noise_var=0.1"]) == 0
    assert "q_channel = 0.21\n" in capsys.readouterr().out


@pytest.mark.parametrize("args,message", [
    (["q_channel", "gain=0.9", "noise_var=-1"], "noise_var must be non-negative"),
    (["q_parameter", "t=-1"], "t must be non-negative"),
    (["q_parameter", "t=0.1", "n_bar=-0.5"], "n_bar must be non-negative"),
    (["q_parameter", "t=0.1", "gamma=-1"], "gamma must be non-negative"),
    (["decohered_density", "t=0.1", "alpha0=2", "gamma=-1"], "gamma must be non-negative"),
    (["negativity", "alpha0=2", "t=0.02", "gamma=-1"], "gamma must be non-negative"),
    (["negativity", "alpha0=2", "n_bar=-1", "t=0.02"], "n_bar must be non-negative")])
def test_oracle_margins_reject_negative_parameters(capsys, args, message):
    # they printed q_channel = 1.31, q_parameter = 6.88906 or 0.721403, a
    # coherence of 5.87803 and a negativity of 0.414996 with exit code 0;
    # n_bar = -1 failed naming noise_var, which the query does not read
    assert main(["oracle", *args]) == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err


def test_oracle_negativity_defaults_to_unit_gamma(capsys):
    # like t_positive and q_parameter, t is in units of 1/gamma with gamma = 1
    assert main(["oracle", "negativity", "alpha0=2", "n_bar=2", "t=0.02"]) == 0
    assert capsys.readouterr().out == "negativity = 0.063949\n"
    assert main(["oracle", "negativity", "alpha0=2", "n_bar=2", "t=0.0911608"]) == 0
    assert capsys.readouterr().out == "negativity = 0\n"


def test_oracle_writes_json(tmp_path, capsys):
    out = tmp_path / "oracle_out"
    assert main(["oracle", "cat_variance", "alpha0=1", "--out", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads((out / "oracle.json").read_text())
    assert payload["query"] == "cat_variance"
    assert payload["values"]["cat_variance"] == pytest.approx(0.26158, abs=1e-4)


class _HalfWriter:
    """A file stand-in that writes the first half of its data, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        self.fh.flush()
        raise OSError("write failed")


def test_interrupted_oracle_write_keeps_previous_json(tmp_path, capsys, monkeypatch):
    out = tmp_path / "oracle_out"
    assert main(["oracle", "cat_variance", "alpha0=1", "--out", str(out)]) == 0
    before = (out / "oracle.json").read_bytes()
    real_open_atomic = experiments.open_atomic

    @contextmanager
    def failing_open_atomic(path):
        with real_open_atomic(path) as fh:
            yield _HalfWriter(fh)

    monkeypatch.setattr(experiments, "open_atomic", failing_open_atomic)
    with pytest.raises(OSError, match="write failed"):
        main(["oracle", "cat_variance", "alpha0=2", "--out", str(out)])
    capsys.readouterr()
    assert sorted(p.name for p in out.iterdir()) == ["oracle.json"]
    assert (out / "oracle.json").read_bytes() == before


def test_oracle_error_paths(capsys):
    assert main(["oracle", "no_such_quantity"]) == 2
    assert capsys.readouterr().err == "error: unknown oracle query 'no_such_quantity'\n"
    assert main(["oracle", "q_parameter", "gamma=1"]) == 2  # missing t
    assert capsys.readouterr().err == \
        "error: oracle query 'q_parameter' needs the parameter 't'\n"
    assert main(["oracle", "t_positive", "gamma"]) == 2  # not key=value
    assert capsys.readouterr().err == "error: expected key=value, got 'gamma'\n"
    assert main(["oracle", "q_channel", "noise_var=0.1"]) == 2  # missing gain
    assert capsys.readouterr().err == \
        "error: oracle query 'q_channel' needs the parameter 'gain'\n"
    # a repeated parameter is an error, as a repeated config key is
    assert main(["oracle", "t_positive", "n_bar=1", "n_bar=2", "gamma=1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: parameter 'n_bar' is given twice\n"


@pytest.mark.parametrize("args, key, reads", [
    (["t_positive", "nbar=2", "gamma=1"], "nbar", "n_bar, gamma"),
    (["negativity", "alpha0=2", "nbar=2", "t=0.02"], "nbar", "alpha0, n_bar, t, gamma"),
    (["cat_variance", "alpha0=2", "gamma=1"], "gamma", "alpha0"),
    (["q_channel", "gain=0.9", "noise=0.1"], "noise", "gain, noise_var")])
def test_oracle_rejects_a_parameter_the_query_does_not_read(capsys, args, key, reads):
    # a misspelled key is an error, not a silent default: nbar=2 would
    # otherwise print the n_bar = 0 bound
    assert main(["oracle", *args]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: oracle query {args[0]!r} reads no parameter {key!r}; it reads {reads}\n"


def test_oracle_cat_variance_of_a_negative_amplitude(capsys):
    # the even cat of -alpha0 is the same state
    assert main(["oracle", "cat_variance", "alpha0=-2"]) == 0
    negative = capsys.readouterr().out
    assert main(["oracle", "cat_variance", "alpha0=2"]) == 0
    assert negative == capsys.readouterr().out == "cat_variance = 0.497317\n"


@pytest.mark.parametrize("alpha0", ["1e300", "-18.9", "0"])
def test_oracle_alpha0_takes_the_config_bounds(capsys, alpha0):
    # the oracle's alpha0 takes the bounds every config applies: nonzero
    # and |alpha0| <= 18.8
    assert main(["oracle", "cat_variance", f"alpha0={alpha0}"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "alpha0" in err
    assert main(["oracle", "cat_variance", "alpha0=-18.8"]) == 0


@pytest.mark.parametrize("args", [["t_positive", "n_bar=nan", "gamma=1"],
                                  ["cat_variance", "alpha0=inf"],
                                  ["q_channel", "gain=0.9", "noise_var=-inf"],
                                  ["t_p_bound", "n_bar=0", "unused=nan"]])
def test_oracle_rejects_non_finite_parameters(capsys, args):
    # a non-finite parameter is a config error, as in a config file, not a
    # NaN result printed as inf
    assert main(["oracle", *args]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "must be finite" in err


def test_oracle_prints_a_genuine_infinity(capsys, tmp_path):
    # no noise: the p-representation stays positive for ever
    assert main(["oracle", "t_p_bound", "n_bar=0", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "t_p_bound = inf\n"
    assert json.loads((tmp_path / "oracle.json").read_text())["values"] == {"t_p_bound": "inf"}


def test_bad_seed_rejected(capsys):
    assert main(["run", "--preset", "fig5", "--seed", "-3", "--dry-run"]) == 2
    assert "config error" in capsys.readouterr().err


def test_validate_dry_run(capsys):
    assert main(["validate", "--dry-run"]) == 0
    out = capsys.readouterr().out
    assert "acceptance criteria:" in out
    for number in range(1, 10):
        assert f"{number}. " in out


def test_validate_results_serialise():
    # criterion 7 decides its clauses on numpy scalars; validate.json still
    # needs a JSON boolean for each criterion
    (result,) = run_criteria([7])
    assert json.loads(json.dumps({"passed": result.passed})) == {"passed": True}


def test_run_writes_what_the_dry_run_lists(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_RUN.replace("signatures = p_distribution,",
                                    "signatures = p_distribution, wigner, density,"))
    assert main(["run", "--config", str(cfg), "--dry-run"]) == 0
    listed = capsys.readouterr().out.split("artifacts: ")[1].strip().split(", ")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in out.iterdir()) == sorted(listed) == [
        "density.csv", "manifest.json", "p_distribution.csv", "wigner.csv"]
    manifest = json.loads((out / "manifest.json").read_text())
    for info in manifest["artifacts"].values():
        assert set(info) == {"csv", "sha256", "axes", "meta"}


def test_run_writes_consistent_artifacts(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_RUN)
    out1 = tmp_path / "out1"
    assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    capsys.readouterr()

    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["scalars"]["mean_weight"] == 1.0
    assert "p_variance_out" in manifest["scalars"]
    assert manifest["config"]["alpha0"] == 1.0

    csv_path = out1 / "p_distribution.csv"
    first = csv_path.read_text().splitlines()[0]
    assert first == f"# manifest_sha256 = {manifest['config_sha256']}"
    assert set(manifest["artifacts"]) == {"p_distribution"}
    for info in manifest["artifacts"].values():
        assert info["sha256"] == hashlib.sha256((out1 / info["csv"]).read_bytes()).hexdigest()
    assert sorted(p.name for p in out1.iterdir()) == ["manifest.json", "p_distribution.csv"]

    # a rerun of the same configuration is byte-identical
    out2 = tmp_path / "out2"
    assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
    capsys.readouterr()
    assert (out2 / "p_distribution.csv").read_bytes() == csv_path.read_bytes()


def test_sweep_checkpoints_resume(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(TINY_SWEEP)
    out = tmp_path / "sweep_out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()

    csv_path = out / "sweep.csv"
    header = csv_path.read_text().splitlines()[1]
    assert header.startswith("alpha0,negativity,")
    first_bytes = csv_path.read_bytes()
    manifest = json.loads((out / "sweep_manifest.json").read_text())
    assert manifest["artifacts"]["sweep"] == {
        "csv": "sweep.csv", "sha256": hashlib.sha256(first_bytes).hexdigest()}
    assert not [p for p in out.rglob("*") if p.name.endswith(".tmp")]
    ckpts = sorted((out / "checkpoints").iterdir())
    assert [p.name for p in ckpts] == ["point_0000.json", "point_0001.json"]
    stamps = [os.stat(p).st_mtime_ns for p in ckpts]

    # second pass reuses both checkpoints untouched
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert [os.stat(p).st_mtime_ns for p in ckpts] == stamps
    assert csv_path.read_bytes() == first_bytes

    # a stale fingerprint forces that point to be recomputed
    stale = json.loads(ckpts[0].read_text())
    stale["config_sha256"] = "0" * 64
    ckpts[0].write_text(json.dumps(stale))
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert os.stat(ckpts[0]).st_mtime_ns != stamps[0]
    assert json.loads(ckpts[0].read_text())["config_sha256"] != "0" * 64
    assert csv_path.read_bytes() == first_bytes


def _stepped_engine_fingerprint(config):
    # config_fingerprint as it was before the engine version joined it
    payload = dataclasses.asdict(config)
    payload.pop("out_dir")
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("damage", ["old_engine", "truncated"])
def test_sweep_recomputes_bad_checkpoint(tmp_path, damage):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(TINY_SWEEP)
    config = load_config(cfg_path)
    out = tmp_path / "sweep_out"
    first = run_sweep(config, out)
    ckpt = out / "checkpoints" / "point_0000.json"
    text = ckpt.read_text()
    if damage == "old_engine":
        # a finished point of the stepped engine, whose numbers differ
        old = json.loads(text)
        old["config_sha256"] = _stepped_engine_fingerprint(replace(config, sweep=(),
                                                                   alpha0=1.0))
        old["scalars"]["p_variance_out"] = -1.0
        ckpt.write_text(json.dumps(old))
    else:
        # an interrupted write: a resume used to raise JSONDecodeError here
        ckpt.write_text(text[:len(text) // 2])
    rows = run_sweep(config, out)
    assert rows[0]["scalars"] == first[0]["scalars"]
    assert json.loads(ckpt.read_text()) == first[0] | {"wall_time_s": rows[0]["wall_time_s"],
                                                       "timings": rows[0]["timings"]}
    assert sorted(p.name for p in (out / "checkpoints").iterdir()) == [
        "point_0000.json", "point_0001.json"]


def test_sweep_recomputes_edited_checkpoint(tmp_path):
    # a checkpoint whose numbers were edited no longer matches its row digest
    config = replace(parse_config_text(TINY_SWEEP), signatures=("negativity",))
    out = tmp_path / "sweep_out"
    run_sweep(config, out)
    first_csv = (out / "sweep.csv").read_bytes()
    ckpt = out / "checkpoints" / "point_0000.json"
    edited = json.loads(ckpt.read_text())
    edited["scalars"]["negativity"] = 123.0
    ckpt.write_text(json.dumps(edited))
    rows = run_sweep(config, out)
    assert rows[0]["scalars"]["negativity"] != 123.0
    assert (out / "sweep.csv").read_bytes() == first_csv


def test_sweep_recomputes_checkpoint_without_timings(tmp_path, monkeypatch):
    # a row written before rows carried their timings has a valid digest
    # but not the row keys: it is recomputed, not trusted
    config = parse_config_text(TINY_SWEEP)
    out = tmp_path / "sweep_out"
    first = run_sweep(config, out)
    ckpt = out / "checkpoints" / "point_0001.json"
    ckpt.write_text(json.dumps({k: v for k, v in first[1].items() if k != "timings"}))
    recomputed = []
    original = experiments.run_point

    def counted(sub, channels=None):
        recomputed.append(sub.alpha0)
        return original(sub, channels)

    monkeypatch.setattr(experiments, "run_point", counted)
    rows = run_sweep(config, out)
    assert recomputed == [2.0]
    assert rows[1]["scalars"] == first[1]["scalars"]
    assert set(json.loads(ckpt.read_text())) == set(first[1])


def test_sweep_recomputes_incomplete_checkpoint(tmp_path):
    # a checkpoint with the right fingerprint but not the whole row is
    # recomputed, not read for entries it does not hold
    config = parse_config_text(TINY_SWEEP)
    out = tmp_path / "sweep_out"
    first = run_sweep(config, out)
    first_csv = (out / "sweep.csv").read_bytes()
    ckpt = out / "checkpoints" / "point_0001.json"
    for partial in ({"config_sha256": first[1]["config_sha256"]},
                    {k: v for k, v in first[1].items() if k != "scalars"}):
        ckpt.write_text(json.dumps(partial))
        rows = run_sweep(config, out)
        assert rows[1]["scalars"] == first[1]["scalars"]
        assert (out / "sweep.csv").read_bytes() == first_csv
