"""Configuration parsing, presets, and the command-line interface."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import catmem
from catmem import engine
from catmem.acceptance import WIGNER_NORM_TOL, run_criteria
from catmem.cli import main
from catmem.engine import protocol_channel
from catmem.experiments import (ALPHA0_MAX, ConfigError, ExperimentConfig,
                                PRESETS, config_fingerprint, load_config,
                                parse_config_text, preset, protocol_negativity,
                                run_point, run_sweep, sweep_points)
from catmem.model import ProtocolSchedule
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


@pytest.mark.parametrize("command,text", [
    ("run", "n_samples = 6"),
    ("run", "n_samples = 2"),
    ("run", "master_seed = -1"),
    ("run", "wigner_h = 0.1"),
    ("run", "dt = 0.7"),
    ("run", "t_write = abc"),
    ("run", "quad_step = 0"),
    ("run", "density_step = 0"),
    ("run", "alpha0 = nan"),
    ("run", "n_bar = 1\njackknife_blocks = 1"),
    ("sweep", "sweep.n_bar = -1, 2"),
    ("sweep", "sweep.alpha0 = 0, 2"),
])
def test_bad_config_values_are_config_errors(tmp_path, capsys, command, text):
    # caught before any work: otherwise the run raises a traceback deep in
    # the engine, writes NaN scalars (alpha0 = nan) or reports a noisy point
    # with a zero error bar (jackknife_blocks = 1)
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
    scalars = run_point(cfg, want_fields=False).scalars
    assert abs(scalars["wigner_norm"] - 1.0) <= WIGNER_NORM_TOL
    reference = protocol_negativity(ALPHA0_MAX,
                                    *protocol_channel(cfg.system_params(), cfg.schedule()),
                                    default_wigner_grid(ALPHA0_MAX))
    assert reference > 0.0
    assert scalars["negativity"] == pytest.approx(reference, rel=1e-10, abs=0.0)


def _channel_negativity_at(cfg, dt):
    """negativity_protocol of cfg's schedule evaluated at step dt."""
    schedule = cfg.schedule()
    channel = protocol_channel(cfg.system_params(),
                               ProtocolSchedule(schedule.t_write, schedule.t_store, dt))
    grid = default_wigner_grid(cfg.alpha0, cfg.wigner_h, cfg.wigner_pad)
    return protocol_negativity(cfg.alpha0, *channel, grid)


def test_time_step_error_is_the_channel_richardson_estimate():
    # no second ensemble: the estimate is 2 |s(dt) - s(dt/2)| of the channel
    # negativity s, on the schedule snapped at dt
    cfg = ExperimentConfig(alpha0=2.0, n_bar=2.0, n_samples=400, jackknife_blocks=10,
                           signatures=("negativity",))
    scalars = run_point(cfg, want_fields=False).scalars
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
        estimate = run_point(sub, want_fields=False).scalars["time_step_error"]
        direct = abs(_channel_negativity_at(sub, sub.dt)
                     - _channel_negativity_at(sub, sub.dt / 16.0))
        if direct == 0.0:
            assert estimate == 0.0
        else:
            assert 0.99 * direct <= estimate <= 2.0 * direct


def test_noiseless_rows_match_the_protocol_reference(tmp_path):
    # four weighted points carry the exact cat, so a noiseless run's
    # negativity is the channel's to rounding
    for name in ("fig9", "fig12"):
        rows = run_sweep(preset(name), tmp_path / name)
        for row in rows:
            s = row["scalars"]
            assert s["sampling_error"] == 0.0
            assert s["negativity"] == pytest.approx(s["negativity_protocol"],
                                                    rel=1e-8, abs=0.0)


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
    scalars = run_point(cfg, want_fields=False).scalars
    assert "negativity_protocol" in scalars and "time_step_error" in scalars
    assert calls == [cfg.dt, cfg.dt / 2.0]


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


def test_oracle_writes_json(tmp_path, capsys):
    out = tmp_path / "oracle_out"
    assert main(["oracle", "cat_variance", "alpha0=1", "--out", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads((out / "oracle.json").read_text())
    assert payload["query"] == "cat_variance"
    assert payload["values"]["cat_variance"] == pytest.approx(0.26158, abs=1e-4)


def test_oracle_error_paths(capsys):
    assert main(["oracle", "no_such_quantity"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["oracle", "q_parameter", "gamma=1"]) == 2  # missing t
    capsys.readouterr()
    assert main(["oracle", "t_positive", "gamma"]) == 2  # not key=value
    capsys.readouterr()


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
    assert sorted(p.name for p in out1.iterdir()) == [
        "manifest.json", "p_distribution.csv", "p_distribution.json"]

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
    assert json.loads(ckpt.read_text()) == first[0] | {"wall_time_s": rows[0]["wall_time_s"]}
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
