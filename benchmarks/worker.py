"""One benchmark process: set up catmem, then run and check a workload repeatedly.

After set-up the process runs one untimed warm-up repetition, then timed
repetitions until --seconds (counted from process start) is used up, and
always at least one.  Every repetition writes into a fresh directory under
--out and removes it once checked.  With --setup-only it stops after
set-up; bench.py starts such processes to time set-up alone.

    python3 benchmarks/worker.py --workload thermal_point --seed 846290731 \
        --out bench_out/w0 --seconds 30 [--setup-only] [--trace]

The last line on stdout is one JSON object.  Output of catmem itself goes
to stderr.  The exit code is nonzero only when set-up fails; an exception
or a failed check inside the workload is reported in the JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np

import tracing

ROOT = Path(__file__).resolve().parent.parent
ALL_SIGNATURES = Path(__file__).resolve().parent / "all_signatures.conf"

# thermal_point size: small enough for several repetitions per run, large
# enough that per-trajectory work dominates; a quarter of it (6000 per
# branch) divides into the preset's 1000 jackknife blocks, so the blocks
# stay branch-balanced.
THERMAL_SAMPLES = 24_000


def _import_catmem(with_cli: bool):
    sys.path.insert(0, str(ROOT / "src"))
    import catmem
    from catmem import experiments
    if not Path(catmem.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"catmem imported from {catmem.__file__}, not from src/")
    if with_cli:
        from catmem import cli  # noqa: F401  (`catmem run` pays this import)
    return experiments


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def _tolerances() -> dict:
    """Pinned tolerances of acceptance criteria 3 and 9."""
    from catmem import acceptance
    return {"rel": acceptance.AGREEMENT_REL, "abs": acceptance.AGREEMENT_ABS,
            "norm": acceptance.WIGNER_NORM_TOL}


# -- thermal_point: run_point + write_run_artifacts on one fig10 point -------

def thermal_configs(experiments, seed):
    base = replace(experiments.preset("fig10"), n_samples=THERMAL_SAMPLES,
                   master_seed=seed)
    _, point = experiments.sweep_points(base)[0]  # t = 0.02/Gm
    return {"fig10": point}


def thermal_call(experiments, name, cfg, out):
    start = time.perf_counter()
    point = experiments.run_point(cfg)
    return experiments.write_run_artifacts(cfg, point, out, time.perf_counter() - start)


def thermal_check(experiments, cfg, manifest, out):
    s = manifest["scalars"]
    headline = {k: s[k] for k in ("negativity", "sampling_error", "time_step_error",
                                  "negativity_oracle", "reference_gain_abs")}
    checks = [
        (manifest["config_sha256"] == experiments.config_fingerprint(cfg),
         "manifest carries the config fingerprint"),
        (all(math.isfinite(v) for v in headline.values()), "headline scalars are finite"),
        (s["sampling_error"] > 0, "thermal point has a positive sampling error"),
    ]
    # Reported, not a gate: the pinned oracle covers storage only and is
    # biased at t = 0.02/Gm (acceptance criterion 6 fails on purpose).
    notes = {"negativity": s["negativity"], "sampling_error": s["sampling_error"],
             "negativity_oracle": s["negativity_oracle"],
             "z_oracle": (s["negativity"] - s["negativity_oracle"]) / s["sampling_error"]}
    return headline, checks, notes


# -- noiseless_sweep: run_sweep over the fig9 and fig12 presets, cold --------

def sweep_configs(experiments, seed):
    return {name: replace(experiments.preset(name), master_seed=seed)
            for name in ("fig9", "fig12")}


def sweep_call(experiments, name, cfg, out):
    return experiments.run_sweep(cfg, out)


def sweep_check(experiments, cfg, rows, out):
    tol = _tolerances()
    checks = [(len(rows) == len(experiments.sweep_points(cfg)), "one row per sweep point"),
              ((Path(out) / "sweep.csv").is_file(), "sweep.csv written")]
    for row in rows:
        s = row["scalars"]
        label = " ".join(f"{k}={v:g}" for k, v in row["labels"].items())
        checks.append((abs(s["wigner_norm"] - 1.0) <= tol["norm"],
                       f"{label}: wigner_norm {s['wigner_norm']:.7f} within {tol['norm']}"))
        if "negativity_oracle" in s:
            bound = max(tol["rel"] * s["negativity_oracle"], tol["abs"])
            checks.append((abs(s["negativity"] - s["negativity_oracle"]) <= bound,
                           f"{label}: negativity {s['negativity']:.5f} vs oracle "
                           f"{s['negativity_oracle']:.5f} within {bound:.5f}"))
    headline = [row["scalars"] for row in rows]
    return headline, checks, {"rows": len(rows)}


# -- fields_artifacts: `catmem run` for fig5 and fig6 with every signature ---

def fields_configs(experiments, seed):
    return {name: replace(experiments.load_config(ALL_SIGNATURES, experiments.preset(name)),
                          master_seed=seed)
            for name in ("fig5", "fig6")}


def fields_call(experiments, name, cfg, out):
    from catmem import cli
    argv = ["run", "--preset", name, "--config", str(ALL_SIGNATURES),
            "--seed", str(cfg.master_seed), "--out", str(out)]
    with redirect_stdout(sys.stderr):
        return cli.main(argv)


def fields_check(experiments, cfg, code, out):
    out = Path(out)
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    fingerprint = manifest["config_sha256"]
    checks = [(code == 0, f"catmem run exit code {code}"),
              (fingerprint == experiments.config_fingerprint(cfg),
               "manifest fingerprint matches the resolved config"),
              (set(manifest["artifacts"]) == {"p_distribution", "wigner", "density"},
               "one artifact per field signature")]
    hashes = {}
    for name, info in manifest["artifacts"].items():
        csv_path = out / info["csv"]
        data = csv_path.read_bytes()
        hashes[name] = hashlib.sha256(data).hexdigest()
        checks.append((hashes[name] == info["sha256"], f"{name}.csv hash matches manifest"))
        first = data.split(b"\n", 1)[0].decode()
        checks.append((first == f"# manifest_sha256 = {fingerprint}",
                       f"{name}.csv first line carries the fingerprint"))
    norm_tol = _tolerances()["norm"]
    norm = manifest["scalars"]["wigner_norm"]
    checks.append((abs(norm - 1.0) <= norm_tol, f"wigner_norm {norm:.7f} within {norm_tol}"))
    headline = {"scalars": manifest["scalars"], "artifacts": hashes}
    return headline, checks, {"negativity": manifest["scalars"]["negativity"]}


WORKLOADS = {
    "thermal_point": (False, thermal_configs, thermal_call, thermal_check),
    "noiseless_sweep": (False, sweep_configs, sweep_call, sweep_check),
    "fields_artifacts": (True, fields_configs, fields_call, fields_check),
}


def reference_s() -> float:
    """Seconds of a fixed computation that stands in for the host's speed.

    The host's speed drifts by up to a factor of two over minutes, so each
    operation's time is also reported in units of this computation, timed
    just before and just after it.  It mixes catmem's three kinds of work in
    about equal parts: many numpy calls on tiny arrays (the per-call path),
    one large vectorised complex exponential (the kernel path) and float
    formatting (the CSV path).  It does not touch catmem.
    """
    begin = time.perf_counter()
    x, mix = np.zeros(8), np.full((8, 8), 0.125)
    for _ in range(10_000):
        x = np.cos(x) @ mix + 0.5 * x
    phase = np.linspace(0.0, 1.0, 200_000)
    for _ in range(3):
        np.abs(np.exp(7j * phase)).sum()
    ",".join(f"{v:.10e}" for v in phase[:40_000])
    return time.perf_counter() - begin


def _repetition(experiments, configs, call, check, out, recorder) -> dict:
    """Run every operation of the workload once into `out`, then check it.

    The reference computation is timed before the first operation and after
    each one; an operation's `ref_s` is the mean of the two around it.
    """
    if recorder is not None:
        recorder.reset()
    ops, outputs = [], {}
    ref_before = reference_s()
    for name, cfg in configs.items():
        op = {"op": name, "errors": [], "digest": None, "notes": {}}
        scope = recorder.span(tracing.ROOT_SPAN, run=name) if recorder else nullcontext()
        begin = time.perf_counter()
        try:
            with scope:
                outputs[name] = call(experiments, name, cfg, out / name)
        except Exception as exc:  # a failed operation is counted, not fatal
            traceback.print_exc()
            op["errors"].append(f"{type(exc).__name__}: {exc}")
        op["wall_s"] = time.perf_counter() - begin
        ref_after = reference_s()
        op["ref_s"] = (ref_before + ref_after) / 2
        ref_before = ref_after
        ops.append(op)
    # Read before the checks, which load artifacts and catmem.acceptance.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for op, (name, cfg) in zip(ops, configs.items()):
        if op["errors"]:
            continue
        try:
            headline, checks, op["notes"] = check(experiments, cfg, outputs[name], out / name)
            op["digest"] = _digest(headline)
            op["errors"] = [text for ok, text in checks if not ok]
        except Exception as exc:
            traceback.print_exc()
            op["errors"].append(f"check raised {type(exc).__name__}: {exc}")
    shutil.rmtree(out, ignore_errors=True)

    rep = {"wall_s": sum(op["wall_s"] for op in ops),
           "wall_ref": sum(op["wall_s"] / op["ref_s"] for op in ops),
           "results": ops, "peak_rss_mb": peak_rss_mb}
    if recorder is not None:
        summary = tracing.summarize(recorder.spans)
        rep["trace"] = {"spans": recorder.spans, "counts": dict(recorder.counts),
                        "missing": sorted(recorder.missing),
                        "self_s": summary["self_s"],
                        "metrics": tracing.layer_metrics(summary, recorder.counts)}
    return rep


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed (default: catmem's DEFAULT_SEED)")
    parser.add_argument("--out", type=Path, help="scratch directory for artifacts")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="time budget from process start; at least one timed repetition")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    with_cli, make_configs, call, check = WORKLOADS[args.workload]

    start = time.perf_counter()
    experiments = _import_catmem(with_cli)
    seed = experiments.DEFAULT_SEED if args.seed is None else args.seed
    configs = make_configs(experiments, seed)
    for cfg in configs.values():
        cfg.validate()
    result = {"seed": seed, "setup_s": time.perf_counter() - start, "ops": list(configs)}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    # The warm-up pays first-call costs (lazy imports, allocator growth,
    # cold page and file caches) untimed and untraced; it is still checked.
    result["warmup"] = _repetition(experiments, configs, call, check, args.out / "warmup",
                                   None)
    recorder = tracing.Recorder() if args.trace else None
    if recorder is not None:
        recorder.install()
    reps, durations = [], []
    while True:
        begin = time.perf_counter()
        reps.append(_repetition(experiments, configs, call, check,
                                args.out / f"rep{len(reps)}", recorder))
        durations.append(time.perf_counter() - begin)
        # Start another repetition only while it should end less than half a
        # repetition past the budget.
        if time.perf_counter() - start + statistics.median(durations) / 2 >= args.seconds:
            break
    result["reps"] = reps
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
