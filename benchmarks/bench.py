"""catmem benchmark: run one workload for a fixed time, check it, print its metrics.

    python3 benchmarks/bench.py --workload thermal_point --seed 7 --seconds 20 --trace 0
    python3 benchmarks/bench.py --workload all --out benchmarks/BENCH_baseline.json

A run starts worker.py processes with the BLAS/OpenMP thread count pinned
to one.  The first only compiles catmem's bytecode and is not measured;
the next SETUP_PROCESSES only import catmem and resolve the configs, which
times set-up.  Then one measuring worker runs an untimed warm-up
repetition and timed repetitions until --seconds is used up.  With
--trace 1 the time is split between an untraced and a traced measuring
worker; the traced one records spans around each layer and gives the
per-layer metrics.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics of BENCHMARK.json with --trace 0,
its per-layer metrics with --trace 1.  `--workload all` runs every workload
both ways and prints one table.  See README.md for the workloads and the
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("thermal_point", "noiseless_sweep", "fields_artifacts")
# The noiseless workloads consume no random numbers: stratified sampling is
# deterministic and there is no bath noise, so the seed cannot change them.
SEED_FREE = ("noiseless_sweep", "fields_artifacts")
SETUP_PROCESSES = 5
WORKER_TIMEOUT_S = 60  # beyond the worker's own time budget
NPROC = len(os.sched_getaffinity(0))
# One BLAS thread: a second one does not make any workload faster on a
# 2-core machine, and spinning BLAS threads make the timing depend on what
# else the host is running.
BLAS_THREADS = 1


class WorkerFailed(RuntimeError):
    """A worker process exited abnormally or printed no result."""


def _worker(workload, seed, out=None, seconds=0.0, setup_only=False, trace=False) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seconds", str(seconds)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if out is not None:
        cmd += ["--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd.append("--trace")
    env = dict(os.environ)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = str(BLAS_THREADS)
    timeout = seconds + WORKER_TIMEOUT_S
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker exceeded {timeout:g} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise WorkerFailed(f"worker exited with code {proc.returncode}:\n{tail}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        raise WorkerFailed(f"worker printed no JSON result: {lines[-1][:200]}") from None


def environment() -> dict:
    """Where the numbers were measured."""
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    revision = dirty = None
    if (ROOT / ".git").exists():
        try:
            git = ["git", "-C", str(ROOT)]
            revision = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                                      text=True, timeout=30, check=True).stdout.strip()
            status = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout
            dirty = bool(status.strip())
        except (OSError, subprocess.SubprocessError):
            revision = dirty = None
    return {"nproc": NPROC, "blas_threads": BLAS_THREADS,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
            "machine": platform.machine(), "git_revision": revision, "git_dirty": dirty}


def run_workload(workload, seed, seconds, trace) -> dict:
    """Measure one workload; returns metrics, sample counts, failures and notes."""
    out_root = ROOT / "bench_out" / f"{workload}-{os.getpid()}"
    shutil.rmtree(out_root, ignore_errors=True)
    try:
        first = _worker(workload, seed, setup_only=True)  # compiles bytecode; unmeasured
        setups = [_worker(workload, seed, setup_only=True)["setup_s"]
                  for _ in range(SETUP_PROCESSES)]
        kinds = (False, True) if trace else (False,)
        workers = {traced: _worker(workload, seed, out=out_root / f"w{int(traced)}",
                                   seconds=seconds / len(kinds), trace=traced)
                   for traced in kinds}
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    attempted = failed = 0
    errors, reference = [], {}
    reps = []
    for traced, run in workers.items():
        setups.append(run["setup_s"])
        for k, rep in enumerate([run["warmup"]] + run["reps"]):
            label = ("traced " if traced else "") + ("warm-up" if k == 0 else f"rep {k}")
            for op in rep["results"]:
                attempted += 1
                problems = list(op["errors"])
                if (op["digest"] is not None
                        and reference.setdefault(op["op"], op["digest"]) != op["digest"]):
                    problems.append("headline scalars differ from the first run's")
                failed += bool(problems)
                errors += [f"{label} {op['op']}: {p}" for p in problems]
            if k > 0:
                reps.append(dict(rep, traced=traced))

    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    wall = statistics.median(r["wall_s"] for r in plain)
    wall_ref = statistics.median(r["wall_ref"] for r in plain)
    result = {
        "workload": workload, "seed": first["seed"], "attempted": attempted,
        "failed": failed, "errors": errors,
        "metrics": {"wall_s": wall, "wall_ref": wall_ref, "setup_s": statistics.median(setups),
                    "peak_rss_mb": workers[False]["warmup"]["peak_rss_mb"],
                    "failed_frac": failed / attempted},
        "samples": {"wall_s": len(plain), "wall_ref": len(plain), "setup_s": len(setups),
                    "peak_rss_mb": 1, "failed_frac": attempted},
        "spread": {"wall_s": (min(r["wall_s"] for r in plain), max(r["wall_s"] for r in plain))},
        "reference_s": statistics.median(op["ref_s"] for r in plain for op in r["results"]),
        "notes": {op["op"]: op["notes"] for op in plain[0]["results"]},
    }
    if workload == "thermal_point" and not plain[0]["results"][0]["errors"]:
        se = plain[0]["results"][0]["notes"]["sampling_error"]
        result["metrics"]["var_x_s"] = se ** 2 * wall
        result["samples"]["var_x_s"] = len(plain)
    if trace:
        per_layer = {name: statistics.median(r["trace"]["metrics"][name] for r in traced)
                     for name in traced[0]["trace"]["metrics"]}
        # In reference units, so that the host's drift between the two
        # measuring workers does not show up as tracing overhead.
        per_layer["trace_overhead_frac"] = (
            statistics.median(r["wall_ref"] for r in traced) / wall_ref - 1.0)
        middle = sorted(traced, key=lambda r: r["wall_s"])[(len(traced) - 1) // 2]
        result.update(per_layer=per_layer, traced_runs=len(traced),
                      missing=sorted({m for r in traced for m in r["trace"]["missing"]}),
                      self_s=middle["trace"]["self_s"], traced_wall_s=middle["wall_s"],
                      spans=[r["trace"]["spans"] for r in traced])
    return result


def _report_end_to_end(result) -> None:
    m, n = result["metrics"], result["samples"]
    lo, hi = result["spread"]["wall_s"]
    print(f"  wall_ref     {m['wall_ref']:10.4f} ref   "
          f"median of {n['wall_ref']} repetitions, wall time over the reference's")
    print(f"  wall_s       {m['wall_s']:10.4f} s     "
          f"median of {n['wall_s']} repetitions (min {lo:.4f}, max {hi:.4f}); "
          f"reference {result['reference_s']:.4f} s")
    print(f"  setup_s      {m['setup_s']:10.4f} s     "
          f"median of {n['setup_s']} fresh processes")
    print(f"  peak_rss_mb  {m['peak_rss_mb']:10.1f} MB    "
          "first repetition of a fresh process, before its checks")
    print(f"  failed_frac  {m['failed_frac']:10.4f} ratio "
          f"{result['failed']} of {result['attempted']} operations")
    if "var_x_s" in m:
        print(f"  var_x_s      {m['var_x_s']:10.4g} s     "
              f"sampling_error^2 x wall_s, {n['var_x_s']} repetitions")
    for op, notes in result["notes"].items():
        shown = ", ".join(f"{k}={v:.6g}" for k, v in notes.items())
        print(f"  {op}: {shown}")
    if "z_oracle" in result["notes"].get("fig10", {}):
        print("  (z_oracle = (negativity - negativity_oracle) / sampling_error is "
              "reported, not gated: the pinned oracle is biased at t=0.02/Gm)")
    for line in result["errors"]:
        print(f"  FAILED {line}")


def _report_per_layer(result, per_layer_spec) -> None:
    missing = set(tracing.missing_metrics([m["name"] for m in per_layer_spec],
                                          result["missing"]))
    print(f"  per-layer metrics, median of {result['traced_runs']} traced runs:")
    for spec in per_layer_spec:
        name = spec["name"]
        value = "missing" if name in missing else f"{result['per_layer'][name]:.6g}"
        print(f"    {name:<40} {value:>14} {spec['unit']}")
    print("  self time by span, traced run with the median wall time:")
    own = result["self_s"]
    for name, value in sorted(own.items(), key=lambda kv: -kv[1]):
        label = "(unattributed)" if name == tracing.ROOT_SPAN else name
        print(f"    {label:<40} {value:14.4f} s")
    print(f"    {'sum of self times':<40} {sum(own.values()):14.4f} s  "
          f"traced wall {result['traced_wall_s']:.4f} s")
    for line in result["errors"]:
        print(f"  FAILED {line}")


def _emit(result, spec, trace) -> dict:
    """The contract's JSON object for one workload run."""
    if trace:
        values, entries = result["per_layer"], spec["per_layer"]
        missing = set(tracing.missing_metrics([e["name"] for e in entries],
                                              result["missing"]))
        values = {k: 0.0 if k in missing else v for k, v in values.items()}
    else:
        values, entries = result["metrics"], spec["end_to_end"]
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {e["name"]: {"value": values[e["name"]], "unit": e["unit"]}
                        for e in entries}}


def _write_spans(result) -> None:
    path = ROOT / "bench_out" / f"trace_{result['workload']}.json"
    path.parent.mkdir(exist_ok=True)
    fields = ["name", "start", "end", "parent", "run"]
    path.write_text(json.dumps({"workload": result["workload"], "seed": result["seed"],
                                "fields": fields, "runs": result["spans"]}),
                    encoding="utf-8")
    print(f"  spans written to {path.relative_to(ROOT)}")


def _header(result, seconds, trace) -> None:
    seed_note = (" (noiseless: results do not depend on the seed by construction)"
                 if result["workload"] in SEED_FREE else "")
    print(f"workload {result['workload']}  seed {result['seed']}{seed_note}  "
          f"seconds {seconds}  trace {int(trace)}")


def _run_all(seed, seconds, out, spec, env) -> int:
    summary = {"environment": env, "seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        plain = run_workload(workload, seed, seconds, trace=False)
        traced = run_workload(workload, seed, seconds, trace=True)
        _header(plain, seconds, False)
        _report_end_to_end(plain)
        _report_per_layer(traced, spec["per_layer"])
        summary["seed"] = plain["seed"]
        summary["workloads"][workload] = {
            "attempted": plain["attempted"], "failed": plain["failed"],
            "end_to_end": {k: {"value": v, "samples": plain["samples"][k]}
                           for k, v in plain["metrics"].items()},
            "per_layer": _emit(traced, spec, True)["metrics"],
            "reference_s": plain["reference_s"], "missing": traced["missing"],
            "notes": plain["notes"]}
    print()
    print(f"{'workload':<18}{'wall_ref':>10}{'wall_s [s]':>12}{'setup_s [s]':>13}"
          f"{'peak_rss_mb [MB]':>18}{'failed_frac':>13}{'var_x_s [s]':>13}")
    for workload, entry in summary["workloads"].items():
        e2e = entry["end_to_end"]
        var = f"{e2e['var_x_s']['value']:.4g}" if "var_x_s" in e2e else "-"
        print(f"{workload:<18}{e2e['wall_ref']['value']:>10.2f}{e2e['wall_s']['value']:>12.3f}"
              f"{e2e['setup_s']['value']:>13.3f}"
              f"{e2e['peak_rss_mb']['value']:>18.1f}{e2e['failed_frac']['value']:>13.3f}"
              f"{var:>13}")
    if out is not None:
        Path(out).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n",
                             encoding="utf-8")
        print(f"wrote {out}")
    print(json.dumps(summary))
    return 0


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=_seed, default=None,
                        help="workload seed (default: catmem's DEFAULT_SEED)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --workload all: also write the summary here")
    args = parser.parse_args(argv)
    # SystemExit unwinds through subprocess.run, which kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "catmem" / "__init__.py").is_file():
        print(f"error: no catmem sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))
    try:
        if args.workload == "all":
            return _run_all(args.seed, args.seconds, args.out, spec, env)
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _header(result, args.seconds, args.trace)
    if args.trace:
        _report_per_layer(result, spec["per_layer"])
        _write_spans(result)
    else:
        _report_end_to_end(result)
    print(json.dumps(_emit(result, spec, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
