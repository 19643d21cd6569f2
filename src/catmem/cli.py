"""Command-line front-end: run, sweep, oracle and validate subcommands."""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

from .experiments import (ConfigError, ExperimentConfig, PRESETS, _write_atomic,
                          load_config, oracle_query, preset, run_point, run_sweep,
                          sweep_points, write_run_artifacts)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH",
                        help="flat key = value configuration file")
    parser.add_argument("--preset", choices=sorted(PRESETS),
                        help="named parameter set to start from")
    parser.add_argument("--seed", type=int, metavar="U64",
                        help="master RNG seed (overrides config)")
    parser.add_argument("--out", metavar="DIR",
                        help="artifact output directory")
    parser.add_argument("--dry-run", action="store_true",
                        help="print what would run without running it")


def _resolve(args) -> ExperimentConfig:
    base = preset(args.preset) if args.preset else ExperimentConfig()
    if args.config:
        base = load_config(args.config, base)
    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.out is not None:
        overrides["out_dir"] = args.out
    config = replace(base, **overrides) if overrides else base
    config.validate()
    return config


def _describe(config: ExperimentConfig) -> str:
    parts = [f"alpha0={config.alpha0:g}",
             f"t_store={config.t_store:g} ({config.t_store * config.gamma_m:g}/Gm)",
             f"n_bar={config.n_bar:g}", f"gamma_int={config.gamma_int:g}",
             f"n_samples={config.n_samples}", f"seed={config.master_seed}",
             f"signatures={','.join(config.signatures) or 'none'}"]
    return "  ".join(parts)


def _cmd_run(args) -> int:
    config = _resolve(args)
    if args.dry_run:
        print("dry run; would execute:")
        print("  " + _describe(config))
        planned = [f"{name}.csv" for name in config.signatures
                   if name in ("p_distribution", "wigner", "density")]
        print("  artifacts: manifest.json" + ("".join(", " + p for p in planned)))
        return 0
    start = time.perf_counter()
    try:
        point = run_point(config)
    except FloatingPointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    manifest = write_run_artifacts(config, point, config.out_dir,
                                   time.perf_counter() - start)
    print(f"wrote {Path(config.out_dir) / 'manifest.json'}")
    for key in ("negativity", "sampling_error", "negativity_outside_band",
                "time_step_error", "error_quadrature_sum", "p_variance_in",
                "p_variance_out", "mean_weight", "reference_gain_abs"):
        if key in manifest["scalars"]:
            print(f"  {key} = {manifest['scalars'][key]:.6g}")
    return 0


def _cmd_sweep(args) -> int:
    config = _resolve(args)
    if not config.sweep:
        print("error: no sweep axes configured (use a preset or sweep.* keys)",
              file=sys.stderr)
        return 2
    points = sweep_points(config)
    if args.dry_run:
        print(f"dry run; {len(points)} points:")
        for labels, _ in points:
            print("  " + " ".join(f"{k}={v:g}" for k, v in labels.items()))
        return 0
    try:
        run_sweep(config, config.out_dir, progress=print)
    except FloatingPointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {Path(config.out_dir) / 'sweep.csv'}")
    return 0


def _cmd_oracle(args) -> int:
    params = {}
    for token in args.params:
        if "=" not in token:
            print(f"error: expected key=value, got {token!r}", file=sys.stderr)
            return 2
        key, value = token.split("=", 1)
        if key.strip() in params:
            print(f"error: parameter {key.strip()!r} is given twice", file=sys.stderr)
            return 2
        params[key.strip()] = value.strip()
    try:
        values = oracle_query(args.query, params)
    except ValueError as exc:  # a ConfigError, or a domain error such as gamma <= 0
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for key, value in values.items():
        print(f"{key} = {value:.6g}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        safe = {k: (v if math.isfinite(v) else str(v)) for k, v in values.items()}
        _write_atomic(out / "oracle.json",
                      json.dumps({"query": args.query, "params": params, "values": safe},
                                 indent=2, sort_keys=True))
    return 0


def _cmd_validate(args) -> int:
    # imported here so that `run` and `sweep` skip the acceptance module and scipy
    from .acceptance import CRITERIA, run_criteria

    if args.dry_run:
        print("acceptance criteria:")
        for number, name, _ in CRITERIA:
            print(f"  {number}. {name}")
        return 0

    def progress(result):
        print(result.summary())
        for line in result.lines:
            print("    " + line)

    results = run_criteria(progress=progress)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        payload = [{"number": r.number, "name": r.name, "passed": r.passed,
                    "runtime_s": round(r.runtime_s, 3), "lines": r.lines}
                   for r in results]
        _write_atomic(out / "validate.json", json.dumps(payload, indent=2))
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)} / {len(results)} criteria passed")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="catmem",
        description="Stochastic phase-space simulator for a cat-state "
                    "optomechanical quantum memory.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment and write artifacts")
    _add_common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep with checkpoints")
    _add_common(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_oracle = sub.add_parser("oracle", help="evaluate a closed-form quantity")
    p_oracle.add_argument("query", help="oracle name, e.g. t_positive")
    p_oracle.add_argument("params", nargs="*", metavar="key=value",
                          help="query parameters")
    p_oracle.add_argument("--out", metavar="DIR", help="also write oracle.json")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_val = sub.add_parser("validate", help="run the acceptance criteria")
    p_val.add_argument("--out", metavar="DIR", help="also write validate.json")
    p_val.add_argument("--dry-run", action="store_true",
                       help="list the criteria without running them")
    p_val.set_defaults(func=_cmd_validate)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
