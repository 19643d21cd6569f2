"""In-memory spans around catmem's public layer functions.

``Recorder.install`` replaces each function named in ``LAYERS`` by a wrapper
that records a span (name, start, end, parent, run id) and, for a few
layers, a work count computed from the call's arguments and return value.
The wrapper is bound everywhere the original was: in its own module, in
every ``catmem`` module that imported it by name, and on its class for
methods.  A name that no longer exists is reported as missing instead of
raising, so the benchmark keeps working when a layer is deleted or renamed.

Nothing here reaches into private functions: counts come from configs and
outputs, so a rewrite behind a public function does not break them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

ROOT_SPAN = "workload"


def _ensemble_steps(bound, result):
    """Steps integrated by run_ensemble: trajectories x (write + read steps).

    Storage uses a closed-form aggregate, so it adds no steps.
    """
    schedule = bound.arguments["schedule"]
    return {"engine.trajectory_steps": len(result) * (schedule.n_write + schedule.n_read)}


def _negativity_cells(bound, result):
    """Kernel cells of one negativity_with_error call.

    The full pass evaluates every sample on every grid cell; the jackknife
    deletes each block once and the blocks partition the ensemble, so it
    re-evaluates the same number of sample-cells.
    """
    cells = len(bound.arguments["results"]) * result["field"].values.size
    return {"signatures.negativity_cells": cells, "signatures.jackknife_cells": cells}


def _estimate_cells(bound, result):
    return {"signatures.estimate_cells": len(bound.arguments["results"]) * result.values.size}


def _run_artifact_bytes(bound, result):
    out = Path(bound.arguments["out_dir"])
    names = ["manifest.json"]
    for info in result["artifacts"].values():
        names += [info["csv"], info["json"]]
    return {"experiments.artifact_bytes": sum((out / n).stat().st_size for n in names)}


def _sweep_artifact_bytes(bound, result):
    out = Path(bound.arguments["out_dir"])
    files = [out / "sweep.csv", out / "sweep_manifest.json"]
    files += sorted((out / "checkpoints").glob("*.json"))
    return {"experiments.artifact_bytes": sum(f.stat().st_size for f in files)}


# (span name, module, attribute, count function or None).  Two attributes
# may share a span name when they form one layer; nested spans of the same
# name are then counted once in the layer's inclusive time.
LAYERS = (
    ("sampling.sample_cat", "catmem.sampling", "sample_cat", None),
    ("engine.run_ensemble", "catmem.engine", "run_ensemble", _ensemble_steps),
    ("engine.reference_gain", "catmem.engine", "reference_gain", None),
    ("engine.apply_phase_correction", "catmem.engine", "apply_phase_correction", None),
    ("signatures.negativity_with_error", "catmem.signatures", "negativity_with_error",
     _negativity_cells),
    ("signatures.wigner_estimate", "catmem.signatures", "wigner_estimate", _estimate_cells),
    ("signatures.p_distribution", "catmem.signatures", "p_distribution", None),
    ("signatures.reconstruct_density", "catmem.signatures", "reconstruct_density", None),
    ("signatures.moments", "catmem.signatures", "quadrature_moments", None),
    ("signatures.moments", "catmem.signatures", "p_variance", None),
    # The closed-form negativity behind the `negativity_oracle` scalar.
    ("oracle.negativity_oracle", "catmem.experiments", "oracle_negativity", None),
    ("experiments.run_point", "catmem.experiments", "run_point", None),
    ("experiments.run_sweep", "catmem.experiments", "run_sweep", _sweep_artifact_bytes),
    ("experiments.write_run_artifacts", "catmem.experiments", "write_run_artifacts",
     _run_artifact_bytes),
    ("model.GridField.to_csv", "catmem.model", "GridField.to_csv", None),
    ("model.GridField.to_json", "catmem.model", "GridField.to_json", None),
)

# Counts each count function may produce, so a failed count is named.
_COUNT_KEYS = {
    _ensemble_steps: ("engine.trajectory_steps",),
    _negativity_cells: ("signatures.negativity_cells", "signatures.jackknife_cells"),
    _estimate_cells: ("signatures.estimate_cells",),
    _run_artifact_bytes: ("experiments.artifact_bytes",),
    _sweep_artifact_bytes: ("experiments.artifact_bytes",),
}


class Recorder:
    """Collects spans and counts of one process; written out by the caller."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, run id]
        self.counts: Counter = Counter()
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._run = None

    def reset(self) -> None:
        """Drop the spans and counts recorded so far; keep what is missing."""
        self.spans, self.counts = [], Counter()
        self._stack, self._run = [], None

    @contextmanager
    def span(self, name: str, run=None):
        if run is not None:
            self._run = run
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._run])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def _wrap(self, name, func, count):
        signature = inspect.signature(func)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = func(*args, **kwargs)
            if count is not None:
                try:
                    self.counts.update(count(signature.bind(*args, **kwargs), result))
                except (AttributeError, KeyError, TypeError, OSError):
                    self.missing.update(_COUNT_KEYS[count])
            return result
        return wrapper

    def install(self, layers=LAYERS) -> None:
        """Wrap every available layer function; record the absent ones.

        A span name shared by several functions is missing only when all of
        them are.
        """
        installed = set()
        for name, module_name, attr, count in layers:
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.add(name)
                if count is not None:
                    self.missing.update(_COUNT_KEYS[count])
                continue
            installed.add(name)
            wrapper = self._wrap(name, original, count)
            if path:
                setattr(owner, leaf, wrapper)
                continue
            for module_key, module in list(sys.modules.items()):
                if module_key != "catmem" and not module_key.startswith("catmem."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        self.missing -= installed


def summarize(spans: list[list]) -> dict:
    """Per-name call counts, inclusive time and self time, plus the wall time.

    Self time is a span's duration minus the durations of its direct
    children; the children of one span never overlap because the workload
    runs on one thread.  Inclusive time skips spans nested in a span of the
    same name.  The self times of all spans add up to the wall time, the
    summed durations of the root spans.
    """
    calls: Counter = Counter()
    inclusive: defaultdict = defaultdict(float)
    self_s: defaultdict = defaultdict(float)
    wall = 0.0
    for name, start, end, parent, _ in spans:
        duration = end - start
        calls[name] += 1
        self_s[name] += duration
        if parent < 0:
            wall += duration
        else:
            self_s[spans[parent][0]] -= duration
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            inclusive[name] += duration
    return {"calls": dict(calls), "inclusive_s": dict(inclusive),
            "self_s": dict(self_s), "wall_s": wall}


# Derived metrics and the spans or counts they are computed from.
_DEPENDS = {
    "engine.steps_per_s": ("engine.trajectory_steps", "engine.run_ensemble"),
    "signatures.kernel_cells": ("signatures.negativity_cells", "signatures.jackknife_cells",
                                "signatures.estimate_cells"),
    "signatures.jackknife_redo_ratio": ("signatures.negativity_cells",
                                        "signatures.jackknife_cells"),
}


def missing_metrics(metric_names, missing) -> list[str]:
    """The metrics that depend on a span or count reported missing."""
    def gone(metric):
        sources = _DEPENDS.get(metric, ())
        return any(metric == m or metric.startswith(m + ".") or m in sources
                   for m in missing)
    return [metric for metric in metric_names if gone(metric)]


def layer_metrics(summary: dict, counts: dict) -> dict:
    """The per-layer metrics of one traced repetition, by metric name."""
    inc = summary["inclusive_s"]
    calls = summary["calls"]
    own = summary["self_s"]
    full = counts.get("signatures.negativity_cells", 0)
    jack = counts.get("signatures.jackknife_cells", 0)
    estimate = counts.get("signatures.estimate_cells", 0)
    steps = counts.get("engine.trajectory_steps", 0)
    ensemble_s = inc.get("engine.run_ensemble", 0.0)
    metrics = {
        "engine.trajectory_steps": steps,
        "engine.steps_per_s": steps / ensemble_s if ensemble_s > 0 else 0.0,
        "signatures.kernel_cells": full + jack + estimate,
        "signatures.jackknife_redo_ratio": jack / full if full > 0 else 0.0,
        "experiments.artifact_bytes": counts.get("experiments.artifact_bytes", 0),
        "experiments.run_point.self_s": own.get("experiments.run_point", 0.0),
        "experiments.run_sweep.self_s": own.get("experiments.run_sweep", 0.0),
        "trace.wall_s": summary["wall_s"],
        "trace.unattributed_s": own.get(ROOT_SPAN, 0.0),
    }
    for name, *_ in LAYERS:
        metrics[f"{name}.s"] = inc.get(name, 0.0)
        metrics[f"{name}.calls"] = calls.get(name, 0)
    return metrics
