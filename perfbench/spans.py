"""In-memory span recorder and the per-layer metrics derived from its spans.

A span has a name, a start, an end and the id of the span that was open when
it began.  Spans are recorded by patching the public names that
``vcross.cli`` and ``vcross.experiments`` import (and the module attributes
the benchmark worker calls), so the package itself is never edited.  A target
that no longer exists is reported as unmeasured instead of failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import statistics
import time

# (module, attribute or Class.method, span name).  The cli and experiments
# rows patch the names those modules imported, which is what they call.
TARGETS = (
    ("vcross.cli", "load_config", "config.load"),
    ("vcross.cli", "resolve_ladder", "ladder.resolve"),
    ("vcross.cli", "compose_initial_data", "initial_data.compose"),
    ("vcross.cli", "run", "solver.run"),
    ("vcross.cli", "save_state", "solver.save_state"),
    ("vcross.cli", "write_series_csv", "series.write_csv"),
    ("vcross.cli", "check_perturbation_admissible", "model.admissibility"),
    ("vcross.cli", "integrate_variational", "model.integrate"),
    ("vcross.experiments", "default_growth_family", "experiments.family"),
    ("vcross.experiments", "run_growth_member", "experiments.run_growth_member"),
    ("vcross.experiments", "resolve_ladder", "ladder.resolve"),
    ("vcross.experiments", "compose_initial_data", "initial_data.compose"),
    ("vcross.experiments", "run", "solver.run"),
    ("vcross.solver", "save_state", "solver.save_state"),
    ("vcross.series", "write_series_csv", "series.write_csv"),
    ("vcross.manifest", "RunManifest.write", "manifest.write"),
    ("vcross.model", "TrajectoryPath.write_csv", "model.path_write"),
)

DIAGNOSTICS = ("grad_sup", "energy", "enstrophy", "h2", "l1", "l2", "l4", "linf")


class Tracer:
    """Records spans when enabled; otherwise every call is a no-op.

    ``recording`` pauses an enabled tracer: the patches stay installed, but no
    span is kept while it is False (the worker's warm-up run).
    """

    def __init__(self, enabled):
        self.enabled = enabled
        self.recording = enabled
        self.spans = []
        self.missing = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        if not (self.enabled and self.recording):
            yield {}
            return
        rec = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def timed(self, fn, name, before=None, after=None):
        """``fn`` wrapped in a span; hooks may rewrite arguments or annotate."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, rec)
            return result

        return wrapper

    def install(self):
        """Patch every target that still exists; remember the ones that do not."""
        if not self.enabled:
            return
        for module_name, attr, name in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            hooks = {}
            if name == "solver.run":
                hooks = self._run_hooks(fn)
            elif name == "model.integrate":
                hooks = {"after": _record_path_steps}
            setattr(owner, leaf, self.timed(fn, name, **hooks))

    def _run_hooks(self, fn):
        """Time each diagnostic callable passed to ``run``; count steps and samples."""
        solver = importlib.import_module("vcross.solver")
        signature = inspect.signature(fn)

        def before(args, kwargs):
            try:
                bound = signature.bind(*args, **kwargs)
            except TypeError:
                return args, kwargs
            if "diagnostics" not in signature.parameters:
                return args, kwargs
            diags = bound.arguments.get("diagnostics")
            if diags is None:
                diags = getattr(solver, "DEFAULT_DIAGNOSTICS", None)
            if not isinstance(diags, dict):
                return args, kwargs
            bound.arguments["diagnostics"] = {
                key: self.timed(call, f"solver.diag.{key}")
                for key, call in diags.items()
            }
            return bound.args, bound.kwargs

        def after(result, rec):
            rec["steps"] = getattr(result, "steps", None)
            series = getattr(result, "series", None) or {}
            rec["samples"] = len(next(iter(series.values()))) if series else 0

        return {"before": before, "after": after}


def _record_path_steps(path, rec):
    t = getattr(path, "t", None)
    rec["steps"] = len(t) - 1 if t is not None else None


# --- per-layer metrics ---------------------------------------------------------


def _duration(span):
    return span["end"] - span["start"]


def layer_metrics(spans, missing, traced_wall, untraced_wall, probe, probe_n):
    """Per-layer metrics of one traced run, as name -> (value, unit).

    Layers a workload does not call read 0; ``trace.unmeasured`` counts the
    patch targets that no longer exist in the package.
    """
    by_name = {}
    child_time = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + _duration(s)

    def self_time(s):
        return _duration(s) - child_time.get(s["id"], 0.0)

    def total(name):
        return sum(_duration(s) for s in by_name.get(name, ()))

    def mean_ms(name):
        found = by_name.get(name, ())
        return 1e3 * total(name) / len(found) if found else 0.0

    runs = by_name.get("solver.run", ())
    steps = sum(s.get("steps") or 0 for s in runs)
    samples = sum(s.get("samples") or 0 for s in runs)
    stepping_s = sum(self_time(s) for s in runs)
    step_ms = 1e3 * stepping_s / steps if steps else 0.0
    floor_ms = probe[probe_n]["step_floor_ms"]
    diag_s = sum(_duration(s) for s in spans if s["name"].startswith("solver.diag."))
    paths = by_name.get("model.integrate", ())
    path_steps = [s["steps"] for s in paths if s.get("steps") is not None]

    def per_sample_ms(seconds):
        return 1e3 * seconds / samples if samples else 0.0

    m = {
        "solver.steps": (steps, "count"),
        "solver.samples": (samples, "count"),
        "solver.step_ms": (step_ms, "ms"),
        "solver.stepping_s": (stepping_s, "s"),
        "solver.step_over_floor": (step_ms / floor_ms, "ratio"),
        "solver.sample_ms": (per_sample_ms(diag_s), "ms"),
    }
    for d in DIAGNOSTICS:
        m[f"solver.diag.{d}_ms"] = (per_sample_ms(total(f"solver.diag.{d}")), "ms")
    m.update(
        {
            "solver.save_state_ms": (mean_ms("solver.save_state"), "ms"),
            "series.write_csv_ms": (mean_ms("series.write_csv"), "ms"),
            "manifest.write_ms": (mean_ms("manifest.write"), "ms"),
            "cli.report_ms": (1e3 * total("cli.report"), "ms"),
            "model.integrate_ms": (mean_ms("model.integrate"), "ms"),
            "model.steps_per_path": (
                int(statistics.median(path_steps)) if path_steps else 0, "count"
            ),
            "model.paths": (len(paths), "count"),
            "model.path_write_ms": (mean_ms("model.path_write"), "ms"),
            "model.admissibility_ms": (1e3 * total("model.admissibility"), "ms"),
            "vcross.import_s": (total("vcross.import"), "s"),
            "config.load_ms": (1e3 * total("config.load"), "ms"),
            "ladder.resolve_ms": (1e3 * total("ladder.resolve"), "ms"),
            "initial_data.compose_ms": (1e3 * total("initial_data.compose"), "ms"),
            "experiments.family_ms": (1e3 * total("experiments.family"), "ms"),
            "cli.self_s": (
                sum(self_time(s) for s in spans if s["name"].startswith("cli.")), "s"
            ),
            "experiments.self_s": (
                sum(self_time(s) for s in by_name.get("experiments.run_growth_member", ())),
                "s",
            ),
            "trace.overhead_frac": (traced_wall / untraced_wall - 1.0, "ratio"),
            "trace.coverage_frac": (
                sum(_duration(s) for s in spans
                    if s["parent"] is None and s["name"] != "vcross.import") / traced_wall,
                "ratio",
            ),
            "trace.unmeasured": (len(missing), "count"),
        }
    )
    m.update(fft_metrics(probe, probe_n))
    return m


def fft_metrics(probe, n):
    """FFT-floor metrics at the workload's n, plus the floor at every probed n."""
    p = probe[n]
    flops = 2.5 * n * n * math.log2(n * n)
    m = {
        "fields.rfft2_ms": (p["rfft2_ms"], "ms"),
        "fields.irfft2_ms": (p["irfft2_ms"], "ms"),
        "fields.step_floor_ms": (p["step_floor_ms"], "ms"),
        "fields.rfft2_gflops_computed": (flops / (p["rfft2_ms"] * 1e-3) / 1e9, "GFLOP/s"),
        "fields.irfft2_batched4_ms": (p["irfft2_batched4_ms"], "ms"),
        "fields.irfft2_workers2_ms": (p["irfft2_workers2_ms"], "ms"),
    }
    for size in sorted(probe):
        m[f"fields.step_floor_n{size}_ms"] = (probe[size]["step_floor_ms"], "ms")
    return m
