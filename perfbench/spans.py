"""Outside-in tracing of the simulator's layers.

Each traced function is replaced, for the duration of a traced run, by a
wrapper installed at the module attribute its caller looks up: harness
imports ``cluster_state`` by name, so that one is wrapped at
``harness.cluster_state``; everything else is reached through a module
attribute (``ia.ia_precoders``, ``power.waterfill``, ...), which also
catches calls made inside the owning module, such as ``power.allocate``
calling ``evaluate_candidate``.

Spans stay in memory until the run ends. A span's self time is its
duration minus the time covered by wrapped children.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import asdict, dataclass

# (module, attribute the caller looks up, span name)
TARGETS = (
    ("scenario", "load_scenario", "scenario.load_scenario"),
    ("harness", "cluster_state", "scenario.cluster_state"),
    ("channel", "correlation_matrix", "channel.correlation_matrix"),
    ("channel", "eigen_basis", "channel.eigen_basis"),
    ("channel", "dft_index_set", "channel.dft_index_set"),
    ("channel", "sample_channel", "channel.sample_channel"),
    ("prebeam", "edge_prebeam", "prebeam.edge_prebeam"),
    ("prebeam", "center_prebeam", "prebeam.center_prebeam"),
    ("ia", "dof_search", "ia.dof_search"),
    ("ia", "ia_precoders", "ia.ia_precoders"),
    ("ia", "effective_edge_channel", "ia.effective_edge_channel"),
    ("precode", "zf_inner", "precode.zf_inner"),
    ("power", "allocate", "power.allocate"),
    ("power", "evaluate_candidate", "power.evaluate_candidate"),
    ("power", "waterfill", "power.waterfill"),
    ("training", "design_training", "training.design_training"),
    ("training", "ls_estimate_edge", "training.ls_estimate_edge"),
    ("training", "ls_estimate_center", "training.ls_estimate_center"),
    ("training", "estimate_noise_cov", "training.estimate_noise_cov"),
    ("division", "overhead_factor", "division.overhead_factor"),
    ("division", "divide_clusters", "division.divide_clusters"),
    ("harness", "run", "harness.run"),
    ("harness", "build_geometry", "harness.build_geometry"),
    ("harness", "build_plan", "harness.build_plan"),
    ("harness", "draw_channels", "harness.draw_channels"),
    ("harness", "solve_links", "harness.solve_links"),
    ("harness", "evaluate_rates", "harness.evaluate_rates"),
    ("harness", "mse_trial", "harness.mse_trial"),
    ("harness", "adaptive_assignment", "harness.adaptive_assignment"),
    ("harness", "write_csv", "harness.write_csv"),
)

SPAN_NAMES = tuple(name for _, _, name in TARGETS)
LAYERS = tuple(dict.fromkeys(name.split(".")[0] for name in SPAN_NAMES))


@dataclass
class Span:
    id: int
    parent: int | None
    job: str
    name: str
    start: float
    end: float
    self_s: float
    error: str | None


class Tracer:
    """Installs the wrappers on entry and restores the originals on exit.

    ``job`` labels every span opened while it is set; the caller moves it
    from job to job.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.job = "setup"
        self._stack: list[list] = []   # [span id, time covered by children]
        self._next_id = 0
        self._saved = []

    def __enter__(self):
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(f"iassr_sim.{module_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc_info):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            frame = [tracer._next_id, 0.0]
            tracer._next_id += 1
            stack.append(frame)
            error = None
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                tracer.spans.append(Span(frame[0], parent, tracer.job, name, start,
                                         end, end - start - frame[1], error))

        return wrapper

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def layer_metrics(spans, trials):
    """Per-function calls, self time and errors, plus the derived counters
    the workloads are predicted to move. ``trials`` is the number of trials
    the traced jobs attempted."""
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
        out[f"{name}.errors"] = 0
    names = {}
    failed_ia_s = 0.0
    evals_in_allocate = 0
    for span in spans:
        names[span.id] = span.name
        out[f"{span.name}.calls"] += 1
        out[f"{span.name}.self_s"] += span.self_s
        if span.error is not None:
            out[f"{span.name}.errors"] += 1
            if span.name == "ia.ia_precoders":
                failed_ia_s += span.self_s
    for span in spans:
        if span.name == "power.evaluate_candidate" and names.get(span.parent) == "power.allocate":
            evals_in_allocate += 1
    ia_self = out["ia.ia_precoders.self_s"]
    out["ia.ia_precoders.failed_s"] = failed_ia_s
    out["ia.ia_precoders.failed_share"] = failed_ia_s / ia_self if ia_self > 0 else 0.0
    allocations = out["power.allocate.calls"]
    out["power.evals_per_allocate"] = evals_in_allocate / allocations if allocations else 0.0
    out["harness.solve_links_per_trial"] = (out["harness.solve_links.calls"] / trials
                                            if trials else 0.0)
    job_self = sum(s.self_s for s in spans if s.job != "setup")
    for layer in LAYERS:
        layer_self = sum(s.self_s for s in spans
                         if s.job != "setup" and s.name.startswith(layer + "."))
        out[f"{layer}.self_share"] = layer_self / job_self if job_self > 0 else 0.0
    return out
