"""Per-layer spans for one `kronred` run, recorded from outside the package.

`Tracer.install` replaces the public functions the CLI calls through
(module attributes of kronred.cli, kronred.simulate, kronred.reduction
and kronred.variance) with wrappers that record a span per call: name,
start, end, parent span and a few counts taken from the call's
arguments and result.  Spans stay in memory and are written out when
the run ends.  `layer_metrics` turns one run's spans into the
per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

MODELS = ("reduced-xi", "reduced-naive", "full-linear", "full-nonlinear")


def _traj_counts(args, kwargs, result, cfg_pos):
    cfg = kwargs["cfg"] if "cfg" in kwargs else args[cfg_pos]
    arrays = [result.t, result.x, result.xdot, result.y, result.ydot]
    return {"model": cfg.model, "steps": len(result.t) - 1,
            "bytes": sum(a.nbytes for a in arrays if a is not None)}


# (module, attribute, span name, counts taken from args/kwargs/result)
WRAPS = (
    ("kronred.cli", "parse_grid_json", "grid.parse", None),
    ("kronred.cli", "parse_matpower_case", "grid.parse", None),
    ("kronred.cli", "with_sigma", "grid.parse", None),
    ("kronred.cli", "solve_fixed_point", "grid.fixed_point", None),
    ("kronred.simulate", "solve_fixed_point", "grid.fixed_point", None),
    ("kronred.cli", "build_jacobian", "grid.jacobian", None),
    ("kronred.simulate", "build_jacobian", "grid.jacobian", None),
    ("kronred.cli", "assemble_linearized", "grid.assemble", None),
    ("kronred.simulate", "assemble_linearized", "grid.assemble", None),
    ("kronred.reduction", "factor_fast_block", "reduction.factor", None),
    ("kronred.variance", "factor_fast_block", "reduction.factor", None),
    ("kronred.reduction", "schur_reduce", "reduction.schur", None),
    ("kronred.reduction", "noise_map", "reduction.noise_map", None),
    ("kronred.cli", "reduce_grid", "reduction.reduce_grid", None),
    ("kronred.simulate", "reduce_grid", "reduction.reduce_grid", None),
    ("kronred.cli", "eigendecompose_reduced", "variance.eigh", None),
    ("kronred.cli", "gamma_matrix", "variance.gamma", None),
    ("kronred.cli", "coi_variance", "variance.coi", None),
    ("kronred.variance", "frequency_variance_kernel", "variance.kernel", None),
    ("kronred.cli", "make_builder", "simulate.make_builder", None),
    ("kronred.simulate", "ou_sample_path", "simulate.ou", None),
    ("kronred.simulate", "integrate_reduced", "simulate.integrate",
     functools.partial(_traj_counts, cfg_pos=1)),
    ("kronred.simulate", "integrate_full_linear", "simulate.integrate",
     functools.partial(_traj_counts, cfg_pos=1)),
    ("kronred.simulate", "integrate_full_nonlinear", "simulate.integrate",
     functools.partial(_traj_counts, cfg_pos=2)),
    ("kronred.cli", "coi_frequency_variance_estimate", "simulate.stats", None),
)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.missing: list[str] = []

    def span(self, name: str, fn, counts=None):
        """Wrap ``fn`` so every call records a span named ``name``."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self.stack[-1] if self.stack else None,
                    "start": time.perf_counter()}
            self.spans.append(span)
            self.stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
            if counts is not None:
                # A changed signature or result type loses the counts,
                # never the run.
                try:
                    span.update(counts(args, kwargs, result))
                except (AttributeError, IndexError, KeyError, TypeError) as e:
                    span["counts_error"] = repr(e)
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every attribute in WRAPS; record the ones that do not exist.

        A missing attribute leaves its layer at 0 in the metrics; the run
        itself is unaffected.
        """
        for module_name, attr, name, counts in WRAPS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.span(name, fn, counts))

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "missing": self.missing}, fh)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Calls are sequential in one thread, so children never overlap.
    """
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - child[s["id"]] for s in spans]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    ``<name>_s`` is the summed self time of the spans with that name; the
    root span ``cli`` (all of ``main()``) gives ``cli.self_s``, the time
    no layer span covers.  Integrator self time excludes OU sampling and
    is reported per step for each model.
    """
    own = self_times(spans)
    totals = defaultdict(float)
    calls = defaultdict(int)
    model_s = defaultdict(float)
    model_steps = defaultdict(int)
    model_bytes = defaultdict(int)
    for s, t in zip(spans, own):
        totals[s["name"]] += t
        calls[s["name"]] += 1
        if s["name"] == "simulate.integrate" and "model" in s:
            model_s[s["model"]] += t
            model_steps[s["model"]] += s["steps"]
            model_bytes[s["model"]] += s["bytes"]

    m = {f"{name}_s": totals[name] for name in (
        "grid.parse", "grid.fixed_point", "grid.jacobian", "grid.assemble",
        "reduction.factor", "reduction.schur", "reduction.noise_map", "reduction.reduce_grid",
        "variance.eigh", "variance.gamma", "variance.coi", "variance.kernel",
        "simulate.make_builder", "simulate.ou", "simulate.stats")}
    m["grid.fixed_point_calls"] = calls["grid.fixed_point"]
    m["reduction.factor_calls"] = calls["reduction.factor"]
    for model in MODELS:
        steps = model_steps[model]
        m[f"simulate.{model}.us_per_step"] = 1e6 * model_s[model] / steps if steps else 0.0
    m["simulate.steps"] = sum(model_steps.values())
    m["simulate.trajectories"] = calls["simulate.integrate"]
    # The CLI holds one model's ensemble at a time.
    m["simulate.traj_mb"] = max(model_bytes.values(), default=0) / 2**20
    m["cli.self_s"] = totals["cli"]
    return m
