"""Layer spans for minicheck, recorded from outside the program.

`install` wraps the public functions of each layer (the targets below) in
every loaded ``minicheck`` namespace that binds them, so a call through
``from .increment import reachable_set`` is traced as well as one through
``increment.reachable_set``.  A span records its name, start and end
(``time.perf_counter``, which is CLOCK_MONOTONIC and so comparable across
processes), its parent span and the counts its probe reads off the call's
arguments and result.  `op_metrics` turns the spans of one op into
per-layer self times and counts.

Each span also records the wrapper's own cost: the time the wrapper spends
outside the wrapped call (clock reads, the probe, the destabilization
count).  That cost lands in the parent span's self time; summed over an
op, with the one-time wrapping at process start, it is the op's
``trace.overhead_s``.

``consys`` and ``domains`` are not wrapped: they run beneath the solver and
postprocessing at millions of call sites, where a wrapper would distort the
timings.
"""

from __future__ import annotations

import collections
import functools
import sys
import time
from typing import Callable, Dict, List, Optional

LAYER_MODULES = {
    "syntax": "minicheck.minic.syntax",
    "cfg": "minicheck.minic.cfg",
    "system": "minicheck.minic.system",
    "tdsolver": "minicheck.tdsolver",
    "increment": "minicheck.increment",
    "postproc": "minicheck.postproc",
    "cli": "minicheck.cli",
}

# per-layer time metric -> the wrapped functions whose self time it sums
TIME_METRICS = {
    "syntax.parse_s": ["syntax.parse"],
    "cfg.assign_node_ids_s": ["cfg.assign_node_ids"],
    "cfg.build_cfgs_s": ["cfg.build_cfgs"],
    "system.build_system_s": ["system.build_system"],
    "tdsolver.run_s": ["tdsolver.run"],
    "tdsolver.verify_solution_s": ["tdsolver.verify_solution"],
    "tdsolver.state_to_json_s": ["tdsolver.state_to_json"],
    "tdsolver.state_from_json_s": ["tdsolver.state_from_json"],
    "increment.detect_changes_s": ["increment.detect_changes"],
    "increment.relabel_nodes_s": ["increment.relabel_nodes"],
    "increment.prepare_s": ["increment.prepare_plain", "increment.prepare_reluctant"],
    "increment.restart_s": ["increment.select_restart_globals", "increment.restart_globals"],
    "increment.reachable_set_s": ["increment.reachable_set"],
    "increment.prune_s": ["increment.prune"],
    "postproc.postprocess_s": ["postproc.postprocess"],
    "postproc.races_s": ["postproc.races"],
    "postproc.diff_warnings_s": ["postproc.diff_warnings"],
    "cli.load_bundle_s": ["cli.load_bundle"],
    "cli.save_bundle_s": ["cli.save_bundle"],
    "cli.pipeline_s": ["cli.main", "cli.cmd_analyze", "cli.cmd_reanalyze",
                       "cli.run_analysis", "cli.run_reanalysis"],
}

TARGETS = sorted({t for targets in TIME_METRICS.values() for t in targets})


def _run_counts(args, result) -> dict:
    evaluated = set(result["step1_evals_by_unknown"]) | set(result["step2_evals_by_unknown"])
    return {
        "step1_rhs_evals": result["step1_rhs_evals"],
        "step2_rhs_evals": result["step2_rhs_evals"],
        "evaluated_unknowns": len(evaluated),
    }


def _postprocess_counts(args, result) -> dict:
    _store, stats = result
    return {
        "reevaluated": len(stats["reevaluated"]),
        "reused": len(stats["reused"]),
        "sigma_unknowns": len(args[1].sigma),
    }


PROBES: Dict[str, Callable] = {
    "syntax.parse": lambda args, result: {"parse_calls": 1},
    "tdsolver.run": _run_counts,
    "increment.restart_globals": lambda args, result: {"restarted_globals": len(args[0])},
    "postproc.postprocess": _postprocess_counts,
}

# per-layer count metric -> (the target whose probe supplies it, how an op's
# summed counts give its value)
COUNT_METRICS = {
    "tdsolver.rhs_evals": ("tdsolver.run", lambda c: c["step1_rhs_evals"] + c["step2_rhs_evals"]),
    "tdsolver.step1_rhs_evals": ("tdsolver.run", lambda c: c["step1_rhs_evals"]),
    "tdsolver.step2_rhs_evals": ("tdsolver.run", lambda c: c["step2_rhs_evals"]),
    "tdsolver.evals_per_unknown": (
        "tdsolver.run",
        lambda c: (c["step1_rhs_evals"] + c["step2_rhs_evals"]) / c["evaluated_unknowns"]
        if c["evaluated_unknowns"] else 0.0),
    "tdsolver.destabilizations": ("tdsolver.run", lambda c: c["destabilizations"]),
    "tdsolver.sigma_unknowns": ("postproc.postprocess", lambda c: c["sigma_unknowns"]),
    "increment.restarted_globals": ("increment.restart_globals",
                                    lambda c: c["restarted_globals"]),
    "postproc.reevaluated": ("postproc.postprocess", lambda c: c["reevaluated"]),
    "postproc.reused": ("postproc.postprocess", lambda c: c["reused"]),
    "postproc.reuse_ratio": (
        "postproc.postprocess",
        lambda c: c["reused"] / (c["reused"] + c["reevaluated"])
        if c["reused"] + c["reevaluated"] else 0.0),
    "syntax.parse_calls": ("syntax.parse", lambda c: c["parse_calls"]),
}


class Tracer:
    """Spans of one analyzer process, kept in memory until it exits.

    A span of a call that takes the solver state also records how many
    destabilizations happened during it, unless an enclosing span already
    does, so that summing over an op's spans counts each one once."""

    def __init__(self):
        self.spans: List[dict] = []
        self.missing: List[str] = []
        self.install_s = 0.0
        self._stack: List[int] = []
        self._state_depth = 0

    def wrap(self, name: str, fn: Callable, probe: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            span = {"name": name, "parent": tracer._stack[-1] if tracer._stack else None,
                    "counts": {}}
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            state = None if tracer._state_depth else _solver_state(args)
            if state is not None:
                tracer._state_depth += 1
                before = state.destabilizations
            span["t0"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["t1"] = time.perf_counter()
                tracer._stack.pop()
                if state is not None:
                    tracer._state_depth -= 1
            counts = span["counts"]
            if state is not None:
                counts["destabilizations"] = state.destabilizations - before
            if probe is not None:
                try:
                    counts.update(probe(args, result))
                except (KeyError, IndexError, TypeError, AttributeError, ValueError) as exc:
                    failure = f"{name} (probe failed: {exc!r})"
                    if failure not in tracer.missing:
                        tracer.missing.append(failure)
            span["overhead"] = span["t0"] - entered + time.perf_counter() - span["t1"]
            return result

        return traced


def _solver_state(args):
    for a in args:
        if hasattr(a, "destabilizations") and hasattr(a, "sigma"):
            return a
    return None


def install(tracer: Tracer) -> None:
    """Wrap every target in every ``minicheck`` namespace that binds it;
    a target that no longer exists is listed in ``tracer.missing``."""
    import minicheck.cli  # noqa: F401  (loads every layer)

    start = time.perf_counter()
    namespaces = [m for name, m in sorted(sys.modules.items())
                  if name == "minicheck" or name.startswith("minicheck.")]
    for target in TARGETS:
        layer, fn_name = target.split(".")
        module = sys.modules.get(LAYER_MODULES[layer])
        original = getattr(module, fn_name, None)
        if not callable(original):
            tracer.missing.append(target)
            continue
        wrapper = tracer.wrap(target, original, PROBES.get(target))
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, attr, wrapper)
    tracer.install_s = time.perf_counter() - start


def missing_metrics(missing: List[str]) -> List[str]:
    """Per-layer metrics that cannot be reported because every target
    feeding them is missing (or its probe failed)."""
    broken = {m.split(" ")[0] for m in missing}
    out = [m for m, targets in TIME_METRICS.items() if set(targets) <= broken]
    out += [m for m, (target, _) in COUNT_METRICS.items() if target in broken]
    return sorted(out)


def op_metrics(spans: List[dict], selected: List[int], missing: List[str],
               wall: float, install_s: float = 0.0) -> Dict[str, float]:
    """Per-layer self times and counts of one op of `wall` seconds: the
    spans at indices `selected` of `spans`.  A span's self time is its
    duration minus the durations of its child spans.  `install_s` is the
    wrapping the op paid for at its process's start (a CLI op's own
    process), which counts in its tracing overhead.

    ``cli.outside_spans_s`` is the op's wall time that no span covers: for a
    CLI op, interpreter start, imports and exit around ``cli.main``; for a
    serve request, reading, decoding, encoding and writing it."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["t1"] - s["t0"]
    by_name: Dict[str, float] = collections.defaultdict(float)
    counts: Dict[str, float] = collections.defaultdict(int)
    inside = set(selected)
    covered = overhead = 0.0
    for i in selected:
        s = spans[i]
        by_name[s["name"]] += s["t1"] - s["t0"] - child_time[i]
        for k, v in s["counts"].items():
            counts[k] += v
        overhead += s.get("overhead", 0.0)
        if s["parent"] not in inside:
            covered += s["t1"] - s["t0"]
    skip = set(missing_metrics(missing))
    out = {m: sum(by_name[t] for t in targets)
           for m, targets in TIME_METRICS.items() if m not in skip}
    out.update({m: value(counts) for m, (_, value) in COUNT_METRICS.items() if m not in skip})
    out["cli.outside_spans_s"] = wall - covered
    out["trace.overhead_s"] = overhead + install_s
    return out
