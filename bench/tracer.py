"""Span recorder for the traced run.

Spans are recorded from outside the program: ``install`` replaces each
public function of interest at every coverball module that binds its name
(``capturing_test`` is bound in surface, nerve, surfballs, cli and the
package), and a few methods on their class.  A span is
``[name, start, end, parent, op]``; spans stay in memory until ``dump``.
Self time is a span's duration minus that of its direct children; busy
time sums the spans not nested inside a span of the same name.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import Counter

import coverball
from coverball import cli, cover, fixtures, graphs, linalg, nerve, surface, surfballs, witness

MODULES = (coverball, cli, cover, fixtures, graphs, linalg, nerve, surface,
           surfballs, witness)

# (metric, unit, better, what it should move); the order is the report order
LAYER_METRICS = [
    ("cover.ball_length.calls", "count", "lower", "witness-sweep ops_per_s"),
    ("cover.ball_length.busy_s", "s", "lower", "witness-sweep ops_per_s and op_tail_ms; cli-corpus op_tail_ms"),
    ("cover.ball_length.nodes_log10", "log10", "lower", "witness-sweep ops_per_s"),
    ("cover.ball_length.truncated_ratio", "ratio", "lower", "witness-sweep ops_per_s"),
    ("cover.finite_ball_length.busy_s", "s", "lower", "cli-corpus op_p50_ms"),
    ("nerve.surface_growth_pipeline.self_s", "s", "lower", "cli-corpus op_p50_ms"),
    ("surfballs.fill_to_bplus.busy_s", "s", "lower", "cli-corpus op_p50_ms"),
    ("witness.find_witness.self_s", "s", "lower", "witness-sweep ops_per_s"),
    ("witness.verify_certificate.self_s", "s", "lower", "witness-sweep ops_per_s"),
    ("graphs.reduce_graph.busy_s", "s", "lower", "witness-sweep ops_per_s"),
    ("graphs.is_separating.busy_s", "s", "lower", "witness-sweep ops_per_s"),
    ("surface.capturing_test.calls", "count", "lower", "nerve-pack ops_per_s and op_tail_ms"),
    ("surface.capturing_test.busy_s", "s", "lower", "nerve-pack ops_per_s and op_tail_ms"),
    ("surface.capturing_test.accept_ratio", "ratio", "higher", "nerve-pack ops_per_s"),
    ("linalg.Echelon.reduce.calls", "count", "lower", "nerve-pack ops_per_s and op_tail_ms"),
    ("linalg.Echelon.add.calls", "count", "lower", "nerve-pack ops_per_s and op_tail_ms"),
    ("surface.homology.builds", "count", "lower", "nerve-pack ops_per_s; cli-corpus op_p50_ms"),
    ("surface.homology.build_s", "s", "lower", "nerve-pack ops_per_s; cli-corpus op_p50_ms"),
    ("surface.distances_from.calls", "count", "lower", "nerve-pack ops_per_s"),
    ("surface.distances_from.busy_s", "s", "lower", "nerve-pack ops_per_s"),
    ("nerve.nerve_graph.self_s", "s", "lower", "nerve-pack ops_per_s"),
    ("nerve.centers", "count", "lower", "nerve-pack ops_per_s"),
    ("nerve.nerve_edges", "count", "lower", "nerve-pack ops_per_s"),
    ("surfballs.ball.busy_s", "s", "lower", "nerve-pack ops_per_s"),
    ("surfballs.capture_length.exact.calls", "count", "lower", "capture-height ops_per_s; cli-corpus op_tail_ms"),
    ("surfballs.capture_length.exact.busy_s", "s", "lower", "capture-height ops_per_s; cli-corpus op_tail_ms"),
    ("surfballs.capture_length.exact_based.calls", "count", "lower", "capture-height ops_per_s"),
    ("surfballs.capture_length.exact_based.busy_s", "s", "lower", "capture-height ops_per_s"),
    ("surfballs.capture_length.greedy.calls", "count", "lower", "capture-height ops_per_s; cli-corpus op_tail_ms"),
    ("surfballs.capture_length.greedy.busy_s", "s", "lower", "capture-height ops_per_s; cli-corpus op_tail_ms"),
    ("surfballs.systole.calls", "count", "lower", "capture-height ops_per_s; cli-corpus op_tail_ms"),
    ("surfballs.systole.busy_s", "s", "lower", "capture-height ops_per_s; cli-corpus op_tail_ms"),
    ("cli.emit.busy_s", "s", "lower", "cli-corpus op_p50_ms"),
    ("cli.parse.busy_s", "s", "lower", "cli-corpus op_p50_ms"),
    ("cli.run.self_s", "s", "lower", "cli-corpus op_p50_ms"),
    ("trace.ops", "count", "higher", "none: traced ops, the base of every count above"),
    ("trace.op_s", "s", "lower", "none: traced op time, the base of every share"),
    ("trace.overhead_ratio", "ratio", "lower", "none: checks the tracer"),
]


def _capture_span(args, kwargs) -> str:
    mode = kwargs.get("mode", args[1] if len(args) > 1 else "greedy")
    x = kwargs.get("x", args[2] if len(args) > 2 else None)
    if mode == "exact":
        return "surfballs.capture_length.exact" + ("" if x is None else "_based")
    return "surfballs.capture_length.greedy"


def _after_ball_length(counts, result):
    counts["cover.ball_length.nodes"] += result.node_count
    counts["cover.ball_length.truncated"] += result.truncated


def _after_capturing_test(counts, result):
    counts["surface.capturing_test.accepts"] += bool(result[0])


def _after_nerve_graph(counts, result):
    counts["nerve.centers"] += len(result.centers)
    counts["nerve.nerve_edges"] += len(result.nerve.edges)


# (defining module, function, span name or namer, hook on the result)
FUNCTIONS = [
    (cover, "ball_length", "cover.ball_length", _after_ball_length),
    (cover, "finite_ball_length", "cover.finite_ball_length", None),
    (graphs, "reduce_graph", "graphs.reduce_graph", None),
    (graphs, "is_separating", "graphs.is_separating", None),
    (witness, "find_witness", "witness.find_witness", None),
    (witness, "verify_certificate", "witness.verify_certificate", None),
    (surface, "capturing_test", "surface.capturing_test", _after_capturing_test),
    (surfballs, "ball", "surfballs.ball", None),
    (surfballs, "fill_to_bplus", "surfballs.fill_to_bplus", None),
    (surfballs, "capture_length", _capture_span, None),
    (surfballs, "systole", "surfballs.systole", None),
    (nerve, "nerve_graph", "nerve.nerve_graph", _after_nerve_graph),
    (nerve, "surface_growth_pipeline", "nerve.surface_growth_pipeline", None),
    (cli, "run", "cli.run", None),
    (cli, "emit", "cli.emit", None),
    (cli, "load_graph", "cli.parse", None),
    (cli, "load_surf", "cli.parse", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.active = False
        self.op = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _enter(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _exit(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            rec = tracer._enter(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(rec)
            if hook is not None:
                hook(tracer.counts, result)
            return result
        return traced

    def counted(self, fn, key):
        tracer = self

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            if tracer.active:
                tracer.counts[key] += 1
            return fn(*args, **kwargs)
        return counting

    # -- installation ------------------------------------------------------
    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        for home, attr, name, hook in FUNCTIONS:
            fn = getattr(home, attr)
            wrapped = self.wrap(fn, name, hook)
            for mod in MODULES:
                if vars(mod).get(attr) is fn:
                    self._patch(mod, attr, wrapped)
        TS = surface.TriSurface
        self._patch(TS, "distances_from",
                    self.wrap(TS.distances_from, "surface.distances_from"))
        self._patch(TS, "homology", self._homology(TS.homology))
        for method in ("reduce", "add"):
            self._patch(linalg.Echelon, method,
                        self.counted(getattr(linalg.Echelon, method),
                                     f"linalg.Echelon.{method}.calls"))

    def _homology(self, fn):
        """Span only the first call per surface, the one that builds."""
        tracer = self

        @functools.wraps(fn)
        def homology(s):
            if not tracer.active or s._homology is not None:
                return fn(s)
            rec = tracer._enter("surface.homology")
            try:
                return fn(s)
            finally:
                tracer._exit(rec)
        return homology

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- results -----------------------------------------------------------
    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)

    def metrics(self, ops: int, op_s: float, overhead_ratio: float) -> dict[str, float]:
        calls: Counter = Counter()
        busy: Counter = Counter()
        self_s: Counter = Counter()
        for rec in self.spans:
            name, start, end, parent, _ = rec
            dur = end - start
            calls[name] += 1
            self_s[name] += dur
            if parent >= 0:
                p = self.spans[parent]
                self_s[p[0]] -= dur
            anc = parent
            while anc >= 0 and self.spans[anc][0] != name:
                anc = self.spans[anc][3]
            if anc < 0:
                busy[name] += dur
        c = self.counts
        nodes = c["cover.ball_length.nodes"]
        bl_calls = calls["cover.ball_length"]
        ct_calls = calls["surface.capturing_test"]
        values = {
            "cover.ball_length.nodes_log10": math.log10(nodes) if nodes else 0.0,
            "cover.ball_length.truncated_ratio":
                c["cover.ball_length.truncated"] / bl_calls if bl_calls else 0.0,
            "surface.capturing_test.accept_ratio":
                c["surface.capturing_test.accepts"] / ct_calls if ct_calls else 0.0,
            "linalg.Echelon.reduce.calls": c["linalg.Echelon.reduce.calls"],
            "linalg.Echelon.add.calls": c["linalg.Echelon.add.calls"],
            "surface.homology.builds": calls["surface.homology"],
            "surface.homology.build_s": busy["surface.homology"],
            "nerve.centers": c["nerve.centers"],
            "nerve.nerve_edges": c["nerve.nerve_edges"],
            "trace.ops": ops,
            "trace.op_s": op_s,
            "trace.overhead_ratio": overhead_ratio,
        }
        out = {}
        for metric, unit, _, _ in LAYER_METRICS:
            if metric in values:
                value = values[metric]
            else:
                span, stat = metric.rsplit(".", 1)
                value = {"calls": calls, "busy_s": busy, "self_s": self_s}[stat][span]
            out[metric] = {"value": value, "unit": unit}
        return out

    def exact_counts(self) -> dict[str, int]:
        """Counts that must repeat exactly at one seed (exact node total)."""
        calls = Counter(rec[0] for rec in self.spans)
        return {**self.counts, **{f"{k}.calls": v for k, v in calls.items()}}
