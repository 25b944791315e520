"""Spans around the program's layer boundaries, from outside the program.

``Tracer.install`` replaces public names at each layer boundary *as the
calling module sees them* (``pomparity.cli.solve_parity_fm``,
``pomparity.solve.almost_cobuchi_red``, ...) with wrappers that record a
span: label, start, end, parent span and operation id.  Spans stay in
memory until the run ends.  A layer's self time is its spans' duration
minus the time their child spans cover; the benchmark's own loop, outside
every span, is reported as the shortfall against the traced wall time.

Forked oracle workers' spans would be lost, so the traced pass runs the
oracle with one job.
"""

from __future__ import annotations

import resource
import time
from collections import defaultdict

from pomparity import cli, oracle, solve, strategy

# (module whose name is replaced, name, label); the label's first part is
# the layer, i.e. the module that defines the function.
BOUNDARIES = [
    (cli, "cli_main", "cli"),
    (cli, "load_model_file", "modelio.parse"),
    (cli, "load_strategy_file", "modelio.parse"),
    (cli, "save_strategy_file", "modelio.write"),
    (cli, "serialize_strategy", "modelio.write"),
    (cli, "validate", "model.validate"),
    (cli, "validate_objective", "model.validate"),
    (cli, "solve_parity_fm", "solve"),
    (cli, "oracle_decide", "oracle"),
    (cli, "project_strategy", "strategy.project"),
    (cli, "build_product_chain", "chain.build"),
    (cli, "evaluate_qualitative", "chain.eval"),
    (solve, "almost_cobuchi_red", "beliefobs"),
    (solve, "positive_buchi_red", "beliefobs"),
    (solve, "almost_parity_to_cobuchi", "reductions"),
    (solve, "positive_parity_to_buchi", "reductions"),
    (solve, "make_absorbing", "model.absorbing"),
    (solve, "build_product_chain", "chain.build"),
    (solve, "evaluate_qualitative", "chain.eval"),
    (strategy, "compute_rec_functions", "chain.rec"),
    (oracle, "build_product_chain", "chain.build"),
    (oracle, "evaluate_qualitative", "chain.eval"),
]

# Self time of each label is reported under this per-layer metric.
SELF_METRICS = {
    "cli": "cli.self_s",
    "modelio.parse": "modelio.parse_s",
    "modelio.write": "modelio.write_s",
    "model.validate": "model.validate_s",
    "model.absorbing": "model.absorbing_s",
    "reductions": "reductions.s",
    "beliefobs": "beliefobs.s",
    "solve": "solve.self_s",
    "chain.build": "chain.build_s",
    "chain.eval": "chain.eval_s",
    "chain.rec": "chain.rec_s",
    "strategy.project": "strategy.project_s",
    "oracle": "oracle.self_s",
    "oracle.enumerate": "oracle.enumerate_s",
}

COUNT_METRICS = [
    "reductions.calls", "reductions.states_out", "beliefobs.calls",
    "beliefobs.states", "solve.fixpoint_iterations", "solve.positive_calls",
    "solve.roots_tried", "chain.build_calls", "chain.nodes",
    "strategy.memories_in", "strategy.memories_out", "oracle.candidates",
]


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    """Records spans and boundary counts while installed."""

    def __init__(self):
        self.spans: list[list] = []       # [label, start, end, parent, op]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._op = -1
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def _open(self, label: str) -> int:
        if label == "cli":
            self._op += 1
        parent = self._stack[-1] if self._stack else None
        self.spans.append([label, time.perf_counter(), None, parent, self._op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, span: int) -> None:
        self.spans[span][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, label):
        def traced(*args, **kwargs):
            span = self._open(label)
            rss = _maxrss_mb() if label == "beliefobs" else 0.0
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            self._count(label, args, result, rss)
            return result
        return traced

    def _wrap_stream(self, fn):
        """Time each ``next()`` of the candidate stream as its own span."""
        def traced(*args, **kwargs):
            stream = fn(*args, **kwargs)

            def timed():
                while True:
                    span = self._open("oracle.enumerate")
                    try:
                        item = next(stream)
                    except StopIteration:
                        return
                    finally:
                        self._close(span)
                    yield item
            return timed()
        return traced

    def _count(self, label, args, result, rss_before) -> None:
        c = self.counts
        if label == "reductions":
            c["reductions.calls"] += 1
            c["reductions.states_out"] += len(result.pomdp.states)
        elif label == "beliefobs":
            c["beliefobs.calls"] += 1
            c["beliefobs.states"] += len(result.pomdp.states)
            c["beliefobs.rss_delta_mb"] += _maxrss_mb() - rss_before
        elif label == "solve":
            diag = result.diagnostics
            c["solve.fixpoint_iterations"] += (
                diag.get("safety_iterations", 0)
                + diag.get("buchi_outer_iterations", 0))
            if "roots_tried" in diag:
                c["solve.positive_calls"] += 1
                c["solve.roots_tried"] += diag["roots_tried"]
        elif label == "chain.build":
            c["chain.build_calls"] += 1
            c["chain.nodes"] += len(result.nodes)
        elif label == "strategy.project":
            c["strategy.memories_in"] += len(args[1].memories)
            c["strategy.memories_out"] += len(result.memories)
        elif label == "oracle":
            c["oracle.candidates"] += result.candidates

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        for module, name, label in BOUNDARIES:
            self._replace(module, name, self._wrap(getattr(module, name), label))
        self._replace(oracle, "enumerate_strategies",
                      self._wrap_stream(oracle.enumerate_strategies))

    def _replace(self, owner, name, value) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._saved):
            setattr(owner, name, value)
        self._saved.clear()

    # -- results ---------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """(self seconds, inclusive seconds) per label."""
        child = [0.0] * len(self.spans)
        for label, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        total: dict[str, float] = defaultdict(float)
        for i, (label, start, end, _, _) in enumerate(self.spans):
            own[label] += end - start - child[i]
            total[label] += end - start
        return own, total

    def span_counts(self) -> dict[str, int]:
        counts: dict[str, int] = defaultdict(int)
        for span in self.spans:
            counts[span[0]] += 1
        return counts


def ratio(numerator: float, base: float) -> float:
    return numerator / base if base else 0.0


def per_layer(tracer: Tracer, traced_wall: float,
              untraced_walls: tuple[float, float],
              extra: dict[str, tuple[float, str, str]]) -> dict[str, tuple]:
    """Every per-layer metric as name -> (value, unit, note).

    ``extra`` carries the metrics measured outside the traced pass: the
    ``--jobs 2`` comparison and the per-operation latencies.  The note
    names the base of every ratio and the span count of every time.
    """
    own, total = tracer.self_times()
    spans = tracer.span_counts()
    c = tracer.counts
    out: dict[str, tuple] = {}
    for label, metric in SELF_METRICS.items():
        out[metric] = (own.get(label, 0.0), "s", f"{spans.get(label, 0)} spans")
    for metric in COUNT_METRICS:
        out[metric] = (c.get(metric, 0), "count", "")
    out["beliefobs.rss_delta_mb"] = (c.get("beliefobs.rss_delta_mb", 0.0), "MB",
                                     "peak RSS growth inside beliefobs spans "
                                     "of the first pass in this process")
    out["beliefobs.states_per_s"] = (
        ratio(c.get("beliefobs.states", 0), own.get("beliefobs", 0.0)), "1/s",
        "base: beliefobs.states / beliefobs.s")
    out["chain.nodes_per_s"] = (
        ratio(c.get("chain.nodes", 0), own.get("chain.build", 0.0)), "1/s",
        "base: chain.nodes / chain.build_s")
    out["solve.roots_tried_per_positive"] = (
        ratio(c.get("solve.roots_tried", 0), c.get("solve.positive_calls", 0)),
        "ratio", "base: solve.roots_tried / solve.positive_calls")
    out["oracle.enumerate_share"] = (
        ratio(own.get("oracle.enumerate", 0.0), total.get("oracle", 0.0)),
        "ratio", f"base: oracle.enumerate_s / oracle_decide inclusive "
                 f"{total.get('oracle', 0.0):.3f} s")
    attributed = sum(own.values())
    out["trace.wall_s"] = (traced_wall, "s", "traced pass")
    out["trace.shortfall_s"] = (
        traced_wall - attributed, "s",
        f"traced wall minus the {attributed:.3f} s of layer self times")
    first, last = untraced_walls
    out["trace.overhead_s"] = (
        traced_wall - (first + last) / 2, "s",
        f"traced {traced_wall:.3f} s - mean of untraced {first:.3f} s "
        f"(before) and {last:.3f} s (after), same work")
    out.update(extra)
    return out
