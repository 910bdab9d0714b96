"""Layer tracing from outside the program.

`Tracer.install()` rebinds each traced public function, wherever a module of
the package holds it (including names one module imported from another, such
as `structure.solve_inequalities`), to a wrapper that opens a span around the
call.  Cross-layer calls therefore nest as child spans, and a layer's self
time is its span time minus the time of its child spans.

Hot leaves are aggregated per (phase, function, parent) rather than kept one
span per call; the remaining spans, and every verdict's span, are kept in memory
and written out by `Tracer.dump` when the run ends.  `uninstall()` restores
the original bindings.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass
from typing import Callable, Optional

from moribound import bounds, cli, core, generate, polytope, raysystem, realized, structure
from moribound.polytope import CombinatorialPolytope


@dataclass(frozen=True)
class Target:
    metric: str  # per-layer metric prefix the function's spans count toward
    owner: object  # module or class that defines the function
    attr: str
    hot: bool = False  # aggregate only, keep no per-call span
    count: Optional[Callable] = None  # (tracer, args, result) -> None
    generator: bool = False  # time each `next`, not the call


def _solve_rows(tr: "Tracer", args, result) -> None:
    tr.counters["core.solve.rows"] += len(args[0])


def _built_faces(tr: "Tracer", args, result) -> None:
    tr.counters["polytope.build.faces"] += sum(result.fvector().counts)


def _esets_found(tr: "Tracer", args, result) -> None:
    tr.counters["structure.find_esets.found"] += len(result)


def _condition_ii_key(tr: "Tracer", args, result) -> None:
    system, subset = args[0], frozenset(args[1])
    tr.pinned[id(system)] = system  # keeps ids unique while the run lasts
    tr.condition_ii_keys.add((id(system), subset))


def _angles(tr: "Tracer", args, result) -> None:
    tr.counters["bounds.angles.count"] += len(result)


TARGETS = (
    Target("core.solve", core, "solve_inequalities", hot=True, count=_solve_rows),
    Target("polytope.build", polytope, "polytope_from_json", count=_built_faces),
    Target("polytope.build", polytope, "cube", count=_built_faces),
    Target("polytope.build", polytope, "cyclic_dual", count=_built_faces),
    Target("polytope.build", polytope, "product", count=_built_faces),
    Target("polytope.query", CombinatorialPolytope, "faces", hot=True),
    Target("polytope.query", CombinatorialPolytope, "face_dim", hot=True),
    Target("polytope.query", CombinatorialPolytope, "facets_through", hot=True),
    Target("polytope.query", polytope, "average_faces"),
    Target("raysystem.validate", raysystem, "validate", hot=True),
    Target("raysystem.parse", raysystem, "system_from_json"),
    Target("raysystem.graph", raysystem, "build_graph", hot=True),
    Target("raysystem.graph", raysystem, "distance", hot=True),
    Target("raysystem.graph", raysystem, "divisorial_components", hot=True),
    Target("structure.is_extremal", structure, "is_extremal", hot=True),
    Target("structure.find_esets", structure, "find_esets", count=_esets_found),
    Target("structure.condition_ii", structure, "check_condition_ii", hot=True,
           count=_condition_ii_key),
    Target("structure.condition_iii_full", structure, "condition_iii_full"),
    Target("structure.classify", structure, "classify_report"),
    Target("structure.classify", structure, "classify_eset", hot=True),
    Target("structure.classify", structure, "classify_component", hot=True),
    Target("structure.classify", structure, "classify_extremal_set", hot=True),
    Target("structure.lemma11", structure, "check_lemma11"),
    Target("bounds.pipeline", bounds, "diagram_pipeline"),
    Target("bounds.angles", bounds, "enumerate_angles", count=_angles),
    Target("bounds.verify", bounds, "verify_lemma14"),
    Target("bounds.verify", bounds, "validate_diagram"),
    Target("bounds.verify", bounds, "count_condition_b", hot=True),
    Target("realized.parse", realized, "model_from_json"),
    Target("generate.enumerate", generate, "enumerate_sign_systems", generator=True),
    Target("cli.main", cli, "main"),
)

PACKAGE_MODULES = (core, polytope, raysystem, structure, realized, bounds, generate, cli)

COUNTERS = (
    "core.solve.rows",
    "polytope.build.faces",
    "structure.find_esets.found",
    "bounds.angles.count",
)

# Per-layer metrics reported by a traced run, with their units.
LAYER_METRICS = {
    "core.solve.calls": "count",
    "core.solve.self_s": "s",
    "core.solve.rows": "count",
    "core.solve.max_ms": "ms",
    "polytope.build.calls": "count",
    "polytope.build.self_s": "s",
    "polytope.build.faces": "count",
    "polytope.query.self_s": "s",
    "raysystem.validate.calls": "count",
    "raysystem.validate.self_s": "s",
    "raysystem.parse.self_s": "s",
    "raysystem.graph.calls": "count",
    "raysystem.graph.self_s": "s",
    "structure.is_extremal.calls": "count",
    "structure.is_extremal.self_s": "s",
    "structure.find_esets.calls": "count",
    "structure.find_esets.self_s": "s",
    "structure.find_esets.found": "count",
    "structure.condition_ii.calls": "count",
    "structure.condition_ii.distinct_ratio": "ratio",
    "structure.condition_iii_full.self_s": "s",
    "structure.classify.self_s": "s",
    "structure.lemma11.self_s": "s",
    "bounds.pipeline.calls": "count",
    "bounds.pipeline.self_s": "s",
    "bounds.angles.self_s": "s",
    "bounds.angles.count": "count",
    "bounds.verify.self_s": "s",
    "realized.parse.calls": "count",
    "realized.parse.self_s": "s",
    "generate.enumerate.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    """Span recorder.  Not thread-safe: the benchmark drives one caller."""

    def __init__(self) -> None:
        # Open spans: [name, start, child seconds, span id or None].
        self.stack: list[list] = []
        # (phase, function, parent) -> [calls, total s, self s, max s]
        self.aggregate: dict[tuple[str, str, str], list] = {}
        self.phase = "setup"  # or "verdicts"
        # Kept spans: (id, parent id, item, function, start, end).
        self.spans: list[tuple] = []
        self.item: Optional[int] = None
        self.labels: dict[int, str] = {}
        self.counters = {name: 0 for name in COUNTERS}
        self.condition_ii_keys: set = set()
        self.pinned: dict = {}
        self._saved: list[tuple[object, str, object]] = []
        self._metric_of: dict[str, str] = {}

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str, keep: bool) -> list:
        span_id = len(self.spans) if keep else None
        if keep:
            self.spans.append(None)  # reserves the id; filled on exit
        frame = [name, time.perf_counter(), 0.0, span_id]
        self.stack.append(frame)
        return frame

    def _exit(self) -> None:
        name, start, child, span_id = self.stack.pop()
        end = time.perf_counter()
        duration = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += duration
        key = (self.phase, name, parent[0] if parent is not None else "")
        agg = self.aggregate.get(key)
        if agg is None:
            agg = self.aggregate[key] = [0, 0.0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child
        if duration > agg[3]:
            agg[3] = duration
        if span_id is not None:
            parent_id = None
            for frame in reversed(self.stack):
                if frame[3] is not None:
                    parent_id = frame[3]
                    break
            self.spans[span_id] = (span_id, parent_id, self.item, name, start, end)

    @contextlib.contextmanager
    def verdict(self, item: int, label: str):
        """One verdict's span; the spans inside it carry its item id."""
        depth = len(self.stack)
        self.item = item
        self.labels[item] = label
        self._enter("verdict", True)
        try:
            yield
        finally:
            # A verdict cut short by its time limit can leave spans open.
            del self.stack[depth + 1:]
            self._exit()
            self.item = None

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, target: Target, original):
        name = f"{target.owner.__name__}.{target.attr}"
        keep = not target.hot
        count = target.count
        enter, exit_ = self._enter, self._exit

        if target.generator:

            def wrapped_gen(*args, **kwargs):
                gen = original(*args, **kwargs)
                while True:
                    enter(name, False)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        exit_()
                    yield item

            return name, wrapped_gen

        def wrapped(*args, **kwargs):
            enter(name, keep)
            try:
                result = original(*args, **kwargs)
            finally:
                exit_()
            if count is not None:
                count(self, args, result)
            return result

        return name, wrapped

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for target in TARGETS:
            original = getattr(target.owner, target.attr)
            name, wrapped = self._wrap(target, original)
            self._metric_of[name] = target.metric
            holders = [target.owner] if isinstance(target.owner, type) else PACKAGE_MODULES
            for holder in holders:
                if vars(holder).get(target.attr) is original:
                    self._saved.append((holder, target.attr, original))
                    setattr(holder, target.attr, wrapped)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._saved):
            setattr(holder, attr, original)
        self._saved.clear()

    # -- results -----------------------------------------------------------

    def layer_metrics(self, overhead_ratio: float) -> dict[str, dict]:
        """Every per-layer metric, summed over parents; a layer that did not
        run reports 0."""
        totals: dict[str, list] = {}
        for (_phase, name, _parent), (calls, _total, self_s, max_s) in self.aggregate.items():
            if name not in self._metric_of:
                continue  # verdict spans: the benchmark's own time
            acc = totals.setdefault(self._metric_of[name], [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += self_s
            acc[2] = max(acc[2], max_s)
        values: dict[str, float] = {}
        for metric in LAYER_METRICS:
            prefix, _, field = metric.rpartition(".")
            calls, self_s, max_s = totals.get(prefix, (0, 0.0, 0.0))
            if field == "calls":
                values[metric] = calls
            elif field == "self_s":
                values[metric] = self_s
            elif field == "max_ms":
                values[metric] = max_s * 1e3
            elif metric in self.counters:
                values[metric] = self.counters[metric]
        calls = totals.get("structure.condition_ii", (0,))[0]
        values["structure.condition_ii.distinct_ratio"] = (
            len(self.condition_ii_keys) / calls if calls else 0.0
        )
        values["trace.overhead_ratio"] = overhead_ratio
        return {m: {"value": values[m], "unit": unit} for m, unit in LAYER_METRICS.items()}

    def layer_shares(self, phase: str) -> dict[str, float]:
        """Each layer's share of the traced self time in one phase; the
        verdict spans' own time is the benchmark's and counts as "bench"."""
        layers: dict[str, float] = {}
        for (ph, name, _parent), (_calls, _total, self_s, _max) in self.aggregate.items():
            if ph == phase:
                layer = self._metric_of.get(name, "bench").split(".")[0]
                layers[layer] = layers.get(layer, 0.0) + self_s
        total = sum(layers.values()) or 1.0
        return {layer: t / total for layer, t in sorted(layers.items(), key=lambda x: -x[1])}

    def dump(self, path: str, header: dict) -> None:
        """Write the kept spans and the per-(phase, function, parent)
        aggregates."""
        data = {
            **header,
            "verdicts": {str(item): label for item, label in self.labels.items()},
            "aggregate": [
                {"phase": phase, "function": name, "parent": parent, "calls": calls,
                 "total_s": total, "self_s": self_s, "max_s": max_s}
                for (phase, name, parent), (calls, total, self_s, max_s)
                in sorted(self.aggregate.items())
            ],
            "spans": [
                dict(zip(("id", "parent", "item", "function", "start", "end"), span))
                for span in self.spans
                if span is not None
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
            fh.write("\n")

