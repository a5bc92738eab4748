"""Spans around the calls into each layer's public functions, from outside.

Every public function of the layer modules is wrapped at each name its
callers look up: ``layercloud.flow.contact_report`` gets the same wrapper as
``layercloud.model.contact_report``.  A span records its name, start, end,
parent span and request; spans stay in memory and are written out when the
run ends.  A span's self time is its duration minus the time covered by its
child spans.  The counts below are read from call arguments and results and
add no spans of their own, except the crossing-pair count, whose extra
``crossing_pairs`` pass runs in a ``trace.overhead`` span that is subtracted
from its parent's self time and reported nowhere.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

LAYERS = ("io", "model", "flow", "twolayer", "exact", "svg")
# Per-scalar coercion called once per width while parsing; a span per call
# would measure the tracer, not the layer.
UNWRAPPED = {"model.as_fraction"}
OVERHEAD = "trace.overhead"
REQUEST = "request"

# Per-layer metrics, all per round (one pass over the workload's pool).
SELF_MS = (
    "flow.solve_min_cost_flow",
    "flow.build_network",
    "flow.resolve_crossing_patterns",
    "flow.extract_representation",
    "flow.minimize_area",
    "flow.minimize_bounding_box",
    "model.validate_graph",
    "model.contact_report",
    "twolayer.maximize_contacts_2layer",
    "exact.build_model",
    "exact.negative_cycle",
    "exact.solve_branch_and_bound",
    "io.load_instance",
    "io.save_representation",
    "svg.render_svg",
)
CALLS = (
    "flow.solve_min_cost_flow",
    "model.validate_graph",
    "model.contact_report",
    "exact.negative_cycle",
)
COUNTS = (
    "flow.solve_min_cost_flow.infeasible",
    "flow.supply_units",
    "flow.arcs",
    "flow.crossing_pairs_in",
    "flow.bbox_flow_solves",
    "twolayer.operations",
    "exact.model_rows",
    "exact.rows_scanned",
    "svg.bytes_out",
)


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index or -1, request]
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.request = -1
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.calls[name] += 1
        self.spans.append([name, perf_counter(), None, parent, self.request])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def self_seconds(self) -> Counter[str]:
        """Total self time per span name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        seconds: Counter[str] = Counter()
        for (name, start, end, _, _), child_time in zip(self.spans, covered):
            seconds[name] += (end - start) - child_time
        return seconds

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics per round; see README.md for what each should move."""
        seconds = self.self_seconds()
        out: dict[str, float] = {}
        for name in SELF_MS:
            out[f"{name}.self_ms"] = seconds[name] * 1000 / rounds
        for name in CALLS:
            out[f"{name}.calls"] = self.calls[name] / rounds
        for name in COUNTS:
            out[name] = self.counts[name] / rounds
        swept = self.counts["twolayer.vertices"]
        out["twolayer.operations_per_vertex"] = (
            self.counts["twolayer.operations"] / swept if swept else 0.0
        )
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = (
                sum(s for name, s in seconds.items() if name.startswith(layer + "."))
                * 1000
                / rounds
            )
        return out

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "request"]}, handle)
            handle.write("\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _count(tracer: Tracer, name: str, args: tuple, result) -> None:
    counts = tracer.counts
    if name == "flow.solve_min_cost_flow":
        counts["flow.supply_units"] += args[0].supply
    elif name == "flow.build_network":
        counts["flow.arcs"] += len(result.arcs)
    elif name == "flow.minimize_bounding_box":
        counts["flow.bbox_flow_solves"] += result.flow_solves
    elif name == "twolayer.maximize_contacts_2layer":
        counts["twolayer.operations"] += result.operations
        counts["twolayer.vertices"] += args[0].num_vertices
    elif name == "exact.build_model":
        counts["exact.model_rows"] += len(result.rows)
    elif name == "exact.negative_cycle":
        counts["exact.rows_scanned"] += len(args[0].rows)
    elif name == "svg.render_svg":
        counts["svg.bytes_out"] += len(result.encode("utf-8"))


def _wrap(tracer: Tracer, name: str, fn, crossing_pairs, infeasible_error):
    def traced(*args, **kwargs):
        if name == "flow.resolve_crossing_patterns":
            # Pairs in the raw flow, counted outside the repair's own span.
            index = tracer.open(OVERHEAD)
            tracer.counts["flow.crossing_pairs_in"] += len(crossing_pairs(args[0], args[1]))
            tracer.close(index)
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except infeasible_error:
            if name == "flow.solve_min_cost_flow":
                tracer.counts["flow.solve_min_cost_flow.infeasible"] += 1
            raise
        finally:
            tracer.close(index)
        _count(tracer, name, args, result)
        return result

    return traced


def install(tracer: Tracer) -> None:
    """Wrap every public function of the layer modules wherever it is bound."""
    import layercloud
    from layercloud import flow

    modules = [layercloud] + [
        module
        for key, module in sorted(sys.modules.items())
        if key.startswith("layercloud.") and module is not None
    ]
    originals = {}
    for layer in LAYERS:
        module = sys.modules[f"layercloud.{layer}"]
        for attr, value in vars(module).items():
            name = f"{layer}.{attr}"
            if (
                inspect.isfunction(value)
                and not attr.startswith("_")
                and value.__module__ == module.__name__
                and name not in UNWRAPPED
            ):
                originals[value] = _wrap(
                    tracer, name, value, flow.crossing_pairs, flow.FlowInfeasibleError
                )
    for module in modules:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in originals:
                setattr(module, attr, originals[value])
