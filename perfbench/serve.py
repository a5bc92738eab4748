"""The timed process: set up one workload, then serve it in a closed loop.

Started by ``run.py``, never by hand.  Set-up imports ``layercloud`` from the
checkout's ``src`` directory, generates the workload's pool and writes one
instance file per entry.  Then a single client sends one request at a time,
each a full layout call: ``io.load_instance``, the workload's solver, and,
when the solver returns a layout, ``io.save_representation`` and
``svg.render_svg`` with the drawing written to disk.  Every round serves the
whole pool once, in an order drawn from ``--seed``.  Rounds go on while
one more, at the mean round time so far, still ends within ``--seconds``;
there are at least ``MIN_ROUNDS``.  Between requests, at most every
``PIN_EVERY_S``, the process moves to the faster of two CPUs (``pinning.py``).

This process never imports scipy, so its peak RSS is the program's own.  It
writes ``result.json`` (and ``trace.jsonl`` with ``--trace 1``) into
``--out`` for ``run.py`` to check.  With ``--time-setup`` it stops after
set-up and prints the set-up time instead.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Every instance is served once per round; run.py reports its fastest repeat.
MIN_ROUNDS = 5
# The CPU choice runs between requests, at most this often; its time is
# outside every request's time.
PIN_EVERY_S = 0.25


def _import_program():
    src = HERE.parent / "src"
    sys.path.insert(0, str(src))
    import layercloud
    from layercloud import exact, flow, io, svg, twolayer

    if Path(layercloud.__file__).resolve().parent != src / "layercloud":
        raise ImportError(f"layercloud was imported from {layercloud.__file__}, not {src}")
    return io, flow, twolayer, exact, svg


def _fingerprint(representation) -> int:
    return hash(frozenset(representation.x.items()))


def make_handler(workload: str, modules, out: Path, tracer):
    """The request function: (ident, instance path) -> (outcome, fingerprint).

    With a tracer, a bounding-box outcome also carries the flow solves the
    wrapper counted, to compare with the solves the program reports.
    """
    io, flow, twolayer, exact, svg = modules
    reps = out / "rep"
    drawings = out / "svg"
    reps.mkdir()
    drawings.mkdir()

    def respond(ident: str, graph, representation) -> None:
        io.save_representation(reps / f"{ident}.json", representation)
        (drawings / f"{ident}.svg").write_text(
            svg.render_svg(graph, representation), encoding="utf-8"
        )

    def solve(instance):
        """The layout and the values the program reports with it."""
        g, eps = instance.graph, instance.epsilon
        if workload == "area-min":
            result = flow.minimize_area(g, eps)
            return result.representation, {"gap_total": str(result.gap_total)}
        if workload == "bbox-min":
            before = tracer.calls["flow.solve_min_cost_flow"] if tracer else 0
            result = flow.minimize_bounding_box(g, eps)
            values = {"width": str(result.width), "flow_solves": result.flow_solves}
            if tracer is not None:
                values["wrapper_solves"] = tracer.calls["flow.solve_min_cost_flow"] - before
            return result.representation, values
        if workload == "sweep-2layer":
            result = twolayer.maximize_contacts_2layer(g, eps)
            return result.representation, {"contacts": result.realized_count}
        model = exact.build_model(g, eps)
        result = exact.solve_branch_and_bound(model)
        return result.representation, {"lost": result.lost_count}

    def handle(ident: str, path: Path):
        instance = io.load_instance(path)
        try:
            representation, values = solve(instance)
        except Exception as exc:  # noqa: BLE001 - a failed request is recorded, not fatal
            return {"error": type(exc).__name__, "message": str(exc)}, None
        respond(ident, instance.graph, representation)
        return values, _fingerprint(representation)

    return handle


def _another_round_fits(loop_started: float, rounds: int, seconds: float) -> bool:
    """Whether one more round, at the mean round time so far, ends within ``seconds``."""
    elapsed = time.perf_counter() - loop_started
    return elapsed * (rounds + 1) / rounds <= seconds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--time-setup", type=float, metavar="STARTED",
                        help="stop after set-up and print its time, counted from "
                        "STARTED, time.monotonic() just before this process was started")
    args = parser.parse_args()

    modules = _import_program()
    sys.path.insert(0, str(HERE))
    import workloads

    paths = workloads.write_pool(args.workload, args.out / "instances")
    if args.time_setup is not None:
        print(repr(time.monotonic() - args.time_setup))
        return 0

    import pinning

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    handle = make_handler(args.workload, modules, args.out, tracer)

    rng = random.Random(args.seed)
    outcomes: dict[str, dict] = {}
    fingerprints: dict[str, int | None] = {}
    inconsistent: list[str] = []
    latencies: dict[str, list[float]] = {p.stem: [] for p in paths}
    served = 0
    rounds = 0
    order = list(zip((p.stem for p in paths), paths))
    loop_started = time.perf_counter()
    picker = pinning.CpuPicker()
    pinned = -math.inf
    while rounds < MIN_ROUNDS or _another_round_fits(loop_started, rounds, args.seconds):
        rng.shuffle(order)
        for ident, path in order:
            if time.perf_counter() - pinned >= PIN_EVERY_S:
                picker.pin_faster()
                pinned = time.perf_counter()
            if tracer is not None:
                tracer.request = served
                span = tracer.open(tracing.REQUEST)
            started = time.perf_counter()
            values, fingerprint = handle(ident, path)
            latencies[ident].append(time.perf_counter() - started)
            served += 1
            if tracer is not None:
                tracer.close(span)
            if ident not in outcomes:
                outcomes[ident], fingerprints[ident] = values, fingerprint
            elif (values, fingerprint) != (outcomes[ident], fingerprints[ident]):
                inconsistent.append(ident)
        rounds += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "peak_rss_mb": peak_rss_mb,
        "rounds": rounds,
        "latencies": latencies,
        "outcomes": outcomes,
        "inconsistent": sorted(set(inconsistent)),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(rounds)
        tracer.write(args.out / "trace.jsonl")
    (args.out / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
