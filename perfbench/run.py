"""Layout benchmark: serve one workload, check every answer, print the metrics.

    python3 perfbench/run.py --workload area-min --seed 1 --seconds 30 --trace 0

The timed loop runs in a child process (``serve.py``) that never imports
scipy.  Before it, ``SETUP_REPEATS`` other children each time one cold set-up
and stop.  This process then checks every answer with the independent checker
(``checker.py``) and prints one JSON line: with ``--trace 0`` the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run.  It exits
non-zero without printing a result when the program cannot be imported, the
reference cache does not match the generated instances, a child fails, or
the pool's first serving took over ``MAX_FIRST_TO_BEST`` times its fastest
repeats (see ``main``).
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import pinning  # noqa: E402
import reference  # noqa: E402
from workloads import WORKLOAD_NAMES  # noqa: E402

# All children together must end within this many seconds of the start.
CHILD_TIMEOUT_S = 160
# setup_s is the fastest of this many cold set-ups, each in a fresh process.
SETUP_REPEATS = 5
# Every round serves the same pool.  Unaided, the first round takes 1.0-1.85
# times as long as the fastest repeats; a cache of results keyed on the
# instance would make repeats several times faster than the first serving,
# and the fastest-repeat metrics would measure the cache, not the solver.
MAX_FIRST_TO_BEST = 3.0

# The one exception each workload's solver may raise.  A strip-infeasible
# verdict is an answer the checker confirms or refutes; the sweep's
# SweepError is a known fault, a failed operation.  Any other exception is a
# wrong answer.
EXPECTED_ERROR = {
    "area-min": "StripInfeasibleError",
    "bbox-min": "StripInfeasibleError",
    "sweep-2layer": "SweepError",
}


class ChildFailed(RuntimeError):
    """A child process failed or ran out of time."""


class Verdicts:
    """Per-instance verdicts: wrong answers, failed operations, confirmed no-fits."""

    def __init__(self) -> None:
        self.wrong: dict[str, list[str]] = {}
        self.failed: dict[str, str] = {}
        self.no_fit = 0

    def judge(self, ident: str, problems: list[str]) -> None:
        if problems:
            self.wrong.setdefault(ident, []).extend(problems)


def check(workload: str, out: Path, outcomes: dict, trace: bool) -> Verdicts:
    """Check each instance's answer with the independent checker."""
    verdicts = Verdicts()
    optima = reference.load(workload) if workload in reference.CACHED else None
    for ident, values in sorted(outcomes.items()):
        inst = checker.read_instance(out / "instances" / f"{ident}.json")
        error = values.get("error")
        x = None
        if error is None:
            x = checker.read_layout(out / "rep" / f"{ident}.json")
            drawing = (out / "svg" / f"{ident}.svg").read_text(encoding="utf-8")
            if drawing.count('class="vertex"') != len(inst.vertices):
                verdicts.judge(ident, ["SVG does not draw one rectangle per vertex"])
        if error is not None and error != EXPECTED_ERROR.get(workload):
            verdicts.judge(ident, [f"raised {error}: {values['message']}"])
        elif workload == "area-min":
            optimum = checker.min_gap_lp(inst)
            gap = None if error else Fraction(values["gap_total"])
            verdicts.judge(ident, checker.judge_area(inst, x, gap, optimum))
            verdicts.no_fit += optimum is None
        elif workload == "bbox-min":
            optimum = checker.min_width(inst)
            if error is None:
                verdicts.judge(
                    ident, checker.judge_bbox(inst, x, Fraction(values["width"]), optimum)
                )
                if trace and values["wrapper_solves"] != values["flow_solves"]:
                    verdicts.judge(ident, [
                        f"wrapper counted {values['wrapper_solves']} flow solves, "
                        f"program reported {values['flow_solves']}"
                    ])
            elif optimum <= inst.strip:
                verdicts.judge(ident, [f"claimed no fit up to {inst.strip}, "
                                       f"longest path gives width {optimum}"])
            else:
                # The search gave up at w_max * K where a wider layout exists.
                verdicts.failed[ident] = f"{error}: {values['message']}"
        elif error is not None:
            verdicts.failed[ident] = f"{error}: {values['message']}"
        else:
            optimum = reference.lookup(optima, workload, ident, inst.digest())
            edges = len(inst.horizontal_edges()) + len(inst.vertical_edges())
            count = values["contacts"] if workload == "sweep-2layer" else edges - values["lost"]
            problems, shortfall = checker.judge_contacts(inst, x, count, optimum)
            if shortfall and workload == "sweep-2layer":
                verdicts.failed[ident] = f"{count} contacts, ILP optimum {optimum}"
            elif shortfall:
                problems.append(f"{count} contacts, ILP optimum {optimum}")
            verdicts.judge(ident, problems)
    return verdicts


def _run_child(command: list[str], deadline: float) -> str:
    """Run one child to its end before the deadline; return its standard output."""
    try:
        child = subprocess.run(
            command, stdout=subprocess.PIPE, text=True,
            timeout=max(deadline - time.monotonic(), 0.0),
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"the children did not finish within {CHILD_TIMEOUT_S} s") from None
    if child.returncode != 0:
        raise ChildFailed(f"{Path(command[1]).name} failed with exit code {child.returncode}")
    return child.stdout


def time_setups(command: list[str], out: Path, deadline: float) -> float:
    """The fastest of SETUP_REPEATS cold set-ups, in seconds.

    Each set-up is a fresh process, timed from just before it starts until
    its instance files are written, and runs on the faster of two CPUs.  The
    host's slow spells last seconds, longer than a set-up, so a single
    set-up reads 0.11 s or 0.16 s depending on the spell it lands in.
    """
    picker = pinning.CpuPicker()
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(out / "instances", ignore_errors=True)
        picker.pin_faster()
        started = time.monotonic()
        stdout = _run_child(command + ["--time-setup", repr(started)], deadline)
        times.append(float(stdout.split()[-1]))
    picker.release()
    shutil.rmtree(out / "instances")
    return min(times)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = HERE / "out" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    command = [
        sys.executable, str(HERE / "serve.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", str(out),
    ]
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        setup_s = time_setups(command, out, deadline)
        _run_child(command, deadline)
    except ChildFailed as exc:
        print(exc, file=sys.stderr)
        return 2
    result = json.loads((out / "result.json").read_text(encoding="utf-8"))

    try:
        verdicts = check(args.workload, out, result["outcomes"], bool(args.trace))
    except (reference.StaleCache, checker.CheckError) as exc:
        print(f"cannot check the answers: {exc}", file=sys.stderr)
        return 3
    for ident, problems in sorted(verdicts.wrong.items()):
        print(f"WRONG {ident}: {'; '.join(problems)}", file=sys.stderr)
    for ident in result["inconsistent"]:
        print(f"WRONG {ident}: answers differ between rounds", file=sys.stderr)
    for ident, reason in sorted(verdicts.failed.items()):
        print(f"FAILED {ident}: {reason}", file=sys.stderr)

    pool_size = len(result["outcomes"])
    rounds = result["rounds"]
    # Each request's time is its fastest repeat (one per round): the work is
    # deterministic, and the host's noise only ever adds time.
    request_s = [min(times) for times in result["latencies"].values()]
    requests_per_s = pool_size / sum(request_s)
    first_to_best = sum(times[0] for times in result["latencies"].values()) / sum(request_s)
    if first_to_best > MAX_FIRST_TO_BEST:
        print(f"the first round took {first_to_best:.1f} times as long as the fastest "
              "repeats: repeats of the same instance are being served from a cache, "
              "so the metrics would not measure the solver", file=sys.stderr)
        return 4
    if args.trace:
        layers = dict(result["layers"], **{"traced.requests_per_s": requests_per_s})
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in _layer_units(layers).items()}
    else:
        deciles = statistics.quantiles(request_s, n=10, method="inclusive")
        metrics = {
            "requests_per_s": {"value": requests_per_s, "unit": "1/s"},
            "latency_p50_ms": {"value": deciles[4] * 1000, "unit": "ms"},
            "latency_p90_ms": {"value": deciles[8] * 1000, "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(
        f"{args.workload}: {rounds * pool_size} requests in {rounds} rounds of {pool_size}, "
        f"{len(verdicts.failed)} of {pool_size} instances fail, "
        f"{verdicts.no_fit} fit no strip, "
        f"{len(verdicts.wrong) + len(result['inconsistent'])} answered wrongly, "
        f"first round {first_to_best:.2f} times the fastest repeats"
    )
    print(json.dumps({
        "correct": not verdicts.wrong and not result["inconsistent"],
        "attempted": rounds * pool_size,
        "failed": rounds * len(verdicts.failed),
        "metrics": metrics,
    }))
    return 0


def _layer_units(layers: dict[str, float]) -> dict[str, tuple[float, str]]:
    units = {}
    for name, value in layers.items():
        if name.endswith("self_ms"):
            unit = "ms/round"
        elif name == "traced.requests_per_s":
            unit = "1/s"
        elif name == "twolayer.operations_per_vertex":
            unit = "ops/vertex"
        else:
            unit = "count/round"
        units[name] = (value, unit)
    return units


if __name__ == "__main__":
    sys.exit(main())
