"""Smoke test of the benchmark's per-layer tracer against the current modules.

The tracer wraps public functions by name, so a renamed or inlined function
silently drops out of its metrics.  It patches modules in place, so it runs
in a child process and this process's modules stay untouched.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from layercloud import exact, flow, twolayer
from layercloud.generate import gen_random_instance

ROOT = Path(__file__).resolve().parents[1]

# Runs in the child: install the tracer, solve, print results and counts.
CHILD = r"""
import importlib.util
import json
import sys

spec = importlib.util.spec_from_file_location("tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
import layercloud
from layercloud import exact, flow, twolayer

recorder = tracer.Tracer()
tracer.install(recorder)
sys.path.insert(0, sys.argv[2])
from test_tracer import solve_all

print(json.dumps({
    "results": solve_all(exact, flow, twolayer),
    "calls": recorder.calls,
    "counts": recorder.counts,
}))
"""


def _layout(representation) -> list[str]:
    return [f"{v} {x}" for v, x in sorted(representation.x.items())]


def solve_all(exact, flow, twolayer) -> list:
    """Two small instances through each solver, as JSON-ready values."""
    out = []
    for seed in (1, 2):
        g = gen_random_instance(3, [4, 5, 4], (1, 4), seed=seed)
        area = flow.minimize_area(g, 1)
        out.append([str(area.gap_total), _layout(area.representation)])
        g = gen_random_instance(2, [6, 7], (1, 6), seed=seed)
        sweep = twolayer.maximize_contacts_2layer(g, 1)
        out.append([sweep.realized_count, sweep.operations, _layout(sweep.representation)])
        g = gen_random_instance(3, [3, 3, 3], (1, 4), seed=seed)
        result = exact.solve_branch_and_bound(exact.build_model(g, 1))
        out.append([result.lost_count, _layout(result.representation)])
    return out


def test_tracer_sees_every_layer_and_changes_no_result():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    child = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "perfbench" / "tracer.py"), str(ROOT / "tests")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    traced = json.loads(child.stdout)
    assert traced["calls"]["model.difference_graph"] > 0
    assert traced["calls"]["exact.negative_cycle"] > 0
    assert traced["counts"]["exact.rows_scanned"] > 0
    assert traced["counts"]["twolayer.operations"] > 0
    assert traced["results"] == json.loads(json.dumps(solve_all(exact, flow, twolayer)))
