"""Self-test of the independent checker against the program's brute-force oracles.

Run from the repository root:  python3 perfbench/selftest.py

On small instances (at most 10 vertices) the area LP must equal
``oracle.brute_force_min_gap`` (infeasible verdicts included) and the contact
ILP must equal ``oracle.brute_force_max_contacts``.  The checker must also
reject three mutated answers built from the oracle witnesses: a rectangle
shifted into a false adjacency, a gap total off by one, and a contact count
off by one.  Exits 0 when every check passes.
"""

from __future__ import annotations

import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
from layercloud import io, model, oracle  # noqa: E402
from layercloud.generate import gen_random_instance, random_layer_sizes  # noqa: E402

CASES = 24
# Few small instances fit no strip; these seeds are scanned for some that the
# brute-force oracle finds strip-infeasible, so that verdict is compared too.
INFEASIBLE_CASES = 3


def small_instances():
    rng = random.Random(7)
    for k in range(CASES):
        layers = rng.randint(2, 4)
        sizes = random_layer_sizes(layers, 10, rng)
        yield gen_random_instance(layers, sizes, (1, 4), seed=rng.randrange(2**31))
    found = 0
    for seed in range(2000):
        g = gen_random_instance(3, [3, 3, 3], (1, 6), seed=seed)
        try:
            oracle.brute_force_min_gap(g)
        except model.StripInfeasibleError:
            found += 1
            yield g
            if found == INFEASIBLE_CASES:
                return


def as_checker_instance(g, folder: Path) -> checker.Instance:
    path = folder / "instance.json"
    io.save_instance(path, io.Instance(graph=g, epsilon=Fraction(1)))
    return checker.read_instance(path)


def as_layout(r: model.Representation) -> dict:
    return {(v.layer, v.pos): x for v, x in r.x.items()}


def false_adjacency_mutant(g, r: model.Representation) -> dict | None:
    """Shift one rectangle along its row until it overlaps a non-neighbour."""
    for v in g.vertices():
        reach = 2 * int(g.total_width)
        for step in (Fraction(s, 2) for s in range(-reach, reach + 1) if s):
            x = dict(r.x)
            x[v] += step
            moved = model.Representation(x=x, epsilon=r.epsilon)
            if model.validate_representation(g, moved):
                continue
            if model.contact_report(g, moved).false_adjacencies:
                return as_layout(moved)
    return None


def main() -> int:
    failures: list[str] = []
    counts = {"area": 0, "infeasible": 0, "contacts": 0, "shift": 0, "gap": 0, "count": 0}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for k, g in enumerate(small_instances()):
            inst = as_checker_instance(g, Path(tmp))
            lp = checker.min_gap_lp(inst)
            try:
                gap, witness = oracle.brute_force_min_gap(g)
            except model.StripInfeasibleError:
                gap, witness = None, None
            counts["area"] += 1
            if lp != gap:
                failures.append(f"case {k}: area LP {lp}, brute force {gap}")
            if witness is None:
                counts["infeasible"] += 1
            else:
                x = as_layout(witness)
                if checker.judge_area(inst, x, gap, lp):
                    failures.append(f"case {k}: brute-force area witness rejected")
                counts["gap"] += 1
                if not checker.judge_area(inst, x, gap + 1, lp):
                    failures.append(f"case {k}: gap total off by one accepted")

            best, witness = oracle.brute_force_max_contacts(g)
            ilp = checker.max_contacts_ilp(inst)
            counts["contacts"] += 1
            if ilp != best:
                failures.append(f"case {k}: contact ILP {ilp}, brute force {best}")
            x = as_layout(witness)
            problems, shortfall = checker.judge_contacts(inst, x, best, ilp)
            if problems or shortfall:
                failures.append(f"case {k}: brute-force contact witness rejected")
            for wrong in (best - 1, best + 1):
                counts["count"] += 1
                if not checker.judge_contacts(inst, x, wrong, ilp)[0]:
                    failures.append(f"case {k}: contact count {wrong} accepted")
            mutant = false_adjacency_mutant(g, witness)
            if mutant is not None:
                counts["shift"] += 1
                if not checker.violations(inst, mutant):
                    failures.append(f"case {k}: shifted false adjacency accepted")
    if not (counts["shift"] and counts["gap"] and counts["infeasible"]):
        failures.append("a mutant kind or the infeasible case is missing")
    print(
        f"checked {counts['area']} area optima ({counts['infeasible']} infeasible), "
        f"{counts['contacts']} contact optima; rejected {counts['shift']} shifted, "
        f"{counts['gap']} gap and {counts['count']} count mutants"
    )
    for line in failures:
        print("FAIL", line)
    print("PASS" if not failures else f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
