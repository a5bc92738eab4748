"""Exact-solver tests: model rows, feasibility kernel, search, LP export."""

from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest

from layercloud.exact import (
    ContactModel,
    DifferenceConstraintSystem,
    build_model,
    check_feasible,
    export_lp,
    solve_branch_and_bound,
)
from layercloud.generate import gen_random_instance, random_layer_sizes
from layercloud.model import (
    InvalidInstanceError,
    VertexId,
    build_graph,
    contact_report,
)
from layercloud.oracle import brute_force_max_contacts
from layercloud.twolayer import maximize_contacts_2layer


def fan_instance():
    return build_graph([[3], [1, 1, 1]], [[[0, 2]]])


class TestBuildModel:
    def test_single_vertex_is_empty(self):
        model = build_model(build_graph([[1]]), 1)
        assert model.edges == ()
        assert model.rows == ()

    def test_fan_row_census(self):
        model = build_model(fan_instance(), 1)
        assert len(model.edges) == 5
        kinds = [row.name.split("_")[0] for row in model.rows]
        assert kinds.count("order") == 2
        assert kinds.count("habut") == 2
        assert kinds.count("vlow") == 3
        assert kinds.count("vhigh") == 3
        assert kinds.count("fleft") == 0
        assert kinds.count("fright") == 0

    def test_forbidden_pair_rows_present(self):
        g = build_graph([[2, 2], [1, 2, 1]], [[[0, 1], [1, 2]]])
        model = build_model(g, 1)
        names = {row.name for row in model.rows}
        assert "fright_0_0__1_2" in names
        assert "fleft_0_1__1_0" in names

    def test_big_m_is_total_width_plus_epsilon(self):
        model = build_model(fan_instance(), 1)
        assert model.big_m == 7

    def test_epsilon_guardrails(self):
        with pytest.raises(InvalidInstanceError):
            build_model(fan_instance(), 0)
        with pytest.raises(InvalidInstanceError):
            build_model(fan_instance(), 2)


class TestCheckFeasible:
    def test_empty_system(self):
        ok, witness = check_feasible(DifferenceConstraintSystem(3, ()))
        assert ok and witness == [0, 0, 0]

    def test_negative_cycle_detected(self):
        system = DifferenceConstraintSystem(
            2, ((1, 0, Fraction(-1)), (0, 1, Fraction(-1)))
        )
        ok, witness = check_feasible(system)
        assert not ok and witness is None

    def test_witness_satisfies_rows(self):
        system = DifferenceConstraintSystem(
            3, ((1, 0, Fraction(-2)), (2, 1, Fraction(-1)), (0, 2, Fraction(5)))
        )
        ok, witness = check_feasible(system)
        assert ok
        for a, b, bound in system.rows:
            assert witness[a] - witness[b] <= bound

    def test_all_contacts_infeasible_for_squeeze(self):
        g = build_graph([[1, 1], [3, 3]], [[[0, 0], [0, 1]]])
        model = build_model(g, 1)
        rows = list(model.hard_diffs)
        for e in model.edges:
            rows.extend(model.edge_diffs[e])
        ok, _ = check_feasible(
            DifferenceConstraintSystem(len(model.var_index), tuple(rows))
        )
        assert not ok


class TestBranchAndBound:
    def test_fan_loses_nothing(self):
        result = solve_branch_and_bound(build_model(fan_instance(), 1))
        assert result.lost_count == 0

    def test_squeeze_loses_one(self):
        g = build_graph([[1, 1], [3, 3]], [[[0, 0], [0, 1]]])
        result = solve_branch_and_bound(build_model(g, 1))
        assert result.lost_count == 1

    def test_witness_is_valid_and_normalized(self):
        g = build_graph([[1, 1], [3, 3]], [[[0, 0], [0, 1]]])
        result = solve_branch_and_bound(build_model(g, 1))
        report = contact_report(g, result.representation)
        assert not report.false_adjacencies
        assert len(report.lost) == result.lost_count
        assert min(result.representation.x.values()) == 0

    def test_matches_oracle_on_small_instances(self):
        rng = random.Random(41)
        for seed in range(40):
            layers = rng.randint(2, 4)
            sizes = random_layer_sizes(layers, 9, rng)
            g = gen_random_instance(layers, sizes, (1, 4), seed=seed)
            result = solve_branch_and_bound(build_model(g, 1))
            oracle_count, _ = brute_force_max_contacts(g)
            assert result.lost_count == len(g.edges()) - oracle_count, f"seed {seed}"

    def test_agrees_with_two_layer_sweep(self):
        rng = random.Random(43)
        for seed in range(30):
            sizes = random_layer_sizes(2, 9, rng)
            g = gen_random_instance(2, sizes, (1, 5), seed=seed)
            exact = solve_branch_and_bound(build_model(g, 1))
            sweep = maximize_contacts_2layer(g, 1)
            assert len(g.edges()) - exact.lost_count == sweep.realized_count, f"seed {seed}"

    def test_big_m_independence(self):
        g = gen_random_instance(3, [2, 3, 2], (1, 4), seed=5)
        model = build_model(g, 1)
        doubled = ContactModel(
            graph=model.graph,
            epsilon=model.epsilon,
            edges=model.edges,
            big_m=model.big_m * 2,
            rows=model.rows,
            hard_diffs=model.hard_diffs,
            edge_diffs=model.edge_diffs,
            var_index=model.var_index,
        )
        assert (
            solve_branch_and_bound(model).lost_count
            == solve_branch_and_bound(doubled).lost_count
        )

    def test_deterministic_witness(self):
        g = gen_random_instance(3, [3, 2, 3], (1, 4), seed=9)
        a = solve_branch_and_bound(build_model(g, 1))
        b = solve_branch_and_bound(build_model(g, 1))
        assert a == b


# export_lp of the instance in test_fractional_data_scales_to_integers, byte
# for byte: each row scaled by the lcm of its own denominators.
RATIONAL_LP = """\
Minimize
 obj: c_0_0__0_1 + c_0_0__1_0 + c_0_1__1_0 + c_0_1__1_1 + c_1_0__1_1
Subject To
 order_0_0__0_1: + 2 x_0_0 - 2 x_0_1 <= -3
 habut_0_0__0_1: + 2 x_0_1 - 2 x_0_0 - 13 c_0_0__0_1 <= 3
 vlow_0_0__1_0: + 2 x_1_0 - 2 x_0_0 - 13 c_0_0__1_0 <= 2
 vhigh_0_0__1_0: + 2 x_0_0 - 2 x_1_0 - 13 c_0_0__1_0 <= 1
 vlow_0_1__1_0: + 2 x_1_0 - 2 x_0_1 - 13 c_0_1__1_0 <= 2
 vhigh_0_1__1_0: + 2 x_0_1 - 2 x_1_0 - 13 c_0_1__1_0 <= 1
 vlow_0_1__1_1: + 2 x_1_1 - 2 x_0_1 - 13 c_0_1__1_1 <= 2
 vhigh_0_1__1_1: + 2 x_0_1 - 2 x_1_1 - 13 c_0_1__1_1 <= 3
 order_1_0__1_1: + 1 x_1_0 - 1 x_1_1 <= -1
 habut_1_0__1_1: + 2 x_1_1 - 2 x_1_0 - 13 c_1_0__1_1 <= 2
 fright_0_0__1_1: + 2 x_0_0 - 2 x_1_1 <= -3
Bounds
 x_0_0 free
 x_0_1 free
 x_1_0 free
 x_1_1 free
Binary
 c_0_0__0_1
 c_0_0__1_0
 c_0_1__1_0
 c_0_1__1_1
 c_1_0__1_1
End
"""


LP_ROW = re.compile(
    r"^ [A-Za-z]\w*: (?:[+-] \d+ [A-Za-z]\w*\s?)+<= -?\d+$"
)


def parse_lp(text: str) -> dict:
    """Tiny LP-format reader for round-trip checks; rejects malformed text."""
    lines = text.strip().splitlines()
    assert lines[0] == "Minimize"
    assert lines[1].startswith(" obj:")
    objective = [t for t in lines[1].split(":", 1)[1].split() if t not in ("+", "0")]
    assert lines[2] == "Subject To"
    idx = 3
    rows = []
    while idx < len(lines) and lines[idx] != "Bounds":
        line = lines[idx]
        assert LP_ROW.match(line), f"bad LP row: {line!r}"
        name, rest = line.strip().split(": ", 1)
        body, rhs = rest.split(" <= ")
        terms = {}
        tokens = body.split()
        for sign, value, var in zip(tokens[0::3], tokens[1::3], tokens[2::3]):
            terms[var] = int(value) * (1 if sign == "+" else -1)
        rows.append((name, terms, int(rhs)))
        idx += 1
    free_vars = []
    assert lines[idx] == "Bounds"
    idx += 1
    while idx < len(lines) and lines[idx] not in ("Binary", "End"):
        assert lines[idx].endswith(" free")
        free_vars.append(lines[idx].strip().split()[0])
        idx += 1
    binaries = []
    if idx < len(lines) and lines[idx] == "Binary":
        idx += 1
        while lines[idx] != "End":
            binaries.append(lines[idx].strip())
            idx += 1
    assert lines[idx] == "End"
    return {
        "objective": objective,
        "rows": rows,
        "free": free_vars,
        "binary": binaries,
    }


def solve_parsed_lp(parsed: dict) -> int:
    """Independent mini-solver: enumerate binaries, check x-rows exactly.

    With binaries fixed, every row is a difference constraint in the x
    variables, so feasibility is the same negative-cycle check the solver
    uses, but fed purely from the exported text.
    """
    from itertools import product

    x_vars = parsed["free"]
    index = {name: i for i, name in enumerate(x_vars)}
    best = None
    for assignment in product((0, 1), repeat=len(parsed["binary"])):
        value = sum(assignment)
        if best is not None and value >= best:
            continue
        values = dict(zip(parsed["binary"], assignment))
        rows = []
        skip = False
        for _, terms, rhs in parsed["rows"]:
            bound = rhs - sum(
                coeff * values[var] for var, coeff in terms.items() if var in values
            )
            x_terms = {v: c for v, c in terms.items() if v not in values}
            if not x_terms:
                if bound < 0:
                    skip = True
                    break
                continue
            positives = [v for v, c in x_terms.items() if c > 0]
            negatives = [v for v, c in x_terms.items() if c < 0]
            assert len(positives) == 1 and len(negatives) == 1
            rows.append((index[positives[0]], index[negatives[0]], Fraction(bound)))
        if skip:
            continue
        ok, _ = check_feasible(
            DifferenceConstraintSystem(len(x_vars), tuple(rows))
        )
        if ok:
            best = value
    return best


class TestExportLp:
    def test_single_vertex_has_empty_objective(self):
        text = export_lp(build_model(build_graph([[1]]), 1))
        assert "obj: 0" in text
        assert "Binary" not in text

    def test_fan_counts(self):
        text = export_lp(build_model(fan_instance(), 1))
        parsed = parse_lp(text)
        assert len(parsed["binary"]) == 5
        assert len(parsed["rows"]) == 10
        assert len(parsed["objective"]) == 5

    def test_grammar_over_random_models(self):
        rng = random.Random(47)
        for seed in range(10):
            layers = rng.randint(1, 4)
            sizes = random_layer_sizes(layers, 8, rng)
            g = gen_random_instance(layers, sizes, (1, 4), seed=seed)
            parse_lp(export_lp(build_model(g, 1)))

    def test_fractional_data_scales_to_integers(self):
        g = build_graph([["3/2", "3/2"], [1, 2]], [[[0, 0], [0, 1]]])
        text = export_lp(build_model(g, Fraction(1, 2)))
        parse_lp(text)  # integer-coefficient grammar accepted the rows
        assert text == RATIONAL_LP

    def test_round_trip_objective_matches_solver(self):
        rng = random.Random(53)
        for seed in range(8):
            layers = rng.randint(2, 3)
            sizes = random_layer_sizes(layers, 6, rng)
            g = gen_random_instance(layers, sizes, (1, 3), seed=seed)
            model = build_model(g, 1)
            direct = solve_branch_and_bound(model).lost_count
            via_text = solve_parsed_lp(parse_lp(export_lp(model)))
            assert direct == via_text, f"seed {seed}"
