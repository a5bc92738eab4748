"""Acceptance suite: one test per criterion, every comparison exact.

Instance sets are generated deterministically at module scope.  Run with
``pytest tests/test_acceptance.py -v -s`` to see one PASS line per criterion.
"""

from __future__ import annotations

import random
import time

import pytest

from layercloud.exact import build_model, solve_branch_and_bound
from layercloud.flow import (
    FlowInfeasibleError,
    build_network,
    minimize_area,
    minimize_bounding_box,
    solve_min_cost_flow,
)
from layercloud.generate import gen_random_instance, random_layer_sizes
from layercloud.model import (
    StripInfeasibleError,
    build_graph,
    contact_report,
    validate_representation,
)
from layercloud.oracle import (
    brute_force_max_contacts,
    brute_force_min_gap,
    composition_min_gap,
    subset_max_contacts,
)
from layercloud.twolayer import maximize_contacts_2layer

EPSILON = 1


def _instances(master_seed: int, count: int, layer_range: tuple[int, int],
               max_rects: int) -> list:
    rng = random.Random(master_seed)
    out = []
    for offset in range(count):
        layers = rng.randint(*layer_range)
        sizes = random_layer_sizes(layers, max_rects, rng)
        out.append(gen_random_instance(layers, sizes, (1, 5), seed=master_seed + offset))
    return out


@pytest.fixture(scope="module")
def set_a():
    """500 instances, 1-4 layers, at most 10 rectangles, integer widths <= 5."""
    return _instances(811, 500, (1, 4), 10)


@pytest.fixture(scope="module")
def set_b():
    """500 two-layer instances with at most 10 rectangles."""
    return _instances(8211, 500, (2, 2), 10)


@pytest.fixture(scope="module")
def set_c():
    """300 instances, 2-4 layers, at most 9 rectangles."""
    return _instances(8311, 300, (2, 4), 9)


_PIPELINES: dict[int, tuple] = {}


def _pipeline(g):
    """The paper's network and its min-cost flow, or None when the strip
    admits no valid layout (cached)."""
    key = id(g)
    if key not in _PIPELINES:
        network = build_network(g)
        try:
            _PIPELINES[key] = (network, solve_min_cost_flow(network))
        except FlowInfeasibleError:
            _PIPELINES[key] = None
    return _PIPELINES[key]


def test_criterion_1_area_equals_oracle(set_a):
    """Minimum gap from the flow equals the brute-force minimum, exactly.

    A few generated instances admit no valid layout inside the w_max * K
    strip at all; both routes must then agree on that outcome too.
    """
    started = time.perf_counter()
    unfittable = 0
    for i, g in enumerate(set_a):
        try:
            flow_gap = minimize_area(g, EPSILON).gap_total
        except StripInfeasibleError:
            flow_gap = None
        try:
            oracle_gap, _ = brute_force_min_gap(g)
        except StripInfeasibleError:
            oracle_gap = None
        assert flow_gap == oracle_gap, f"instance {i}: {flow_gap} != {oracle_gap}"
        unfittable += flow_gap is None
    elapsed = time.perf_counter() - started
    assert elapsed < 300, f"criterion-1 suite took {elapsed:.0f}s"
    print(f"\nPASS criterion 1: flow gap == oracle on {len(set_a)} instances, "
          f"{unfittable} agreed-infeasible ({elapsed:.1f}s)")


def test_criterion_2_extraction_consistency(set_a):
    """Area layouts are valid, stay in the strip, and match the flow cost."""
    solved = 0
    for i, g in enumerate(set_a):
        pipeline = _pipeline(g)
        if pipeline is None:
            continue
        network, result = pipeline
        solved += 1
        outcome = minimize_area(g, EPSILON)
        representation = outcome.representation
        report = contact_report(g, representation)
        assert report.false_adjacencies == frozenset(), f"instance {i}"
        assert validate_representation(g, representation) == [], f"instance {i}"
        strip = g.max_width * g.max_layer_size
        for v in g.vertices():
            x = representation.x[v]
            assert 0 <= x and x + g.width(v) <= strip, f"instance {i}: {v}"
        assert report.gap_total == result.cost(network), f"instance {i}"
        assert outcome.gap_total == report.gap_total, f"instance {i}"
    print(f"PASS criterion 2: area layouts consistent on {solved} solvable instances")


def test_criterion_3_two_layer_sweep_equals_oracle(set_b):
    """Sweep counts equal the oracle; outputs valid; contacts at least epsilon."""
    started = time.perf_counter()
    for i, g in enumerate(set_b):
        result = maximize_contacts_2layer(g, EPSILON)
        oracle_count, _ = brute_force_max_contacts(g)
        assert result.realized_count == oracle_count, f"instance {i}"
        r = result.representation
        report = contact_report(g, r)
        assert report.false_adjacencies == frozenset(), f"instance {i}"
        assert len(report.realized) == oracle_count, f"instance {i}"
        for u, v in report.realized:
            if u.layer != v.layer:
                overlap = min(r.x[u] + g.width(u), r.x[v] + g.width(v)) - max(
                    r.x[u], r.x[v]
                )
                assert overlap >= EPSILON, f"instance {i}: {u}-{v}"
    elapsed = time.perf_counter() - started
    print(f"PASS criterion 3: sweep == oracle on {len(set_b)} instances "
          f"({elapsed:.1f}s)")


def test_criterion_4_linear_operation_count():
    """Sweep operations stay within one constant times V+E from 10 to 10,000."""
    ratios = []
    for n in (10, 32, 100, 320, 1000, 3200, 10000):
        g = gen_random_instance(2, [n - n // 2, n // 2], (1, 5), seed=n)
        result = maximize_contacts_2layer(g, EPSILON)
        size = g.num_vertices + len(g.edges())
        ratios.append(result.operations / size)
    spread = max(ratios) / min(ratios)
    assert spread <= 3, f"ops/(V+E) ratios {ratios} spread {spread:.2f}"
    print(f"PASS criterion 4: ops/(V+E) spread {spread:.2f} <= 3 over sizes 10..10000")


def test_criterion_5_exact_solver_equals_oracle(set_c):
    """Branch and bound losses match the oracle; two-layer cases match the sweep."""
    started = time.perf_counter()
    for i, g in enumerate(set_c):
        result = solve_branch_and_bound(build_model(g, EPSILON))
        oracle_count, _ = brute_force_max_contacts(g)
        assert result.lost_count == len(g.edges()) - oracle_count, f"instance {i}"
        if g.num_layers == 2:
            sweep = maximize_contacts_2layer(g, EPSILON)
            assert sweep.realized_count == oracle_count, f"instance {i}"
    elapsed = time.perf_counter() - started
    print(f"PASS criterion 5: exact == oracle on {len(set_c)} instances "
          f"({elapsed:.1f}s)")


def test_criterion_6_narrowest_layouts_spend_least_gap(set_a):
    """The narrowest layout spends as little gap as the paper's network
    allows at that width."""
    solved = 0
    for i, g in enumerate(set_a):
        if _pipeline(g) is None:
            continue
        solved += 1
        result = minimize_bounding_box(g, EPSILON)
        network = build_network(g, supply=result.width)
        report = contact_report(g, result.representation)
        assert report.false_adjacencies == frozenset(), f"instance {i}"
        assert report.bbox_width <= result.width, f"instance {i}"
        assert report.gap_total == solve_min_cost_flow(network).cost(network), f"instance {i}"
    print(f"PASS criterion 6: narrowest layouts spend least gap on {solved} solvable "
          f"instances")


def test_criterion_7_bounding_box_search(set_a):
    """Returned width is minimal feasible and found within the solve budget."""
    solved = 0
    for i, g in enumerate(set_a):
        if _pipeline(g) is None:
            with pytest.raises(StripInfeasibleError):
                minimize_bounding_box(g, EPSILON)
            continue
        solved += 1
        result = minimize_bounding_box(g, EPSILON)
        w_low = int(g.max_row_width)
        w_high = int(g.max_width) * g.max_layer_size
        assert w_low <= result.width <= w_high, f"instance {i}"
        if result.width > w_low:
            with pytest.raises(FlowInfeasibleError):
                solve_min_cost_flow(build_network(g, supply=result.width - 1))
        budget = (w_high - w_low).bit_length() + 1  # ceil(log2(range + 1)) + 1
        assert result.flow_solves <= budget, f"instance {i}"
    print(f"PASS criterion 7: bounding-box search exact on {solved} solvable instances")


def test_criterion_8_validity_over_contacts():
    """Fixture where allowing false adjacencies would lose strictly fewer contacts."""
    g = build_graph(
        [[2, 2, 3], [4, 1, 1, 4]],
        [[[0, 2], [2, 2], [2, 3]]],
    )
    valid_count, _ = brute_force_max_contacts(g)
    free_count, _ = brute_force_max_contacts(g, allow_false_adjacencies=True)
    assert free_count > valid_count, "fixture no longer separates the two models"
    assert (valid_count, free_count) == (8, 9)
    exact = solve_branch_and_bound(build_model(g, EPSILON))
    sweep = maximize_contacts_2layer(g, EPSILON)
    assert len(g.edges()) - exact.lost_count == valid_count
    assert sweep.realized_count == valid_count
    for representation in (exact.representation, sweep.representation):
        assert contact_report(g, representation).false_adjacencies == frozenset()
    print("PASS criterion 8: validity beats contacts on the fixture "
          f"(valid {valid_count} < unconstrained {free_count})")


def test_criterion_9_dual_oracle_agreement(set_b, set_c):
    """Grid enumeration agrees with the subset and gap-composition oracles."""
    started = time.perf_counter()
    contact_instances = set_c + set_b[:100]
    for i, g in enumerate(contact_instances):
        grid_count, _ = brute_force_max_contacts(g)
        subset_count, _ = subset_max_contacts(g)
        assert grid_count == subset_count, f"contact instance {i}"
    gap_instances = _instances(811, 200, (1, 4), 10)
    for i, g in enumerate(gap_instances):
        try:
            grid_gap = brute_force_min_gap(g)[0]
        except StripInfeasibleError:
            grid_gap = None
        try:
            composed = composition_min_gap(g)
        except StripInfeasibleError:
            composed = None
        assert grid_gap == composed, f"gap instance {i}"
    elapsed = time.perf_counter() - started
    print(f"PASS criterion 9: dual oracles agree on {len(contact_instances)} "
          f"contact + {len(gap_instances)} gap instances ({elapsed:.1f}s)")
