"""Flow solver tests: construction counts, crossing repair, oracle equivalence."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from layercloud.flow import (
    GAP,
    LEFT_BUFFER,
    RECT_A,
    RECT_B,
    RIGHT_BUFFER,
    SINK,
    SOURCE,
    Arc,
    FlowInfeasibleError,
    FlowNetwork,
    FlowNode,
    FlowResult,
    build_network,
    crossing_pairs,
    dump_network,
    extract_representation,
    minimize_area,
    minimize_bounding_box,
    node_throughput,
    resolve_crossing_patterns,
    row_total_widths,
    solve_min_cost_flow,
)
from layercloud.generate import gen_random_instance, random_layer_sizes
from layercloud.model import (
    InvalidInstanceError,
    StripInfeasibleError,
    VertexId,
    build_graph,
    contact_report,
)
from layercloud.oracle import brute_force_min_gap


def fan_instance():
    return build_graph([[3], [1, 1, 1]], [[[0, 2]]])


def pinch_instance():
    """Frozen generator output whose strip-constrained minimum gap is 6."""
    return build_graph(
        [[2, 4, 4, 3], [4, 2, 4]],
        [[[0, 1], [1, 1], [1, 1], [1, 2]]],
    )


class TestBuildNetwork:
    def test_fan_node_census_and_supply(self):
        network = build_network(fan_instance())
        assert len(network.nodes) == 16  # 8 rect copies, 2 gaps, 4 buffers, s, t
        assert network.supply == 9  # widest rectangle (3) times largest layer (3)
        internal = network.arc_between(FlowNode(RECT_A, 0, 0), FlowNode(RECT_B, 0, 0))
        assert internal.lower == internal.capacity == 3

    def test_single_vertex_network(self):
        g = build_graph([[2]])
        network = build_network(g)
        assert network.supply == 2
        assert network.arc_between(FlowNode(SOURCE), FlowNode(RECT_A, 0, 0)) is not None
        assert network.arc_between(FlowNode(RECT_B, 0, 0), FlowNode(SINK)) is not None
        internal = network.arc_between(FlowNode(RECT_A, 0, 0), FlowNode(RECT_B, 0, 0))
        assert internal.lower == internal.capacity == 2

    def test_reach_excludes_false_adjacency_targets(self):
        g = build_graph([[2, 2], [1, 2, 1]], [[[0, 1], [1, 2]]])
        network = build_network(g)
        tail = FlowNode(RECT_B, 0, 0)
        assert network.arc_between(tail, FlowNode(RECT_A, 1, 0)) is not None
        assert network.arc_between(tail, FlowNode(RECT_A, 1, 1)) is not None
        assert network.arc_between(tail, FlowNode(GAP, 1, 1)) is not None
        assert network.arc_between(tail, FlowNode(LEFT_BUFFER, 1)) is not None
        # the non-neighbor on the right must be unreachable
        assert network.arc_between(tail, FlowNode(RECT_A, 1, 2)) is None

    def test_gap_reach_is_union_of_its_row_neighbors(self):
        g = build_graph([[2, 2], [1, 2, 1]], [[[0, 1], [1, 2]]])
        network = build_network(g)
        gap = FlowNode(GAP, 0, 0)
        for target in (
            FlowNode(RECT_A, 1, 0),
            FlowNode(RECT_A, 1, 1),
            FlowNode(RECT_A, 1, 2),
            FlowNode(LEFT_BUFFER, 1),
            FlowNode(RIGHT_BUFFER, 1),
        ):
            assert network.arc_between(gap, target) is not None

    def test_source_feeds_bottom_gaps_at_cost_one(self):
        g = build_graph([[1, 1], [1, 1]], [[[0, 0], [0, 1]]])
        network = build_network(g)
        arc = network.arc_between(FlowNode(SOURCE), FlowNode(GAP, 0, 0))
        assert arc is not None and arc.cost == 1

    def test_every_gap_incoming_arc_costs_one(self):
        network = build_network(pinch_instance())
        for arc in network.arcs:
            expected = 1 if network.nodes[arc.head].kind == GAP else 0
            assert arc.cost == expected

    def test_buffers_chain_to_the_layer_above(self):
        network = build_network(fan_instance())
        assert network.arc_between(FlowNode(LEFT_BUFFER, 0), FlowNode(LEFT_BUFFER, 1)) is not None
        assert network.arc_between(FlowNode(RIGHT_BUFFER, 0), FlowNode(RIGHT_BUFFER, 1)) is not None

    def test_invalid_graph_rejected(self):
        g = build_graph([[1, 1], [1, 1]], [[[0, 0], [1, 1]]])
        with pytest.raises(InvalidInstanceError):
            build_network(g)

    def test_dump_lists_every_arc(self):
        network = build_network(fan_instance())
        lines = dump_network(network).strip().splitlines()
        assert len(lines) == len(network.arcs)
        assert any(line.startswith("s ") for line in lines)


class TestSolveMinCostFlow:
    def test_forced_flow_through_single_vertex(self):
        network = build_network(build_graph([[2]]))
        result = solve_min_cost_flow(network)
        assert result.cost(network) == 0
        internal = network.arc_index[
            (
                network.node_index[FlowNode(RECT_A, 0, 0)],
                network.node_index[FlowNode(RECT_B, 0, 0)],
            )
        ]
        assert result.flow[internal] == 2

    def test_fan_has_zero_cost(self):
        network = build_network(fan_instance())
        assert solve_min_cost_flow(network).cost(network) == 0

    def test_pinch_cost_matches_oracle(self):
        g = pinch_instance()
        gap, _ = brute_force_min_gap(g)
        assert gap == 6
        network = build_network(g)
        assert solve_min_cost_flow(network).cost(network) == 6

    def test_conservation_and_bounds(self):
        g = pinch_instance()
        network = build_network(g)
        result = solve_min_cost_flow(network)
        for arc, f in zip(network.arcs, result.flow):
            assert arc.lower <= f <= arc.capacity
        balance = dict(network.imbalance)
        net = {i: balance.get(i, 0) for i in range(len(network.nodes))}
        for arc, f in zip(network.arcs, result.flow):
            net[arc.tail] -= f
            net[arc.head] += f
        assert all(value == 0 for value in net.values())

    def test_reduced_supply_can_be_infeasible(self):
        g = build_graph([[2, 2]])
        network = build_network(g, supply=3)  # row needs 4
        with pytest.raises(FlowInfeasibleError):
            solve_min_cost_flow(network)


def four_node_pattern():
    """The hand-built 2x2 strip with a deliberately crossed unit of flow."""
    nodes = (
        FlowNode(RECT_B, 0, 0),  # a
        FlowNode(RECT_B, 0, 1),  # b
        FlowNode(RECT_A, 1, 0),  # c
        FlowNode(RECT_A, 1, 1),  # d
    )
    slots = ((0, 1), (0, 3), (1, 1), (1, 3))
    arcs = (
        Arc(0, 3, 0, 2, 0),  # a -> d
        Arc(1, 2, 0, 2, 0),  # b -> c
        Arc(0, 2, 0, 2, 0),  # a -> c
        Arc(1, 3, 0, 2, 0),  # b -> d
    )
    network = FlowNetwork(
        nodes=nodes,
        arcs=arcs,
        imbalance={},
        supply=2,
        denominator=1,
        node_index={node: i for i, node in enumerate(nodes)},
        arc_index={(arc.tail, arc.head): i for i, arc in enumerate(arcs)},
        element_slot=slots,
    )
    return network, FlowResult(flow=(1, 1, 0, 0), cost_units=0)


class TestCrossingRepair:
    def test_crossing_free_flow_unchanged(self):
        network = build_network(fan_instance())
        result = solve_min_cost_flow(network)
        if crossing_pairs(network, result):
            result = resolve_crossing_patterns(network, result)
        assert resolve_crossing_patterns(network, result).flow == result.flow

    def test_four_node_pattern_swaps(self):
        network, result = four_node_pattern()
        fixed = resolve_crossing_patterns(network, result)
        assert fixed.flow == (0, 0, 1, 1)
        assert fixed.cost_units == result.cost_units
        assert crossing_pairs(network, fixed) == []

    def test_random_instances_end_crossing_free_at_equal_cost(self):
        rng = random.Random(17)
        for seed in range(60):
            layers = rng.randint(1, 4)
            sizes = random_layer_sizes(layers, 9, rng)
            g = gen_random_instance(layers, sizes, (1, 5), seed=seed)
            network = build_network(g)
            result = solve_min_cost_flow(network)
            fixed = resolve_crossing_patterns(network, result)
            assert crossing_pairs(network, fixed) == []
            assert fixed.cost_units == result.cost_units
            assert node_throughput(network, fixed) == node_throughput(network, result)


class TestExtraction:
    def test_fan_layout_is_the_packed_one_up_to_shift(self):
        g = fan_instance()
        outcome = minimize_area(g)
        x = outcome.representation.x
        base = x[VertexId(1, 0)]
        assert x[VertexId(1, 1)] == base + 1
        assert x[VertexId(1, 2)] == base + 2
        assert outcome.gap_total == 0

    def test_single_vertex(self):
        outcome = minimize_area(build_graph([[2]]))
        assert outcome.representation.x[VertexId(0, 0)] == 0
        assert outcome.gap_total == 0

    def test_rows_total_the_strip_width(self):
        g = pinch_instance()
        network = build_network(g)
        result = resolve_crossing_patterns(network, solve_min_cost_flow(network))
        strip = Fraction(int(g.max_width) * g.max_layer_size)
        assert row_total_widths(network, result) == [strip] * g.num_layers

    def test_extraction_requires_crossing_free_flow(self):
        network, crossed = four_node_pattern()
        with pytest.raises(ValueError):
            extract_representation(build_graph([[1, 1], [1, 1]], [[[0, 0], [0, 1]]]),
                                   network, crossed)


class TestMinimizeArea:
    def test_matches_oracle_on_random_instances(self):
        rng = random.Random(23)
        for seed in range(40):
            layers = rng.randint(1, 4)
            sizes = random_layer_sizes(layers, 8, rng)
            g = gen_random_instance(layers, sizes, (1, 4), seed=seed)
            try:
                outcome = minimize_area(g)
            except StripInfeasibleError:
                with pytest.raises(StripInfeasibleError):
                    brute_force_min_gap(g)
                continue
            oracle_gap, _ = brute_force_min_gap(g)
            assert outcome.gap_total == oracle_gap, f"seed {seed}"
            report = contact_report(g, outcome.representation)
            assert not report.false_adjacencies
            assert report.gap_total == outcome.gap_total

    def test_strip_can_be_infeasible_and_routes_agree(self):
        """Two mid-row rectangles forced between wide non-neighbors above."""
        g = build_graph(
            [[3, 3, 5, 5], [5, 4, 5, 5]],
            [[[0, 1], [1, 1], [1, 1], [1, 3]]],
        )
        with pytest.raises(StripInfeasibleError):
            minimize_area(g)
        with pytest.raises(StripInfeasibleError):
            brute_force_min_gap(g)
        with pytest.raises(StripInfeasibleError):
            minimize_bounding_box(g)

    def test_rational_widths_are_scaled_exactly(self):
        g = build_graph([["3/2"], ["1/2", "1/2", "1/2"]], [[[0, 2]]])
        outcome = minimize_area(g)
        assert outcome.gap_total == 0
        report = contact_report(g, outcome.representation)
        assert not report.false_adjacencies


class TestMinimizeBoundingBox:
    def test_fan_reaches_the_widest_row(self):
        result = minimize_bounding_box(fan_instance())
        assert result.width == 3
        assert contact_report(fan_instance(), result.representation).bbox_width <= 3

    def test_single_vertex(self):
        result = minimize_bounding_box(build_graph([[5]]))
        assert result.width == 5

    def test_rejects_fractional_widths(self):
        with pytest.raises(InvalidInstanceError):
            minimize_bounding_box(build_graph([["1/2"]]))

    def test_bounds_minimality_and_solve_budget(self):
        rng = random.Random(31)
        for seed in range(25):
            layers = rng.randint(1, 4)
            sizes = random_layer_sizes(layers, 8, rng)
            g = gen_random_instance(layers, sizes, (1, 4), seed=seed)
            try:
                result = minimize_bounding_box(g)
            except StripInfeasibleError:
                continue
            w_low = int(g.max_row_width)
            w_high = int(g.max_width) * g.max_layer_size
            assert w_low <= result.width <= w_high
            if result.width > w_low:
                with pytest.raises(FlowInfeasibleError):
                    solve_min_cost_flow(build_network(g, supply=result.width - 1))
            assert result.flow_solves == 1
            report = contact_report(g, result.representation)
            assert report.bbox_width <= result.width
            assert not report.false_adjacencies

    def test_cap_names_narrowest_width_and_strip(self):
        """The narrowest valid layout (423) is wider than the strip (20 * 20)."""
        g = gen_random_instance(6, [20] * 6, (1, 20), seed=0)
        with pytest.raises(StripInfeasibleError, match="423") as info:
            minimize_bounding_box(g)
        assert "400" in str(info.value)

    def test_matches_binary_search_reference(self):
        """Same width and layout, or the same verdict, as probing every strip."""
        rng = random.Random(5)
        infeasible = 0
        for seed in range(100):
            layers = rng.randint(1, 5)
            sizes = [rng.randint(1, 8) for _ in range(layers)]
            g = gen_random_instance(layers, sizes, (1, 9), seed=seed)
            try:
                width, representation = _binary_search_bounding_box(g)
            except StripInfeasibleError:
                infeasible += 1
                with pytest.raises(StripInfeasibleError):
                    minimize_bounding_box(g)
                continue
            result = minimize_bounding_box(g)
            assert result.width == width, f"seed {seed}"
            assert result.representation.x == representation.x, f"seed {seed}"
        assert infeasible == 2  # seeds 33 and 80


def _binary_search_bounding_box(g):
    """Reference (width, layout): binary search for the narrowest feasible strip."""
    lo = int(g.max_row_width)
    hi = int(g.max_width) * g.max_layer_size
    best = None

    def attempt(width):
        network = build_network(g, supply=width)
        try:
            return network, solve_min_cost_flow(network)
        except FlowInfeasibleError:
            return None

    while lo < hi:
        mid = (lo + hi) // 2
        outcome = attempt(mid)
        if outcome is not None:
            best = (mid, *outcome)
            hi = mid
        else:
            lo = mid + 1
    if best is None or best[0] != lo:
        outcome = attempt(lo)
        if outcome is None:
            raise StripInfeasibleError(f"no valid layout fits any strip up to width {hi}")
        best = (lo, *outcome)
    width, network, result = best
    straightened = resolve_crossing_patterns(network, result)
    return width, extract_representation(g, network, straightened)
