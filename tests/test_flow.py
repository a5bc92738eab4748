"""Flow solver tests: construction counts, optimality certificates, oracle equivalence."""

from __future__ import annotations

import random
from collections import deque

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
    SolverInternalError,
    build_network,
    crossing_pairs,
    dump_network,
    minimize_area,
    minimize_bounding_box,
    solve_min_cost_flow,
)
from layercloud.generate import gen_random_instance, random_layer_sizes
from layercloud.model import (
    InvalidInstanceError,
    LayeredGraph,
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

    def test_negative_arc_cost_is_an_internal_error(self):
        """Zero start potentials are only valid when no arc costs less than 0."""
        nodes = (FlowNode(SOURCE), FlowNode(SINK))
        arcs = (Arc(0, 1, 0, 1, -1),)
        network = FlowNetwork(
            nodes=nodes,
            arcs=arcs,
            imbalance={0: 1, 1: -1},
            supply=1,
            denominator=1,
            node_index={node: i for i, node in enumerate(nodes)},
            arc_index={(0, 1): 0},
            element_slot=(None, None),
        )
        with pytest.raises(SolverInternalError, match="costs -1"):
            solve_min_cost_flow(network)

    def test_matches_bellman_ford_reference(self):
        """Same optimum cost, or the same infeasible verdict, as one
        Bellman-Ford search per augmenting path; at the strip width and at the
        widest row, which is often too narrow."""
        rng = random.Random(5)
        infeasible = 0
        for seed in range(100):
            layers = rng.randint(1, 5)
            sizes = [rng.randint(1, 8) for _ in range(layers)]
            g = gen_random_instance(layers, sizes, (1, 9), seed=seed)
            for supply in (None, g.max_row_width):
                network = build_network(g, supply=supply)
                try:
                    expected = _bellman_ford_reference(network)
                except FlowInfeasibleError as exc:
                    infeasible += 1
                    with pytest.raises(FlowInfeasibleError, match=str(exc)):
                        solve_min_cost_flow(network)
                    continue
                result = solve_min_cost_flow(network)
                assert result.cost_units == expected.cost_units, f"seed {seed}"
                for arc, f in zip(network.arcs, result.flow):
                    assert arc.lower <= f <= arc.capacity
        assert infeasible == 51  # of 200 probes; 2 at the strip width

    def test_potentials_certify_optimality(self):
        """No residual arc of the paper's network has a negative reduced cost
        under the returned potentials, at the strip width and at a narrower
        feasible supply."""
        rng = random.Random(13)
        checked = 0
        for seed in range(60):
            layers = rng.randint(1, 4)
            sizes = [rng.randint(1, 8) for _ in range(layers)]
            g = gen_random_instance(layers, sizes, (1, 9), seed=seed)
            for supply in (None, (g.max_width * g.max_layer_size + g.max_row_width) // 2):
                network = build_network(g, supply=supply)
                try:
                    result = solve_min_cost_flow(network)
                except FlowInfeasibleError:
                    continue
                checked += 1
                pot = result.potential
                assert len(pot) == len(network.nodes)
                for arc, f in zip(network.arcs, result.flow):
                    reduced = arc.cost + pot[arc.tail] - pot[arc.head]
                    if f < arc.capacity:
                        assert reduced >= 0, f"seed {seed}"
                    if f > arc.lower:
                        assert reduced <= 0, f"seed {seed}"
        assert checked >= 100

    def test_crossing_pairs_lists_crossed_strip_arcs(self):
        g = build_graph([[1, 1], [1, 1]], [[[0, 0], [0, 1]]])
        network = build_network(g)
        over_gap = network.arc_index[
            (network.node_index[FlowNode(RECT_B, 0, 0)], network.node_index[FlowNode(GAP, 1, 0)])
        ]
        under_rect = network.arc_index[
            (network.node_index[FlowNode(RECT_B, 0, 1)], network.node_index[FlowNode(RECT_A, 1, 0)])
        ]
        flow = [0] * len(network.arcs)
        flow[over_gap] = flow[under_rect] = 1
        crossed = FlowResult(flow=tuple(flow), cost_units=0)
        assert crossing_pairs(network, crossed) == [(over_gap, under_rect)]
        flow[under_rect] = 0
        assert crossing_pairs(network, FlowResult(flow=tuple(flow), cost_units=0)) == []


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

    def test_three_rows_of_120(self):
        """Augmenting paths here are longer than Python's recursion limit."""
        g = gen_random_instance(3, [120] * 3, (1, 120), seed=0)
        outcome = minimize_area(g)
        assert outcome.gap_total == 16086
        report = contact_report(g, outcome.representation)
        assert not report.false_adjacencies
        assert report.gap_total == outcome.gap_total

    def test_gap_equals_paper_network_cost(self):
        """The dual solve reaches the paper network's optimum, or raises
        exactly when that network admits no flow; every third instance is
        also solved with its widths divided by 1-4."""
        rng, scale = random.Random(5), random.Random(7)
        graphs = []
        for seed in range(120):
            layers = rng.randint(1, 5)
            sizes = [rng.randint(1, 8) for _ in range(layers)]
            g = gen_random_instance(layers, sizes, (1, 9), seed=seed)
            graphs.append(g)
            if seed % 3 == 0:
                widths = tuple(tuple(w / scale.randint(1, 4) for w in row) for row in g.widths)
                graphs.append(LayeredGraph(widths=widths, up_neighbors=g.up_neighbors))
        infeasible = rational = 0
        for i, g in enumerate(graphs):
            rational += any(w.denominator > 1 for row in g.widths for w in row)
            network = build_network(g)
            try:
                expected = solve_min_cost_flow(network).cost(network)
            except FlowInfeasibleError:
                infeasible += 1
                with pytest.raises(StripInfeasibleError):
                    minimize_area(g)
                continue
            outcome = minimize_area(g)
            assert outcome.gap_total == expected, f"instance {i}"
            strip = g.max_width * g.max_layer_size
            x = outcome.representation.x
            assert all(0 <= x[v] and x[v] + g.width(v) <= strip for v in g.vertices())
        assert (infeasible, rational) == (2, 40)  # seeds 33 and 80 do not fit

    def test_single_vertex_rows_in_a_tight_strip(self):
        """With one vertex per row the strip w_max * K is the narrowest width."""
        g = build_graph([[2], [5], [3]], [[[0, 0]], [[0, 0]]])
        outcome = minimize_area(g)
        assert outcome.gap_total == 0
        x = outcome.representation.x
        assert all(0 <= x[v] and x[v] + g.width(v) <= 5 for v in g.vertices())
        assert not contact_report(g, outcome.representation).false_adjacencies
        result = minimize_bounding_box(g)
        assert result.width == 5
        assert contact_report(g, result.representation).bbox_width == 5

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
        """Same width, and the same gap total at that width, or the same
        verdict, as probing every strip of the paper's network."""
        rng = random.Random(5)
        infeasible = 0
        for seed in range(100):
            layers = rng.randint(1, 5)
            sizes = [rng.randint(1, 8) for _ in range(layers)]
            g = gen_random_instance(layers, sizes, (1, 9), seed=seed)
            try:
                width, gap_total = _binary_search_bounding_box(g)
            except StripInfeasibleError:
                infeasible += 1
                with pytest.raises(StripInfeasibleError):
                    minimize_bounding_box(g)
                continue
            result = minimize_bounding_box(g)
            assert result.width == width, f"seed {seed}"
            report = contact_report(g, result.representation)
            assert report.gap_total == gap_total, f"seed {seed}"
            assert not report.false_adjacencies, f"seed {seed}"
        assert infeasible == 2  # seeds 33 and 80


def _binary_search_bounding_box(g):
    """Reference (width, gap total): binary search for the narrowest strip in
    which the paper's network admits a flow, and that flow's cost."""
    lo = int(g.max_row_width)
    hi = int(g.max_width) * g.max_layer_size
    best = None

    def attempt(width):
        network = build_network(g, supply=width)
        try:
            return solve_min_cost_flow(network).cost(network)
        except FlowInfeasibleError:
            return None

    while lo < hi:
        mid = (lo + hi) // 2
        cost = attempt(mid)
        if cost is not None:
            best = (mid, cost)
            hi = mid
        else:
            lo = mid + 1
    if best is None or best[0] != lo:
        cost = attempt(lo)
        if cost is None:
            raise StripInfeasibleError(f"no valid layout fits any strip up to width {hi}")
        best = (lo, cost)
    return best


def _bellman_ford_reference(network):
    """Reference min-cost flow: successive shortest paths, one queue-based
    Bellman-Ford search per augmenting path."""
    num_nodes = len(network.nodes)
    excess = [0] * num_nodes
    for node, b in network.imbalance.items():
        excess[node] += b
    for arc in network.arcs:
        excess[arc.tail] -= arc.lower
        excess[arc.head] += arc.lower

    super_source = num_nodes
    super_sink = num_nodes + 1
    graph = [[] for _ in range(num_nodes + 2)]
    arc_slot = []

    def add_edge(u, v, cap, cost):
        graph[u].append([v, cap, cost, len(graph[v])])
        graph[v].append([u, 0, -cost, len(graph[u]) - 1])
        return (u, len(graph[u]) - 1)

    for arc in network.arcs:
        arc_slot.append(add_edge(arc.tail, arc.head, arc.capacity - arc.lower, arc.cost))
    need = 0
    for node in range(num_nodes):
        if excess[node] > 0:
            add_edge(super_source, node, excess[node], 0)
            need += excess[node]
        elif excess[node] < 0:
            add_edge(node, super_sink, -excess[node], 0)

    total = num_nodes + 2
    routed = 0
    while routed < need:
        dist = [None] * total
        parent = [None] * total
        in_queue = [False] * total
        dist[super_source] = 0
        queue = deque([super_source])
        in_queue[super_source] = True
        while queue:
            u = queue.popleft()
            in_queue[u] = False
            for edge_pos, (v, cap, cost, _) in enumerate(graph[u]):
                if cap <= 0:
                    continue
                nd = dist[u] + cost
                if dist[v] is None or nd < dist[v]:
                    dist[v] = nd
                    parent[v] = (u, edge_pos)
                    if not in_queue[v]:
                        queue.append(v)
                        in_queue[v] = True
        if dist[super_sink] is None:
            raise FlowInfeasibleError(
                f"cannot route {need - routed} of {need} lower-bound/supply units"
            )
        bottleneck = need - routed
        node = super_sink
        while node != super_source:
            u, edge_pos = parent[node]
            bottleneck = min(bottleneck, graph[u][edge_pos][1])
            node = u
        node = super_sink
        while node != super_source:
            u, edge_pos = parent[node]
            edge = graph[u][edge_pos]
            edge[1] -= bottleneck
            graph[node][edge[3]][1] += bottleneck
            node = u
        routed += bottleneck

    flows = []
    for arc, (u, pos) in zip(network.arcs, arc_slot):
        sent = (arc.capacity - arc.lower) - graph[u][pos][1]
        flows.append(arc.lower + sent)
    cost_units = sum(arc.cost * f for arc, f in zip(network.arcs, flows))
    return FlowResult(flow=tuple(flows), cost_units=cost_units)
