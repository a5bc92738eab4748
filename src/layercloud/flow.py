"""Area and bounding-box minimization as minimum-cost flows.

The paper's network (`build_network`) encodes every layout inside a strip of
width S as a flow: the source pushes S units through each row, rectangles are
forced to carry their own width (arc with lower bound = capacity = width), and
the remaining row width runs through gap nodes (one per same-row pair, every
incoming unit costing 1) or the free buffers outside the row.  An arc from a
row element to an element of the row above exists exactly when the two may
legally share x-overlap, so false adjacencies are unrepresentable by
construction, and the cheapest flow spends as little length on gaps as any
valid layout can.  This is the documented model: `dump_network` writes it,
and the CLI certifies a bounding-box width with it.

The solvers take the dual route to the same optimum.  A layout is valid
exactly when it meets the difference constraints x_b >= x_a + w_a of row
order and of the nearest forbidden pairs F_L and F_R, and it lies in the
strip when 0 <= x_v <= S - w_v.  Minimizing the sum over rows of
(x_last - x_first) under these constraints is an LP whose dual is a min-cost
flow on the constraint graph itself: one node per vertex plus an origin, one
arc per constraint, and one unit from each row's first vertex to its last.
The layout is read off the optimal node potentials (Ahuja, Magnanti and
Orlin, *Network Flows*, 1993).  The left-compacted layout, one longest-path
pass, gives the narrowest valid width W* and start potentials that make every
arc cost non-negative whenever W* <= S.  `minimize_area` solves in the strip
S = w_max * K, `minimize_bounding_box` in S = W*.

Both networks are solved by `solve_min_cost_flow`, a primal-dual
successive-shortest-path method: Dijkstra on reduced costs sets node
potentials, then a Dinic blocking-flow search routes as much as it can over
the arcs of reduced cost 0, a handful of phases in all.

All computations are on integers.  Both the solvers and `build_network`
enter through `model.difference_graph`, which validates the graph and
epsilon and scales widths once to integers; the solvers leave through
`model.scaled_layout`.  Optima and coordinates are exact, for rational
widths too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from typing import Iterable

from .model import (
    DifferenceGraph,
    InvalidInstanceError,
    LayeredGraph,
    Representation,
    StripInfeasibleError,
    VertexId,
    contact_report,
    difference_graph,
    scaled_layout,
)

RECT_A = "rect_a"
RECT_B = "rect_b"
GAP = "gap"
LEFT_BUFFER = "left_buffer"
RIGHT_BUFFER = "right_buffer"
SOURCE = "source"
SINK = "sink"
# Nodes of the constraint graph that the solvers work on.
VERTEX = "vertex"
ORIGIN = "origin"


class SolverInternalError(RuntimeError):
    """An invariant the solver relies on failed; the result is unusable."""


class FlowInfeasibleError(SolverInternalError):
    """The network admits no flow meeting every lower bound and imbalance."""


@dataclass(frozen=True)
class FlowNode:
    kind: str
    layer: int = -1
    pos: int = -1

    def label(self) -> str:
        if self.kind == SOURCE:
            return "s"
        if self.kind == SINK:
            return "t"
        if self.kind == ORIGIN:
            return "z"
        if self.kind == VERTEX:
            return f"v[{self.layer},{self.pos}]"
        if self.kind in (RECT_A, RECT_B):
            return f"{'va' if self.kind == RECT_A else 'vb'}[{self.layer},{self.pos}]"
        if self.kind == GAP:
            return f"gap[{self.layer},{self.pos}]"
        side = "lbuf" if self.kind == LEFT_BUFFER else "rbuf"
        return f"{side}[{self.layer}]"


@dataclass(frozen=True)
class Arc:
    tail: int
    head: int
    lower: int
    capacity: int
    cost: int


@dataclass(frozen=True)
class FlowNetwork:
    """Scaled-integer network; ``denominator`` maps flow units back to widths."""

    nodes: tuple[FlowNode, ...]
    arcs: tuple[Arc, ...]
    imbalance: dict[int, int]
    supply: int
    denominator: int
    node_index: dict[FlowNode, int]
    arc_index: dict[tuple[int, int], int]
    # (layer, ordinal) of each element node within its row, for crossing
    # checks; source, sink and constraint-graph nodes carry None.
    element_slot: tuple[tuple[int, int] | None, ...]

    def arc_between(self, tail: FlowNode, head: FlowNode) -> Arc | None:
        idx = self.arc_index.get((self.node_index[tail], self.node_index[head]))
        return self.arcs[idx] if idx is not None else None


@dataclass(frozen=True)
class FlowResult:
    """A flow, its cost in scaled units, and the solver's final potentials.

    Under ``potential`` every residual arc has reduced cost
    cost + potential[tail] - potential[head] >= 0, the optimality certificate.
    """

    flow: tuple[int, ...]
    cost_units: int
    potential: tuple[int, ...] = ()

    def cost(self, network: FlowNetwork) -> Fraction:
        return Fraction(self.cost_units, network.denominator)


def build_network(g: LayeredGraph, supply: Fraction | int | None = None) -> FlowNetwork:
    """Construct the flow network, optionally with a reduced source supply.

    The default supply is w_max * K, the strip width; the narrowest valid
    width is the smallest supply that admits a flow.  The graph's validation,
    its scale and its integer widths come from `model.difference_graph`
    (the paper's network has no epsilon).
    """
    dg = difference_graph(g)
    denom = dg.denominator
    if supply is None:
        supply = g.strip_width
    supply = Fraction(supply)
    supply_units = supply * denom
    if supply_units.denominator != 1:
        raise InvalidInstanceError(f"supply {supply} is not representable in width units")
    supply_units = int(supply_units)

    nodes: list[FlowNode] = []
    slots: list[tuple[int, int] | None] = []
    index: dict[FlowNode, int] = {}

    def add_node(node: FlowNode, slot: tuple[int, int] | None) -> int:
        index[node] = len(nodes)
        nodes.append(node)
        slots.append(slot)
        return index[node]

    source = add_node(FlowNode(SOURCE), None)
    sink = add_node(FlowNode(SINK), None)
    for i in range(g.num_layers):
        size = g.layer_size(i)
        # Row order: left buffer, then rectangles alternating with gaps, then
        # the right buffer.  Both rectangle copies share the rectangle's slot.
        add_node(FlowNode(LEFT_BUFFER, i), (i, 0))
        for j in range(size):
            add_node(FlowNode(RECT_A, i, j), (i, 2 * j + 1))
            add_node(FlowNode(RECT_B, i, j), (i, 2 * j + 1))
        for j in range(size - 1):
            add_node(FlowNode(GAP, i, j), (i, 2 * j + 2))
        add_node(FlowNode(RIGHT_BUFFER, i), (i, 2 * size))

    arcs: list[Arc] = []
    arc_index: dict[tuple[int, int], int] = {}

    def add_arc(tail: int, head: int, lower: int, capacity: int, cost: int) -> None:
        if (tail, head) in arc_index:
            return
        arc_index[(tail, head)] = len(arcs)
        arcs.append(Arc(tail, head, lower, capacity, cost))

    def cost_into(head: int) -> int:
        return 1 if nodes[head].kind == GAP else 0

    inf = supply_units

    def slot_node(layer: int, slot: int) -> int:
        """Gap slot ``slot`` of a row; -1 is the left buffer, size-1 the right."""
        if slot < 0:
            return index[FlowNode(LEFT_BUFFER, layer)]
        if slot == g.layer_size(layer) - 1:
            return index[FlowNode(RIGHT_BUFFER, layer)]
        return index[FlowNode(GAP, layer, slot)]

    def rect_targets(layer: int, j: int) -> list[int]:
        """Everything on the row above that may sit over rectangle (layer, j)."""
        interval = g.up_interval(VertexId(layer, j))
        lo, hi = interval
        targets = [index[FlowNode(RECT_A, layer + 1, m)] for m in range(lo, hi + 1)]
        targets.extend(slot_node(layer + 1, s) for s in range(lo - 1, hi + 1))
        return targets

    for i in range(g.num_layers):
        for j in range(g.layer_size(i)):
            w = dg.width[dg.offset[i] + j]
            add_arc(index[FlowNode(RECT_A, i, j)], index[FlowNode(RECT_B, i, j)], w, w, 0)

    add_arc(source, index[FlowNode(LEFT_BUFFER, 0)], 0, inf, 0)
    for j in range(g.layer_size(0)):
        add_arc(source, index[FlowNode(RECT_A, 0, j)], 0, inf, 0)
    for j in range(g.layer_size(0) - 1):
        add_arc(source, index[FlowNode(GAP, 0, j)], 0, inf, 1)
    add_arc(source, index[FlowNode(RIGHT_BUFFER, 0)], 0, inf, 0)

    for i in range(g.num_layers - 1):
        size = g.layer_size(i)
        reach = [rect_targets(i, j) for j in range(size)]
        for j in range(size):
            tail = index[FlowNode(RECT_B, i, j)]
            for head in reach[j]:
                add_arc(tail, head, 0, inf, cost_into(head))
        for j in range(size - 1):
            tail = index[FlowNode(GAP, i, j)]
            for head in reach[j] + reach[j + 1]:
                add_arc(tail, head, 0, inf, cost_into(head))
        for j, buffer_kind in ((0, LEFT_BUFFER), (size - 1, RIGHT_BUFFER)):
            tail = index[FlowNode(buffer_kind, i)]
            for head in reach[j]:
                add_arc(tail, head, 0, inf, cost_into(head))

    top = g.num_layers - 1
    add_arc(index[FlowNode(LEFT_BUFFER, top)], sink, 0, inf, 0)
    for j in range(g.layer_size(top)):
        add_arc(index[FlowNode(RECT_B, top, j)], sink, 0, inf, 0)
    for j in range(g.layer_size(top) - 1):
        add_arc(index[FlowNode(GAP, top, j)], sink, 0, inf, 0)
    add_arc(index[FlowNode(RIGHT_BUFFER, top)], sink, 0, inf, 0)

    return FlowNetwork(
        nodes=tuple(nodes),
        arcs=tuple(arcs),
        imbalance={source: supply_units, sink: -supply_units},
        supply=supply_units,
        denominator=denom,
        node_index=index,
        arc_index=arc_index,
        element_slot=tuple(slots),
    )


def dump_network(network: FlowNetwork) -> str:
    """Plain-text arc list (from, to, lower, capacity, cost per line)."""
    denom = network.denominator
    lines = []
    for arc in network.arcs:
        lines.append(
            f"{network.nodes[arc.tail].label()} {network.nodes[arc.head].label()} "
            f"{Fraction(arc.lower, denom)} {Fraction(arc.capacity, denom)} {arc.cost}"
        )
    return "\n".join(lines) + "\n"


def solve_min_cost_flow(network: FlowNetwork) -> FlowResult:
    """Exact minimum-cost flow meeting lower bounds and node imbalances.

    Lower bounds are folded into node excesses, then a primal-dual
    successive-shortest-path method routes the excess from a super source to
    a super sink.  Each phase runs Dijkstra on reduced costs, raises every
    node potential by its distance (capped at the super sink's), and routes a
    maximum flow (Dinic) over the residual arcs of reduced cost 0, which are
    exactly the arcs on shortest paths.  Potentials start at 0, which needs
    every arc cost to be non-negative (`build_network` makes only 0 and 1,
    and the solvers pre-reduce their costs by the left-compacted layout); a
    negative cost raises SolverInternalError.  The result carries the final
    potentials of the network's nodes, under which no residual arc has a
    negative reduced cost.  Raises FlowInfeasibleError when the excess cannot
    be routed, e.g. when the supply is narrower than every valid layout.
    """
    num_nodes = len(network.nodes)
    excess = [0] * num_nodes
    for node, b in network.imbalance.items():
        excess[node] += b
    for arc in network.arcs:
        if arc.cost < 0:
            raise SolverInternalError(
                f"arc {network.nodes[arc.tail].label()}->{network.nodes[arc.head].label()} "
                f"costs {arc.cost}; zero start potentials need costs >= 0"
            )
        excess[arc.tail] -= arc.lower
        excess[arc.head] += arc.lower

    super_source = num_nodes
    super_sink = num_nodes + 1
    # Residual arcs come in pairs: arc e and its reverse e ^ 1.  Network arc k
    # is residual arc 2k.
    head: list[int] = []
    cap: list[int] = []
    cost: list[int] = []
    out: list[list[int]] = [[] for _ in range(num_nodes + 2)]

    def add_edge(u: int, v: int, capacity: int, unit_cost: int) -> None:
        out[u].append(len(head))
        head.append(v)
        cap.append(capacity)
        cost.append(unit_cost)
        out[v].append(len(head))
        head.append(u)
        cap.append(0)
        cost.append(-unit_cost)

    for arc in network.arcs:
        add_edge(arc.tail, arc.head, arc.capacity - arc.lower, arc.cost)
    need = 0
    for node in range(num_nodes):
        if excess[node] > 0:
            add_edge(super_source, node, excess[node], 0)
            need += excess[node]
        elif excess[node] < 0:
            add_edge(node, super_sink, -excess[node], 0)

    total = num_nodes + 2
    pot = [0] * total
    routed = 0
    while routed < need:
        # Dijkstra on reduced costs, stopped once the super sink is settled:
        # every unsettled node is at least that far away.
        dist = [-1] * total
        settled = [False] * total
        dist[super_source] = 0
        heap = [(0, super_source)]
        while heap:
            d, u = heappop(heap)
            if settled[u]:
                continue
            settled[u] = True
            if u == super_sink:
                break
            base = d + pot[u]
            for e in out[u]:
                if cap[e] > 0:
                    v = head[e]
                    if settled[v]:
                        continue
                    nd = base + cost[e] - pot[v]
                    if dist[v] < 0 or nd < dist[v]:
                        dist[v] = nd
                        heappush(heap, (nd, v))
        if not settled[super_sink]:
            raise FlowInfeasibleError(
                f"cannot route {need - routed} of {need} lower-bound/supply units"
            )
        reach = dist[super_sink]
        for v in range(total):
            pot[v] += dist[v] if settled[v] else reach
        routed += _route_admissible(out, head, cap, cost, pot, super_source, super_sink)

    flows = []
    for k, arc in enumerate(network.arcs):
        sent = (arc.capacity - arc.lower) - cap[2 * k]
        flows.append(arc.lower + sent)
    cost_units = sum(arc.cost * f for arc, f in zip(network.arcs, flows))
    return FlowResult(
        flow=tuple(flows), cost_units=cost_units, potential=tuple(pot[:num_nodes])
    )


def _route_admissible(
    out: list[list[int]],
    head: list[int],
    cap: list[int],
    cost: list[int],
    pot: list[int],
    source: int,
    sink: int,
) -> int:
    """Dinic maximum flow over the residual arcs of reduced cost 0.

    Returns the units routed.  The level-graph search is iterative because an
    augmenting path can be longer than Python's recursion limit.
    """
    total = len(out)
    routed = 0
    while True:
        level = [-1] * total
        level[source] = 0
        queue = [source]
        for u in queue:
            next_level = level[u] + 1
            pu = pot[u]
            for e in out[u]:
                if cap[e] > 0:
                    v = head[e]
                    if level[v] < 0 and cost[e] + pu == pot[v]:
                        level[v] = next_level
                        queue.append(v)
        if level[sink] < 0:
            return routed
        # Blocking flow: depth-first with a current-arc pointer per node; a
        # node whose arcs are exhausted leaves the level graph.
        pointer = [0] * total
        path: list[int] = []
        u = source
        while True:
            if u == sink:
                push = min(cap[e] for e in path)
                for e in path:
                    cap[e] -= push
                    cap[e ^ 1] += push
                routed += push
                path.clear()
                u = source
                continue
            edges = out[u]
            i = pointer[u]
            next_level = level[u] + 1
            pu = pot[u]
            end = len(edges)
            while i < end:
                e = edges[i]
                if cap[e] > 0:
                    v = head[e]
                    if level[v] == next_level and cost[e] + pu == pot[v]:
                        break
                i += 1
            pointer[u] = i
            if i < end:
                path.append(edges[i])
                u = head[edges[i]]
            elif path:
                level[u] = -1
                u = head[path.pop() ^ 1]
                pointer[u] += 1
            else:
                break


def _strip_arcs(network: FlowNetwork, flow: Iterable[int]) -> dict[int, list[int]]:
    """Positive-flow arcs between row elements, grouped by the lower row."""
    strips: dict[int, list[int]] = {}
    for idx, (arc, f) in enumerate(zip(network.arcs, flow)):
        if f <= 0:
            continue
        tail_slot = network.element_slot[arc.tail]
        head_slot = network.element_slot[arc.head]
        if tail_slot is None or head_slot is None:
            continue
        if head_slot[0] != tail_slot[0] + 1:
            continue
        strips.setdefault(tail_slot[0], []).append(idx)
    return strips


def crossing_pairs(network: FlowNetwork, result: FlowResult) -> list[tuple[int, int]]:
    """All pairs of positive-flow arcs between consecutive rows that cross."""
    pairs = []
    strips = _strip_arcs(network, result.flow)
    for layer in sorted(strips):
        arcs = strips[layer]
        arcs.sort(
            key=lambda idx: (
                network.element_slot[network.arcs[idx].tail][1],
                network.element_slot[network.arcs[idx].head][1],
            )
        )
        for a_pos, a_idx in enumerate(arcs):
            for b_idx in arcs[a_pos + 1:]:
                a, b = network.arcs[a_idx], network.arcs[b_idx]
                if (
                    network.element_slot[a.tail][1] < network.element_slot[b.tail][1]
                    and network.element_slot[a.head][1] > network.element_slot[b.head][1]
                ):
                    pairs.append((a_idx, b_idx))
    return pairs


@dataclass(frozen=True)
class AreaResult:
    representation: Representation
    gap_total: Fraction


@dataclass(frozen=True)
class BoundingBoxResult:
    representation: Representation
    width: Fraction
    flow_solves: int


def _left_compacted(dg: DifferenceGraph) -> tuple[list[int], int]:
    """The pointwise smallest layout that meets every arc of ``dg``, and its width.

    It is the longest path over the arcs, found by one topological pass in
    O(V + E); its width is the narrowest of any valid layout.
    """
    width = dg.width
    successors: list[list[int]] = [[] for _ in width]
    indegree = [0] * len(width)
    for a, b in dg.arcs:
        successors[a].append(b)
        indegree[b] += 1
    start = [0] * len(width)
    ready = [a for a, k in enumerate(indegree) if k == 0]
    done = 0
    while ready:
        a = ready.pop()
        done += 1
        reach = start[a] + width[a]
        for b in successors[a]:
            if reach > start[b]:
                start[b] = reach
            indegree[b] -= 1
            if indegree[b] == 0:
                ready.append(b)
    if done != len(width):
        raise SolverInternalError(
            f"ordering constraints contain a cycle: {len(width) - done} vertices unplaced"
        )
    return start, max(x + w for x, w in zip(start, width))


def _solve_in_strip(
    g: LayeredGraph, dg: DifferenceGraph, start: list[int], strip: int
) -> tuple[Representation, Fraction]:
    """Gap-minimal valid layout inside [0, strip] (scaled units), and its gap.

    Needs the left-compacted ``start`` to fit the strip.  The dual of
    minimizing the sum over rows of (x_last - x_first) sends one unit from
    each row's first vertex to its last over arcs a -> b of cost -w_a
    (x_b >= x_a + w_a), origin -> v of cost 0 (x_v >= 0) and v -> origin of
    cost S - w_v (x_v <= S - w_v).  Each cost is reduced by the
    left-compacted starts, which makes it non-negative.  An arc carries at
    most the units routed, so with one more unit of capacity none saturates
    and the optimal potentials meet every constraint:
    x_v = start_v - pot_v + pot_origin.  Complementary slackness makes that
    layout optimal, and the duality gap check below certifies it.
    """
    width, offset = dg.width, dg.offset
    origin = len(width)
    rows = [
        (offset[i], offset[i + 1] - 1)
        for i in range(g.num_layers)
        if offset[i + 1] - offset[i] > 1
    ]
    capacity = len(rows) + 1
    arcs = [Arc(a, b, 0, capacity, start[b] - start[a] - width[a]) for a, b in dg.arcs]
    for v in range(origin):
        arcs.append(Arc(origin, v, 0, capacity, start[v]))
        arcs.append(Arc(v, origin, 0, capacity, strip - width[v] - start[v]))
    imbalance = {}
    for first, last in rows:
        imbalance[first] = 1
        imbalance[last] = -1
    nodes = tuple(FlowNode(VERTEX, v.layer, v.pos) for v in g.vertices()) + (
        FlowNode(ORIGIN),
    )
    network = FlowNetwork(
        nodes=nodes,
        arcs=tuple(arcs),
        imbalance=imbalance,
        supply=len(rows),
        denominator=dg.denominator,
        node_index={node: k for k, node in enumerate(nodes)},
        arc_index={(arc.tail, arc.head): k for k, arc in enumerate(arcs)},
        element_slot=(None,) * len(nodes),
    )
    result = solve_min_cost_flow(network)
    pot = result.potential
    x = [s - p + pot[origin] for s, p in zip(start, pot)]
    spread = sum(x[last] - x[first] for first, last in rows)
    certified = sum(start[last] - start[first] for first, last in rows) - result.cost_units
    if spread != certified:
        raise SolverInternalError(
            f"rows of the layout span {spread} units; the flow certifies {certified}"
        )
    gap_units = spread - sum(sum(width[first:last]) for first, last in rows)
    representation = scaled_layout(
        g, x, dg.denominator, Fraction(dg.epsilon, dg.denominator)
    )
    return representation, Fraction(gap_units, dg.denominator)


def minimize_area(g: LayeredGraph, epsilon: Fraction | int = 1) -> AreaResult:
    """Minimum-total-gap valid layout inside the strip of width w_max * K.

    One min-cost flow on the dual of the graph's difference constraints
    (`_solve_in_strip`); its optimum equals that of the paper's network
    (`build_network`).  Raises StripInfeasibleError, before any flow, when
    the narrowest valid layout is wider than the strip (the brute-force gap
    oracle reports the same outcome on such instances).
    """
    dg = difference_graph(g, epsilon)
    start, narrowest = _left_compacted(dg)
    strip = g.strip_width
    if narrowest > strip * dg.denominator:
        raise StripInfeasibleError(f"no valid layout fits the strip of width {strip}")
    representation, gap_total = _solve_in_strip(
        g, dg, start, int(strip * dg.denominator)
    )
    report = contact_report(g, representation)
    if report.false_adjacencies:
        raise SolverInternalError("extracted layout has false adjacencies")
    if report.gap_total != gap_total:
        raise SolverInternalError(
            f"extracted gap total {report.gap_total} != flow cost {gap_total}"
        )
    return AreaResult(representation=representation, gap_total=gap_total)


def minimize_bounding_box(g: LayeredGraph, epsilon: Fraction | int = 1) -> BoundingBoxResult:
    """Narrowest valid layout, which must fit the strip of width w_max * K.

    The narrowest width W* of any valid layout is the width of the
    left-compacted layout (`_left_compacted`).  One min-cost flow, the same
    as `minimize_area`'s but in the strip of width W*, then picks the layout
    of least total gap among the narrowest.  The strip caps the width: when
    W* exceeds w_max * K, StripInfeasibleError names both numbers and no flow
    is solved.  Rational widths and epsilon are solved exactly.
    """
    dg = difference_graph(g, epsilon)
    start, narrowest = _left_compacted(dg)
    width = Fraction(narrowest, dg.denominator)
    strip = g.strip_width
    if width > strip:
        raise StripInfeasibleError(
            f"narrowest valid layout is {width} wide; strip w_max*K is {strip}"
        )
    representation, _ = _solve_in_strip(g, dg, start, narrowest)
    return BoundingBoxResult(representation=representation, width=width, flow_solves=1)
