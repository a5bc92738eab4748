"""Area minimization as a minimum-cost flow problem.

Every layout inside the strip of width w_max * K is encoded as a flow: the
source pushes exactly that much supply through each row, rectangles are forced
to carry their own width (arc with lower bound = capacity = width), and the
remaining row width runs through gap nodes (one per same-row pair, every
incoming unit costing 1) or the free buffers outside the row.  An arc from a
row element to an element of the row above exists exactly when the two may
legally share x-overlap, so false adjacencies are unrepresentable by
construction.  The cheapest flow therefore spends as little length on gaps as
any valid layout can, and a crossing-free flow reads out directly as a layout.

The flow is found by a primal-dual successive-shortest-path method: Dijkstra
on reduced costs sets node potentials, then a Dinic blocking-flow search
routes as much as it can over the arcs of reduced cost 0, a handful of phases
in all.  The crossing repair then merges each strip's outflows with its
inflows in slot order (the northwest-corner rule), which yields the unique
crossing-free flow with the same node throughputs in one linear pass.

All computations are on integers (rational widths are pre-scaled by their
common denominator), so optima and extracted coordinates are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from math import lcm
from typing import Iterable

from .model import (
    InvalidInstanceError,
    LayeredGraph,
    Representation,
    StripInfeasibleError,
    VertexId,
    contact_report,
    false_adjacency_pairs,
    validate_graph,
)

RECT_A = "rect_a"
RECT_B = "rect_b"
GAP = "gap"
LEFT_BUFFER = "left_buffer"
RIGHT_BUFFER = "right_buffer"
SOURCE = "source"
SINK = "sink"


class SolverInternalError(RuntimeError):
    """An invariant the solver relies on failed; the result is unusable."""


class FlowInfeasibleError(SolverInternalError):
    """The network admits no flow meeting every lower bound and imbalance."""


class CrossingRepairError(SolverInternalError):
    """The crossing-free reroute needs an arc the network lacks."""


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
    # (layer, ordinal) of each element node within its row, for crossing checks
    # and extraction; source/sink carry None.
    element_slot: tuple[tuple[int, int] | None, ...]

    def arc_between(self, tail: FlowNode, head: FlowNode) -> Arc | None:
        idx = self.arc_index.get((self.node_index[tail], self.node_index[head]))
        return self.arcs[idx] if idx is not None else None


@dataclass(frozen=True)
class FlowResult:
    flow: tuple[int, ...]
    cost_units: int

    def cost(self, network: FlowNetwork) -> Fraction:
        return Fraction(self.cost_units, network.denominator)


def build_network(g: LayeredGraph, supply: Fraction | int | None = None) -> FlowNetwork:
    """Construct the flow network, optionally with a reduced source supply.

    The default supply is w_max * K, the strip width; `minimize_bounding_box`
    passes the narrowest valid width instead.  Rejects graphs that fail
    `validate_graph`.
    """
    violations = validate_graph(g)
    if violations:
        raise InvalidInstanceError(f"invalid graph: {violations[0]}")
    return _build_network(g, supply)


def _build_network(g: LayeredGraph, supply: Fraction | int | None) -> FlowNetwork:
    """`build_network` for a graph the caller has already validated."""
    denom = lcm(*(w.denominator for row in g.widths for w in row))
    if supply is None:
        supply = g.max_width * g.max_layer_size
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
            units = g.width(VertexId(i, j)) * denom
            w = int(units)
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
    every arc cost to be non-negative (`build_network` makes only 0 and 1);
    a negative cost raises SolverInternalError.  Raises FlowInfeasibleError
    when the excess cannot be routed, e.g. when the supply is narrower than
    every valid layout.
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
    return FlowResult(flow=tuple(flows), cost_units=cost_units)


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


def _has_crossing(network: FlowNetwork, flow: Iterable[int]) -> bool:
    """Whether any two positive-flow arcs between consecutive rows cross.

    O(m log m): with a strip's arcs sorted by (tail slot, head slot), an arc
    crosses an earlier one exactly when its head lies left of the rightmost
    head of the arcs with strictly smaller tails.
    """
    slot = network.element_slot
    for idxs in _strip_arcs(network, flow).values():
        ends = sorted(
            (slot[network.arcs[idx].tail][1], slot[network.arcs[idx].head][1])
            for idx in idxs
        )
        rightmost_before = -1  # over tails strictly left of the current tail
        current_tail = None
        rightmost = -1
        for tail, head in ends:
            if tail != current_tail:
                rightmost_before = rightmost
                current_tail = tail
            if head < rightmost_before:
                return True
            rightmost = max(rightmost, head)
    return False


def resolve_crossing_patterns(network: FlowNetwork, result: FlowResult) -> FlowResult:
    """Reroute each strip's flow so that no two positive-flow arcs cross.

    Between two consecutive rows, the lower row's outflows (tails in slot
    order) are merged monotonically with the upper row's inflows (heads in
    slot order): each step sends min(remaining out, remaining in) along the
    current (tail, head) arc and advances whichever side is used up (the
    northwest-corner rule).  Every node throughput is kept, and a
    crossing-free flow with given throughputs is unique, so this is the flow
    any sequence of crossing swaps ends at.  Cost depends only on arc heads,
    so it is unchanged.  The merged arcs always exist because element reaches
    grow monotonically along a row; if one were missing the network itself
    is wrong, which is an internal error.
    """
    flow = list(result.flow)
    slot = network.element_slot
    for idxs in _strip_arcs(network, flow).values():
        outflow: dict[int, int] = {}
        inflow: dict[int, int] = {}
        for idx in idxs:
            arc = network.arcs[idx]
            outflow[arc.tail] = outflow.get(arc.tail, 0) + flow[idx]
            inflow[arc.head] = inflow.get(arc.head, 0) + flow[idx]
            flow[idx] = 0
        tails = sorted(outflow, key=lambda node: (slot[node][1], node))
        heads = sorted(inflow, key=lambda node: (slot[node][1], node))
        t_pos = h_pos = 0
        while t_pos < len(tails):
            tail, head = tails[t_pos], heads[h_pos]
            idx = network.arc_index.get((tail, head))
            if idx is None:
                raise CrossingRepairError(
                    f"no arc {network.nodes[tail].label()}->{network.nodes[head].label()} "
                    f"for the crossing-free reroute"
                )
            sent = min(outflow[tail], inflow[head])
            flow[idx] += sent
            outflow[tail] -= sent
            inflow[head] -= sent
            if outflow[tail] == 0:
                t_pos += 1
            if inflow[head] == 0:
                h_pos += 1

    cost_units = sum(arc.cost * f for arc, f in zip(network.arcs, flow))
    if cost_units != result.cost_units:
        raise SolverInternalError(
            f"crossing repair changed cost: {result.cost_units} -> {cost_units}"
        )
    return FlowResult(flow=tuple(flow), cost_units=cost_units)


def node_throughput(network: FlowNetwork, result: FlowResult) -> dict[int, int]:
    """Units through each element node (inflow; for layer 0, flow from the source)."""
    through = [0] * len(network.nodes)
    for arc, f in zip(network.arcs, result.flow):
        through[arc.head] += f
    return {i: through[i] for i, slot in enumerate(network.element_slot) if slot is not None}


def row_total_widths(network: FlowNetwork, result: FlowResult) -> list[Fraction]:
    """Total width of each extracted row, buffers and gaps included."""
    through = node_throughput(network, result)
    num_layers = 1 + max(slot[0] for slot in network.element_slot if slot is not None)
    totals = [0] * num_layers
    for node_id, units in through.items():
        node = network.nodes[node_id]
        if node.kind == RECT_A:
            continue  # count each rectangle once, via its outgoing copy
        totals[network.element_slot[node_id][0]] += units
    return [Fraction(units, network.denominator) for units in totals]


def extract_representation(
    g: LayeredGraph,
    network: FlowNetwork,
    result: FlowResult,
    epsilon: Fraction | int = 1,
) -> Representation:
    """Read a crossing-free flow as a layout, left-aligned per row.

    Each row is laid out as: left buffer, then rectangles alternating with
    gaps, each as wide as the flow through its node, then the right buffer.
    Every row totals the supply, and the result is shifted so min x = 0.
    """
    if _has_crossing(network, result.flow):
        raise ValueError("flow has crossing pairs; run resolve_crossing_patterns first")
    through = node_throughput(network, result)
    denom = network.denominator
    x: dict[VertexId, Fraction] = {}
    for i in range(g.num_layers):
        size = g.layer_size(i)
        cursor = through[network.node_index[FlowNode(LEFT_BUFFER, i)]]
        for j in range(size):
            v = VertexId(i, j)
            rect_units = through[network.node_index[FlowNode(RECT_A, i, j)]]
            if Fraction(rect_units, denom) != g.width(v):
                raise SolverInternalError(f"{v} carries {rect_units} units, not its width")
            x[v] = Fraction(cursor, denom)
            cursor += rect_units
            if j < size - 1:
                cursor += through[network.node_index[FlowNode(GAP, i, j)]]
        cursor += through[network.node_index[FlowNode(RIGHT_BUFFER, i)]]
        if cursor != network.supply:
            raise SolverInternalError(
                f"row {i} totals {cursor} units, expected {network.supply}"
            )
    shift = min(x.values())
    return Representation(
        x={v: value - shift for v, value in x.items()}, epsilon=Fraction(epsilon)
    )


@dataclass(frozen=True)
class AreaResult:
    representation: Representation
    gap_total: Fraction


def minimize_area(g: LayeredGraph, epsilon: Fraction | int = 1) -> AreaResult:
    """Minimum-total-gap valid layout inside the strip of width w_max * K.

    Raises StripInfeasibleError when no valid layout fits the strip at all
    (the brute-force gap oracle reports the same outcome on such instances).
    """
    network = build_network(g)
    try:
        result = solve_min_cost_flow(network)
    except FlowInfeasibleError as exc:
        raise StripInfeasibleError(
            f"no valid layout fits the strip of width {g.max_width * g.max_layer_size}"
        ) from exc
    straightened = resolve_crossing_patterns(network, result)
    representation = extract_representation(g, network, straightened, epsilon)
    gap_total = straightened.cost(network)
    report = contact_report(g, representation)
    if report.false_adjacencies:
        raise SolverInternalError("extracted layout has false adjacencies")
    if report.gap_total != gap_total:
        raise SolverInternalError(
            f"extracted gap total {report.gap_total} != flow cost {gap_total}"
        )
    return AreaResult(representation=representation, gap_total=gap_total)


@dataclass(frozen=True)
class BoundingBoxResult:
    representation: Representation
    width: Fraction
    flow_solves: int


def _narrowest_width(g: LayeredGraph) -> int:
    """Narrowest bounding width of any valid layout of an integer-width graph.

    Every valid layout satisfies the difference constraints x_b >= x_a + w_a of
    row order and of the nearest forbidden pairs (F_L, F_R) of
    `false_adjacency_pairs`, which keep out every false adjacency; the
    left-compacted layout meets them all.  So the narrowest width is the
    longest path over those constraints, found by one topological pass in
    O(V + E).
    """
    offset = [0]
    for row in g.widths:
        offset.append(offset[-1] + len(row))
    width = [int(w) for row in g.widths for w in row]

    def flat(v: VertexId) -> int:
        return offset[v.layer] + v.pos

    successors: list[list[int]] = [[] for _ in width]
    for i, row in enumerate(g.widths):
        for j in range(len(row) - 1):
            successors[offset[i] + j].append(offset[i] + j + 1)
    f_left, f_right = false_adjacency_pairs(g)
    for v, above in f_left:  # ``above`` lies entirely left of ``v``
        successors[flat(above)].append(flat(v))
    for v, above in f_right:  # ``above`` lies entirely right of ``v``
        successors[flat(v)].append(flat(above))

    indegree = [0] * len(width)
    for heads in successors:
        for b in heads:
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
    return max(x + w for x, w in zip(start, width))


def minimize_bounding_box(g: LayeredGraph, epsilon: Fraction | int = 1) -> BoundingBoxResult:
    """Narrowest valid layout, which must fit the strip of width w_max * K.

    The narrowest width W* of any valid layout is a longest path over the
    graph's ordering constraints (`_narrowest_width`).  The network with
    supply W* is feasible and every narrower one is not, so a single flow
    solve at W* yields the layout.  The strip caps the width: when W* exceeds
    w_max * K, StripInfeasibleError names both numbers and no network is
    built.  Requires integer widths.
    """
    violations = validate_graph(g)
    if violations:
        raise InvalidInstanceError(f"invalid graph: {violations[0]}")
    if any(w.denominator != 1 for row in g.widths for w in row):
        raise InvalidInstanceError("bounding-box minimization requires integer widths")
    width = _narrowest_width(g)
    strip = int(g.max_width) * g.max_layer_size
    if width > strip:
        raise StripInfeasibleError(
            f"narrowest valid layout is {width} wide; strip w_max*K is {strip}"
        )
    network = _build_network(g, supply=width)
    result = solve_min_cost_flow(network)
    straightened = resolve_crossing_patterns(network, result)
    representation = extract_representation(g, network, straightened, epsilon)
    return BoundingBoxResult(
        representation=representation, width=Fraction(width), flow_solves=1
    )
