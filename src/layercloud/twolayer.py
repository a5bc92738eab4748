"""Contact maximization for two-layer graphs by a left-to-right sweep.

Vertices are placed in an order that alternates between the rows: a fan (a
vertex with several neighbors on the opposite row), then its unplaced
neighbors left to right, the last of which is the next fan.  Each rectangle is
placed at its leftmost allowed position; when it cannot reach its fan, the
block of abutting rectangles ending at the fan is slid right to the leftmost
position making the contact, a slide of the fan alone (starting a new block)
is considered, and so is the longest slide that keeps every realized contact.

A slide decision sometimes ties: two geometries realize equally many contacts
but extend differently later, and no local rule picks the right one (see the
regression test with rows [2,5,1,3,1] / [4,4,4,4]).  On desk-scale instances
(up to TIE_SEARCH_VERTEX_LIMIT vertices) the sweep therefore carries every
maximal-gain geometry forward as a small front of states and reports the best
finished one; the front never exceeded 10 states on thousands of such
instances.  Beyond that limit the sweep keeps a single geometry, resolving
ties toward the full slide, so the operation count stays linear in vertices
plus edges with one constant across sizes.

The sweep computes on integers: its widths, epsilon and the forbidden pairs
that bound each placement come from `model.difference_graph`, and positions
return to `Fraction` only in `model.scaled_layout`.

The sweep is a heuristic, not an exact solver, at any size.  On
``gen_random_instance(2, [6, 6], (1, 9), seed=29)`` it realizes 17 contacts
where the optimum (`exact.solve_branch_and_bound`) is 18, and on two-row
instances with rows of 25 to 100 vertices a shortfall of 1 to 3 contacts is
the common case, not the exception.  Use the exact solver when the count must
be optimal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .model import (
    DifferenceGraph,
    InvalidInstanceError,
    LayeredGraph,
    Representation,
    VertexId,
    contact_report,
    difference_graph,
    scaled_layout,
)

# States carried across ties on desk-scale instances; the largest front ever
# observed on instances that small is 10.
FRONT_CAP = 64
# Above this many vertices the sweep follows a single deterministic geometry
# (ties resolved toward the full slide).  Carrying tied geometries cannot be
# reconciled with a size-independent operation constant: large instances
# saturate any front bound that small instances never reach.
TIE_SEARCH_VERTEX_LIMIT = 24


class SweepError(RuntimeError):
    """An internal sweep invariant failed; the result would be untrustworthy."""


@dataclass(frozen=True)
class PlacementOrder:
    """The sweep's vertex ordering: fans followed by their unplaced neighbors."""

    order: tuple[VertexId, ...]


@dataclass(frozen=True)
class TwoLayerResult:
    representation: Representation
    realized_count: int
    operations: int


def _check_two_layers(g: LayeredGraph) -> None:
    if g.num_layers != 2:
        raise InvalidInstanceError(f"sweep requires exactly 2 layers, got {g.num_layers}")


def _opposite_intervals(g: LayeredGraph) -> list[list[tuple[int, int]]]:
    """Per row, the interval of opposite-row neighbor positions of each vertex."""
    up = [g.up_neighbors[0][j] for j in range(g.layer_size(0))]
    down: list[tuple[int, int]] = []
    cursor = 0
    for m in range(g.layer_size(1)):
        while up[cursor][1] < m:
            cursor += 1
        lo = cursor
        hi = cursor
        while hi + 1 < g.layer_size(0) and up[hi + 1][0] <= m:
            hi += 1
        down.append((lo, hi))
    return [list(up), down]


def _order_with_fans(g: LayeredGraph) -> list[tuple[VertexId, VertexId | None]]:
    opp = _opposite_intervals(g)

    def degree(v: VertexId) -> int:
        lo, hi = opp[v.layer][v.pos]
        return hi - lo + 1

    start = VertexId(0, 0)
    if degree(start) == 1 and degree(VertexId(1, 0)) > 1:
        start = VertexId(1, 0)
    order: list[tuple[VertexId, VertexId | None]] = [(start, None)]
    frontier = [0, 0]
    frontier[start.layer] = 1
    fan = start
    while True:
        row = 1 - fan.layer
        hi = opp[fan.layer][fan.pos][1]
        if frontier[row] > hi:
            break
        children = [VertexId(row, p) for p in range(frontier[row], hi + 1)]
        order.extend((child, fan) for child in children)
        frontier[row] = hi + 1
        fan = children[-1]
    if len(order) != g.num_vertices:
        raise SweepError("placement order did not visit every vertex")
    return order


def placement_order(g: LayeredGraph) -> PlacementOrder:
    """The sweep ordering; rejects graphs that are not valid two-layer inputs."""
    _check_two_layers(g)
    difference_graph(g)  # validates the graph
    return PlacementOrder(order=tuple(v for v, _ in _order_with_fans(g)))


class _SweepContext:
    """Immutable precomputations shared by every state of one sweep."""

    def __init__(self, g: LayeredGraph, dg: DifferenceGraph) -> None:
        self.g = g
        self.eps = dg.epsilon
        self.denominator = dg.denominator
        self.opp = _opposite_intervals(g)
        split = dg.offset[1]
        self.widths = [list(dg.width[:split]), list(dg.width[split:])]
        vertices = list(g.vertices())
        # For each vertex: opposite vertices it must stay right of (left
        # bounds) and left of (right blockers), from the F_L and F_R arcs.
        self.left_bounds: dict[VertexId, list[VertexId]] = {}
        self.right_blockers: dict[VertexId, list[VertexId]] = {}
        for a, b in dg.f_left + dg.f_right:
            self.left_bounds.setdefault(vertices[b], []).append(vertices[a])
            self.right_blockers.setdefault(vertices[a], []).append(vertices[b])
        self.operations = 0


class _SweepState:
    """One partial layout; cloning copies only the mutable position arrays."""

    __slots__ = ("ctx", "x", "block_start", "realized")

    def __init__(self, ctx: _SweepContext) -> None:
        self.ctx = ctx
        g = ctx.g
        self.x: list[list[int | None]] = [
            [None] * g.layer_size(0),
            [None] * g.layer_size(1),
        ]
        self.block_start = [[0] * g.layer_size(0), [0] * g.layer_size(1)]
        self.realized = 0

    def clone(self) -> "_SweepState":
        twin = _SweepState.__new__(_SweepState)
        twin.ctx = self.ctx
        twin.x = [list(self.x[0]), list(self.x[1])]
        twin.block_start = [list(self.block_start[0]), list(self.block_start[1])]
        twin.realized = self.realized
        return twin

    def pos(self, v: VertexId) -> int | None:
        return self.x[v.layer][v.pos]

    def width(self, v: VertexId) -> int:
        return self.ctx.widths[v.layer][v.pos]

    def right(self, v: VertexId) -> int:
        return self.pos(v) + self.width(v)

    def overlap_at(self, v: VertexId, x: int, z: VertexId) -> int:
        return min(x + self.width(v), self.right(z)) - max(x, self.pos(z))

    def placed_opposite_neighbors(self, v: VertexId) -> list[VertexId]:
        lo, hi = self.ctx.opp[v.layer][v.pos]
        row = 1 - v.layer
        return [
            VertexId(row, m) for m in range(lo, hi + 1) if self.x[row][m] is not None
        ]

    def hard_lower_bound(self, v: VertexId) -> int | None:
        bound = None
        for z in self.ctx.left_bounds.get(v, ()):
            if self.pos(z) is not None:
                edge = self.right(z)
                bound = edge if bound is None or edge > bound else bound
        return bound

    def place(self, v: VertexId, x: int) -> None:
        self.ctx.operations += 1
        self.x[v.layer][v.pos] = x
        if v.pos > 0:
            pred = VertexId(v.layer, v.pos - 1)
            abuts = self.right(pred) == x
            self.block_start[v.layer][v.pos] = (
                self.block_start[v.layer][pred.pos] if abuts else v.pos
            )

    def slide_is_valid(self, members: list[VertexId], delta: int) -> bool:
        for u in members:
            for z in self.ctx.right_blockers.get(u, ()):
                if self.pos(z) is not None:
                    self.ctx.operations += 1
                    if self.right(u) + delta > self.pos(z):
                        return False
        return True

    def keep_slide_bound(self, members: list[VertexId], delta: int) -> int:
        """Largest slide <= delta that stays valid and loses no realized contact."""
        bound = delta
        for u in members:
            for z in self.ctx.right_blockers.get(u, ()):
                if self.pos(z) is not None:
                    self.ctx.operations += 1
                    bound = min(bound, self.pos(z) - self.right(u))
            for z in self.placed_opposite_neighbors(u):
                self.ctx.operations += 1
                if self.overlap_at(u, self.pos(u), z) >= self.ctx.eps:
                    # The overlap shrinks to eps when u's left edge reaches
                    # right(z) - eps; beyond that the contact dies.
                    bound = min(bound, self.right(z) - self.ctx.eps - self.pos(u))
        return max(bound, 0)

    def slide_delta_contacts(self, members: list[VertexId], delta: int) -> int:
        """Net realized-contact change if ``members`` all move right by delta."""
        change = 0
        for u in members:
            for z in self.placed_opposite_neighbors(u):
                self.ctx.operations += 1
                before = self.overlap_at(u, self.pos(u), z) >= self.ctx.eps
                after = self.overlap_at(u, self.pos(u) + delta, z) >= self.ctx.eps
                change += int(after) - int(before)
        return change

    def apply_slide(self, members: list[VertexId], delta: int) -> None:
        for u in members:
            self.ctx.operations += 1
            self.x[u.layer][u.pos] = self.pos(u) + delta


def _advance(state: _SweepState, v: VertexId, fan: VertexId) -> list[_SweepState]:
    """Place ``v`` in ``state``; return the maximal-gain successor geometries."""
    eps = state.ctx.eps
    before = state.realized
    window_lo = state.pos(fan) + eps - state.width(v)
    window_hi = state.right(fan) - eps
    hard = state.hard_lower_bound(v)
    if v.pos == 0:
        if hard is not None and hard > window_lo:
            raise SweepError(f"first opposite vertex {v} is blocked before the fan")
        state.place(v, window_lo)
        state.realized += 1  # the construction realizes exactly the fan contact
        successors = [state]
    else:
        pred = VertexId(v.layer, v.pos - 1)
        pred_right = state.right(pred)
        c1 = pred_right if hard is None or hard < pred_right else hard
        if c1 < window_lo:
            # The predecessor sits too far left for an abutment to touch the
            # fan; jump to the leftmost position that does.
            state.place(v, window_lo)
            state.realized += 1
            successors = [state]
        elif c1 <= window_hi:
            state.place(v, c1)
            state.realized += 1 + int(c1 == pred_right)
            successors = [state]
        else:
            # Leftmost allowed position misses the fan: place there, then try
            # to bring the fan's block (or the fan alone) to us.
            state.place(v, c1)
            state.realized += int(c1 == pred_right)
            delta = (state.pos(v) + eps - state.width(fan)) - state.pos(fan)
            if delta <= 0:
                slide = Fraction(delta, state.ctx.denominator)
                raise SweepError(f"non-positive slide {slide} for {v}")
            start = state.block_start[fan.layer][fan.pos]
            members = [VertexId(fan.layer, p) for p in range(start, fan.pos + 1)]
            keep = state.keep_slide_bound(members, delta)
            candidates: list[tuple[int, str, int]] = []
            if keep != delta and state.slide_is_valid(members, delta):
                candidates.append(
                    (state.slide_delta_contacts(members, delta), "full", delta)
                )
            if len(members) > 1 and state.slide_is_valid([fan], delta):
                candidates.append(
                    (state.slide_delta_contacts([fan], delta) - 1, "alone", delta)
                )
            gain_keep = state.slide_delta_contacts(members, keep) if keep > 0 else 0
            candidates.append((gain_keep, "keep", keep))
            best = max(gain for gain, _, _ in candidates)
            successors = []
            for gain, action, dist in candidates:
                if gain != best:
                    continue
                branch = state.clone() if successors or len(candidates) > 1 else state
                if action == "keep":
                    if dist > 0:
                        branch.apply_slide(members, dist)
                elif action == "alone":
                    branch.apply_slide([fan], dist)
                    branch.block_start[fan.layer][fan.pos] = fan.pos
                else:
                    branch.apply_slide(members, dist)
                branch.realized += gain
                successors.append(branch)
    for successor in successors:
        step = successor.realized - before
        if step not in (1, 2):
            raise SweepError(f"placing {v} changed the count by {step}")
    return successors


def maximize_contacts_2layer(
    g: LayeredGraph, epsilon: Fraction | int = 1
) -> TwoLayerResult:
    """Maximum-contact valid layout of a two-layer graph.

    The realized count is recomputed from the geometry before returning, so
    the reported number always matches `contact_report` on the output.
    """
    _check_two_layers(g)
    dg = difference_graph(g, epsilon)
    eps = Fraction(epsilon)
    if eps > g.min_width:
        raise InvalidInstanceError(
            f"epsilon {eps} exceeds the smallest width {g.min_width}"
        )
    ctx = _SweepContext(g, dg)
    schedule = _order_with_fans(g)
    root = _SweepState(ctx)
    first, _ = schedule[0]
    root.place(first, 0)
    limit = FRONT_CAP if g.num_vertices <= TIE_SEARCH_VERTEX_LIMIT else 1
    front = [root]
    for v, fan in schedule[1:]:
        step_states: list[_SweepState] = []
        for state in front:
            step_states.extend(_advance(state, v, fan))
        if len(step_states) > limit:
            # Deterministic: stable sort by count keeps insertion order within
            # equal counts, so the full slide wins a truncated tie.
            step_states.sort(key=lambda s: -s.realized)
            step_states = step_states[:limit]
        front = step_states

    best_count = max(state.realized for state in front)
    finalists = []
    for state in front:
        if state.realized == best_count:
            flat = state.x[0] + state.x[1]
            shift = min(flat)
            finalists.append([x - shift for x in flat])
    # Ties go to the lexicographically smallest layout, row-major from 0.
    representation = scaled_layout(g, min(finalists), dg.denominator, eps)
    report = contact_report(g, representation)
    if report.false_adjacencies:
        raise SweepError("sweep produced a false adjacency")
    if len(report.realized) != best_count:
        raise SweepError(
            f"bookkeeping says {best_count} contacts, geometry says "
            f"{len(report.realized)}"
        )
    return TwoLayerResult(
        representation=representation,
        realized_count=best_count,
        operations=ctx.operations,
    )
