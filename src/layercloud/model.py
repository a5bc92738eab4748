"""Core data model for layered rectangle contact layouts.

A layered graph places its vertices on horizontal rows, one unit-height
rectangle of prescribed width per vertex.  A representation assigns every
rectangle an x-coordinate on its row.  This module defines both structures
together with the contact semantics shared by all solvers: which edges are
realized, which contacts are forbidden (false adjacencies), and how much
whitespace a layout spends on gaps.

All arithmetic is exact: widths, coordinates and the contact threshold are
`fractions.Fraction` values, so every predicate below is unambiguous.  Every
solver enters through `difference_graph`, which validates the graph and
epsilon and scales the constraints once to integers, and leaves through
`scaled_layout`, which turns its integer layout back into a `Representation`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterator, NamedTuple


class InvalidInstanceError(ValueError):
    """Raised for structurally malformed instances or representations."""


class StripInfeasibleError(RuntimeError):
    """No valid layout fits the working strip of width w_max * K.

    Gap minimization is posed inside that strip; some valid graphs only admit
    layouts in wider strips (two same-row rectangles can be forced between
    wide non-neighbors above), and then the objective has no value.  Both the
    flow solver and the brute-force searches raise this, so the outcome stays
    comparable across routes.
    """


class VertexId(NamedTuple):
    layer: int
    pos: int

    def __str__(self) -> str:
        return f"v[{self.layer},{self.pos}]"


Edge = tuple[VertexId, VertexId]
Interval = tuple[int, int]


def as_fraction(value: int | str | float | Fraction) -> Fraction:
    """Coerce a numeric literal to an exact rational.

    Accepts ints, Fractions, "p/q" or decimal strings, and floats (which are
    read back through their shortest decimal text, so "0.1" means 1/10).
    """
    if isinstance(value, bool):
        raise InvalidInstanceError(f"not a number: {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInstanceError(f"bad rational literal {value!r}") from exc
    if isinstance(value, float):
        return Fraction(repr(value))
    raise InvalidInstanceError(f"not a number: {value!r}")


@dataclass(frozen=True)
class LayeredGraph:
    """Layered input graph: per-vertex widths plus upward neighbor intervals.

    ``up_neighbors[i][j]`` is the inclusive interval of positions on layer
    ``i + 1`` adjacent to vertex ``(i, j)``; entries on the top layer are
    ``None``.  Consecutive vertices on the same layer are implicitly adjacent.
    Treat instances as immutable values.
    """

    widths: tuple[tuple[Fraction, ...], ...]
    up_neighbors: tuple[tuple[Interval | None, ...], ...]

    @property
    def num_layers(self) -> int:
        return len(self.widths)

    @property
    def num_vertices(self) -> int:
        return sum(len(row) for row in self.widths)

    def layer_size(self, layer: int) -> int:
        return len(self.widths[layer])

    def width(self, v: VertexId) -> Fraction:
        return self.widths[v.layer][v.pos]

    def up_interval(self, v: VertexId) -> Interval | None:
        return self.up_neighbors[v.layer][v.pos]

    def down_interval(self, v: VertexId) -> Interval | None:
        """Inclusive interval of positions on the layer below adjacent to ``v``."""
        if v.layer == 0:
            return None
        below = self.up_neighbors[v.layer - 1]
        lo = hi = None
        for j, interval in enumerate(below):
            if interval is not None and interval[0] <= v.pos <= interval[1]:
                if lo is None:
                    lo = j
                hi = j
        if lo is None:
            return None
        return (lo, hi)

    @property
    def max_layer_size(self) -> int:
        """K: the maximum number of rectangles on any layer."""
        return max(len(row) for row in self.widths)

    @property
    def max_width(self) -> Fraction:
        """w_max: the width of the widest rectangle."""
        return max(w for row in self.widths for w in row)

    @property
    def strip_width(self) -> Fraction:
        """w_max * K: the width of the strip the paper poses its layouts in."""
        return self.max_width * self.max_layer_size

    @property
    def max_row_width(self) -> Fraction:
        """W_max: the largest total width of a single layer."""
        return max(sum(row, Fraction(0)) for row in self.widths)

    @property
    def total_width(self) -> Fraction:
        return sum((w for row in self.widths for w in row), Fraction(0))

    @property
    def min_width(self) -> Fraction:
        return min(w for row in self.widths for w in row)

    def vertices(self) -> Iterator[VertexId]:
        for i, row in enumerate(self.widths):
            for j in range(len(row)):
                yield VertexId(i, j)

    def horizontal_edges(self) -> list[Edge]:
        return [
            (VertexId(i, j), VertexId(i, j + 1))
            for i, row in enumerate(self.widths)
            for j in range(len(row) - 1)
        ]

    def vertical_edges(self) -> list[Edge]:
        edges: list[Edge] = []
        for i in range(self.num_layers - 1):
            for j, interval in enumerate(self.up_neighbors[i]):
                if interval is None:
                    continue
                lo, hi = interval
                edges.extend(
                    (VertexId(i, j), VertexId(i + 1, m)) for m in range(lo, hi + 1)
                )
        return edges

    def edges(self) -> list[Edge]:
        """All edges, each as a pair ordered by (layer, pos)."""
        return self.horizontal_edges() + self.vertical_edges()


def build_graph(layers, up_neighbors=None) -> LayeredGraph:
    """Build a LayeredGraph from plain lists, coercing widths to Fractions.

    ``up_neighbors`` may have one row per non-top layer (canonical) or one per
    layer with the top row all ``None``.  Structural problems raise
    InvalidInstanceError; semantic problems are left for `validate_graph`.
    """
    if not isinstance(layers, (list, tuple)):
        raise InvalidInstanceError("layers must be a list of width lists")
    widths = tuple(
        tuple(as_fraction(w) for w in row) if isinstance(row, (list, tuple)) else _bad_row(row)
        for row in layers
    )
    num_layers = len(widths)
    raw = list(up_neighbors) if up_neighbors is not None else []
    if len(raw) == num_layers - 1:
        raw.append([None] * len(widths[-1]) if num_layers else [])
    elif len(raw) != num_layers:
        raise InvalidInstanceError(
            f"up_neighbors has {len(raw)} rows for {num_layers} layers"
        )
    ups = []
    for i, row in enumerate(raw):
        if not isinstance(row, (list, tuple)):
            raise InvalidInstanceError(f"up_neighbors row {i} is not a list")
        if len(row) != len(widths[i]):
            raise InvalidInstanceError(
                f"up_neighbors row {i} has {len(row)} entries for {len(widths[i])} vertices"
            )
        ups.append(tuple(_as_interval(entry, i) for entry in row))
    return LayeredGraph(widths=widths, up_neighbors=tuple(ups))


def _bad_row(row):
    raise InvalidInstanceError(f"layer is not a list of widths: {row!r}")


def _as_interval(entry, layer: int) -> Interval | None:
    if entry is None:
        return None
    if (
        isinstance(entry, (list, tuple))
        and len(entry) == 2
        and all(isinstance(e, int) and not isinstance(e, bool) for e in entry)
    ):
        return (entry[0], entry[1])
    raise InvalidInstanceError(f"bad interval {entry!r} on layer {layer}")


def validate_graph(g: LayeredGraph) -> list[str]:
    """Check every structural invariant; return violations (empty = valid).

    Violations are data, not failures: callers decide whether to reject.
    """
    violations: list[str] = []
    if g.num_layers == 0:
        return ["graph has no layers"]
    for i, row in enumerate(g.widths):
        if not row:
            violations.append(f"layer {i} has no vertices")
    for v in g.vertices():
        if g.width(v) <= 0:
            violations.append(f"{v} has non-positive width {g.width(v)}")
    for i in range(g.num_layers - 1):
        size_above = g.layer_size(i + 1)
        if g.layer_size(i) == 0 or size_above == 0:
            continue
        intervals = g.up_neighbors[i]
        shaped = True
        for j, interval in enumerate(intervals):
            v = VertexId(i, j)
            if interval is None:
                violations.append(f"{v} has no neighbors on layer {i + 1}")
                shaped = False
            elif not (0 <= interval[0] <= interval[1] < size_above):
                violations.append(
                    f"{v} has interval {list(interval)} outside layer {i + 1} "
                    f"(size {size_above})"
                )
                shaped = False
        if not shaped:
            continue
        if intervals[0][0] != 0:
            violations.append(
                f"strip not triangulated: {VertexId(i, 0)} interval starts at "
                f"{intervals[0][0]}, not 0"
            )
        if intervals[-1][1] != size_above - 1:
            violations.append(
                f"strip not triangulated: {VertexId(i, len(intervals) - 1)} interval "
                f"ends at {intervals[-1][1]}, not {size_above - 1}"
            )
        for j in range(len(intervals) - 1):
            if intervals[j + 1][0] != intervals[j][1]:
                violations.append(
                    f"strip not triangulated: intervals of {VertexId(i, j)} and "
                    f"{VertexId(i, j + 1)} do not share exactly one endpoint"
                )
    for j, interval in enumerate(g.up_neighbors[-1]):
        if interval is not None:
            violations.append(
                f"{VertexId(g.num_layers - 1, j)} on the top layer has an upward interval"
            )
    return violations


@dataclass(frozen=True)
class Representation:
    """An x-coordinate per vertex plus the minimum realized-contact length.

    Rectangle (i, j) occupies [x, x + width] x [i, i + 1].  Treat as immutable.
    """

    x: dict[VertexId, Fraction]
    epsilon: Fraction


def validate_representation(g: LayeredGraph, r: Representation) -> list[str]:
    """Check coverage, the contact threshold, and same-layer ordering."""
    problems: list[str] = []
    if r.epsilon <= 0:
        problems.append(f"epsilon {r.epsilon} is not positive")
    vertices = set(g.vertices())
    missing = sorted(vertices - set(r.x))
    extra = sorted(set(r.x) - vertices)
    problems.extend(f"missing coordinate for {v}" for v in missing)
    problems.extend(f"coordinate for unknown vertex {v}" for v in extra)
    if missing or extra:
        return problems
    for i in range(g.num_layers):
        for j in range(g.layer_size(i) - 1):
            u, v = VertexId(i, j), VertexId(i, j + 1)
            if r.x[u] + g.width(u) > r.x[v]:
                problems.append(f"{u} overlaps {v} on layer {i}")
    return problems


@dataclass(frozen=True)
class ContactReport:
    """Which edges a representation realizes, plus gap and extent accounting."""

    realized: frozenset[Edge]
    lost: frozenset[Edge]
    false_adjacencies: frozenset[tuple[VertexId, VertexId]]
    gap_total: Fraction
    bbox_width: Fraction

    @property
    def valid(self) -> bool:
        return not self.false_adjacencies


def contact_report(g: LayeredGraph, r: Representation) -> ContactReport:
    """Evaluate a representation against the graph's contact semantics.

    A horizontal contact is realized iff the rectangles abut exactly: an
    abutment shares the full unit-height side, the one kind of contact whose
    length does not depend on the x-coordinates.  A vertical contact is
    realized iff the x-overlap of the two rectangles is at least epsilon.  Any
    positive-length overlap between rectangles on adjacent layers whose
    vertices are not adjacent is a false adjacency.  Point contacts (overlap
    exactly 0) are legal for every pair and realized for none.  Every edge
    that is not realized is lost.
    """
    missing = [v for v in g.vertices() if v not in r.x]
    if missing:
        raise InvalidInstanceError(f"missing coordinate for {missing[0]}")
    eps = r.epsilon
    x = r.x
    right = {v: x[v] + g.width(v) for v in g.vertices()}
    realized: set[Edge] = {(u, v) for u, v in g.horizontal_edges() if right[u] == x[v]}
    adjacency = set(g.edges())
    false_pairs: set[tuple[VertexId, VertexId]] = set()
    for i in range(g.num_layers - 1):
        lower = sorted((VertexId(i, j) for j in range(g.layer_size(i))), key=x.__getitem__)
        upper = sorted(
            (VertexId(i + 1, j) for j in range(g.layer_size(i + 1))), key=x.__getitem__
        )
        # Merge sweep over the two rows; only overlapping pairs are inspected.
        start = 0
        for u in lower:
            left_u, right_u = x[u], right[u]
            while start < len(upper) and right[upper[start]] <= left_u:
                start += 1
            k = start
            while k < len(upper) and x[upper[k]] < right_u:
                z = upper[k]
                overlap = min(right_u, right[z]) - max(left_u, x[z])
                if (u, z) in adjacency:
                    if overlap >= eps:
                        realized.add((u, z))
                elif overlap > 0:
                    false_pairs.add((u, z))
                k += 1
    # Row by row, the gaps telescope to the row's span minus all widths but the last.
    gap_total = Fraction(0)
    for i, row in enumerate(g.widths):
        if len(row) > 1:
            first, last = VertexId(i, 0), VertexId(i, len(row) - 1)
            gap_total += x[last] - x[first] - sum(row[:-1])
    left = min(x[v] for v in g.vertices())
    return ContactReport(
        realized=frozenset(realized),
        lost=frozenset(adjacency - realized),
        false_adjacencies=frozenset(false_pairs),
        gap_total=gap_total,
        bbox_width=max(right.values()) - left,
    )


def false_adjacency_pairs(
    g: LayeredGraph,
) -> tuple[frozenset[tuple[VertexId, VertexId]], frozenset[tuple[VertexId, VertexId]]]:
    """The nearest forbidden pairs (F_L, F_R) on the row above each vertex.

    For a vertex with neighbor interval [k, l] on the layer above, the pair
    with position k - 1 (if any) lands in F_L and the pair with position l + 1
    (if any) in F_R.  Keeping these two overlaps out, together with row
    ordering, keeps out every false adjacency of that vertex with the row
    above.
    """
    f_left: set[tuple[VertexId, VertexId]] = set()
    f_right: set[tuple[VertexId, VertexId]] = set()
    for i in range(g.num_layers - 1):
        size_above = g.layer_size(i + 1)
        for j, interval in enumerate(g.up_neighbors[i]):
            if interval is None:
                continue
            k, l = interval
            if k > 0:
                f_left.add((VertexId(i, j), VertexId(i + 1, k - 1)))
            if l < size_above - 1:
                f_right.add((VertexId(i, j), VertexId(i + 1, l + 1)))
    return frozenset(f_left), frozenset(f_right)


def common_denominator(g: LayeredGraph, epsilon: Fraction | int) -> int:
    """D: the lcm of the denominators of every width and of epsilon.

    Scaled by D, every width and epsilon is an integer, and so is every
    coordinate a solver derives from them by sums and differences.
    """
    widths = (w.denominator for row in g.widths for w in row)
    return lcm(Fraction(epsilon).denominator, *widths)


@dataclass(frozen=True)
class DifferenceGraph:
    """Row order plus the nearest forbidden pairs, as integer constraints.

    Vertex (i, j) has the flat index ``offset[i] + j``; widths and epsilon
    are scaled by ``denominator`` (`common_denominator`).  An arc (a, b)
    means x_b >= x_a + width[a].  ``f_left`` puts the upper vertex of an F_L
    pair left of the lower one, ``f_right`` the lower left of the upper; both
    follow the lower vertex in row-major order.  A layout is valid exactly
    when it meets every arc.
    """

    denominator: int
    offset: tuple[int, ...]  # flat index of each row's first vertex, then the total
    width: tuple[int, ...]
    epsilon: int
    order: tuple[tuple[int, int], ...]
    f_left: tuple[tuple[int, int], ...]
    f_right: tuple[tuple[int, int], ...]

    @property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        return self.order + self.f_left + self.f_right


def difference_graph(g: LayeredGraph, epsilon: Fraction | int = 1) -> DifferenceGraph:
    """The difference constraints of a graph, built once for every solver.

    This is every solver's entry: it raises InvalidInstanceError for a graph
    that fails `validate_graph` (naming the first violation) and for an
    epsilon that is not positive.  The forbidden pairs are those of
    `false_adjacency_pairs`; keeping them apart, together with row order,
    keeps out every false adjacency.
    """
    violations = validate_graph(g)
    if violations:
        raise InvalidInstanceError(f"invalid graph: {violations[0]}")
    eps = Fraction(epsilon)
    if eps <= 0:
        raise InvalidInstanceError(f"epsilon must be positive, got {eps}")
    denom = common_denominator(g, eps)
    offset = [0]
    for row in g.widths:
        offset.append(offset[-1] + len(row))
    order = [
        (offset[i] + j, offset[i] + j + 1)
        for i, row in enumerate(g.widths)
        for j in range(len(row) - 1)
    ]
    f_left, f_right = false_adjacency_pairs(g)

    def flat(v: VertexId) -> int:
        return offset[v.layer] + v.pos

    return DifferenceGraph(
        denominator=denom,
        offset=tuple(offset),
        width=tuple(int(w * denom) for row in g.widths for w in row),
        epsilon=int(eps * denom),
        order=tuple(order),
        f_left=tuple((flat(above), flat(v)) for v, above in sorted(f_left)),
        f_right=tuple((flat(v), flat(above)) for v, above in sorted(f_right)),
    )


def scaled_layout(
    g: LayeredGraph, x: list[int], denominator: int, epsilon: Fraction
) -> Representation:
    """Every solver's exit: a flat integer layout as a `Representation`.

    ``x`` holds one coordinate per vertex in row-major order (the flat index
    of `DifferenceGraph`), in units of 1/``denominator``; the layout is
    shifted so that its leftmost rectangle starts at 0.
    """
    shift = min(x)
    return Representation(
        x={v: Fraction(xv - shift, denominator) for v, xv in zip(g.vertices(), x)},
        epsilon=epsilon,
    )
