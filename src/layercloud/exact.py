"""Exact contact maximization for any number of layers.

The model has one binary indicator per edge (1 = the contact is given up) and
one position variable per rectangle.  Row ordering and the nearest-forbidden
pairs are hard rows; contact rows are switched off by their indicator through
a big-M term.  With indicators fixed, every remaining row is a difference
constraint, so feasibility is exact negative-cycle detection and needs no LP.
The hard rows are the arcs of `model.difference_graph`, and every row the
search scans has integer bounds (widths and epsilon scaled once by their
common denominator); the witness returns to `Fraction` only in
`model.scaled_layout`.  The `LinearRow` form keeps the unscaled data for
`export_lp`.

The solver is a depth-first branch and bound over the indicators in a fixed
edge order, trying 0 (keep the contact) first.  At every node the all-zeros
completion is tested: when it is feasible nothing in the subtree can do
better, so the node closes immediately; the incumbent count prunes the rest.
The first optimum found this way is the lexicographically smallest indicator
vector, independent of anything but the fixed branching order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .model import (
    Edge,
    InvalidInstanceError,
    LayeredGraph,
    Representation,
    VertexId,
    common_denominator,
    contact_report,
    difference_graph,
    scaled_layout,
)


@dataclass(frozen=True)
class LinearRow:
    """One inequality: sum of coeffs * var <= rhs."""

    name: str
    coeffs: dict[str, Fraction]
    rhs: Fraction


@dataclass(frozen=True)
class DifferenceConstraintSystem:
    """Rows x_a - x_b <= bound over variables 0..num_vars-1 (int or Fraction bounds)."""

    num_vars: int
    rows: tuple[tuple[int, int, int], ...]


def check_feasible(
    system: DifferenceConstraintSystem,
) -> tuple[bool, list[int] | None]:
    """Bellman-Ford feasibility; returns witness positions when feasible.

    The witness is the vector of shortest-path distances from an implicit
    super source, so every constraint holds exactly and integer bounds give
    integer positions.
    """
    cycle, dist = negative_cycle(system)
    if cycle is None:
        return True, dist
    return False, None


def negative_cycle(
    system: DifferenceConstraintSystem,
) -> tuple[list[int] | None, list[int] | None]:
    """Find one negative cycle as row indices, or the feasibility witness.

    Returns (cycle_rows, None) for an infeasible system and (None, dist) for
    a feasible one.  The cycle is recovered by walking predecessor rows from
    a vertex that still improved in the last relaxation round.
    """
    n = system.num_vars
    rows = system.rows
    dist = [0] * n
    pred = [-1] * n
    last_improved = -1
    for _ in range(n + 1):
        changed = False
        for idx, (a, b, bound) in enumerate(rows):
            candidate = dist[b] + bound
            if candidate < dist[a]:
                dist[a] = candidate
                pred[a] = idx
                last_improved = a
                changed = True
        if not changed:
            return None, dist
    # Walk n predecessor steps to be sure of standing on the cycle itself.
    node = last_improved
    for _ in range(n):
        node = rows[pred[node]][1]
    cycle = []
    cursor = node
    while True:
        row = pred[cursor]
        cycle.append(row)
        cursor = rows[row][1]
        if cursor == node:
            break
    return cycle, None


def _x_name(v: VertexId) -> str:
    return f"x_{v.layer}_{v.pos}"


def _c_name(e: Edge) -> str:
    u, v = e
    return f"c_{u.layer}_{u.pos}__{v.layer}_{v.pos}"


@dataclass(frozen=True)
class ContactModel:
    """The instantiated program: indicators, position variables, rows."""

    graph: LayeredGraph
    epsilon: Fraction
    edges: tuple[Edge, ...]
    big_m: Fraction
    rows: tuple[LinearRow, ...]
    # Difference-constraint templates on integers scaled by
    # `common_denominator(graph, epsilon)`: always-active rows (the arcs of
    # `difference_graph`) and, per edge, the rows its indicator switches off.
    hard_diffs: tuple[tuple[int, int, int], ...]
    edge_diffs: dict[Edge, tuple[tuple[int, int, int], ...]]
    var_index: dict[VertexId, int]

    @property
    def indicators(self) -> list[str]:
        return [_c_name(e) for e in self.edges]


def build_model(g: LayeredGraph, epsilon: Fraction | int = 1) -> ContactModel:
    """Instantiate the contact-maximization program for a valid graph.

    Big M is the total width plus epsilon: no layout needs more room, so a
    switched-off row can never bind.
    """
    dg = difference_graph(g, epsilon)
    eps = Fraction(epsilon)
    if eps > g.min_width:
        raise InvalidInstanceError(
            f"epsilon {eps} exceeds the smallest width {g.min_width}"
        )
    big_m = g.total_width + eps
    edges = tuple(
        sorted(g.edges(), key=lambda e: (e[0].layer, e[0].pos, e[1].layer, e[1].pos))
    )
    width, eps_units = dg.width, dg.epsilon
    vertices = list(g.vertices())
    var_index = {v: i for i, v in enumerate(vertices)}

    def tag(u: VertexId, v: VertexId) -> str:
        return f"{u.layer}_{u.pos}__{v.layer}_{v.pos}"

    def linear(name: str, diff: tuple[int, int, int], e: Edge | None = None) -> LinearRow:
        """The row x_p - x_q <= bound, switched off by edge ``e``'s indicator."""
        p, q, bound = diff
        coeffs = {_x_name(vertices[p]): Fraction(1), _x_name(vertices[q]): Fraction(-1)}
        if e is not None:
            coeffs[_c_name(e)] = -big_m
        return LinearRow(name=name, coeffs=coeffs, rhs=Fraction(bound, dg.denominator))

    rows: list[LinearRow] = []
    edge_diffs: dict[Edge, tuple[tuple[int, int, int], ...]] = {}
    for e in edges:
        u, v = e
        a, b = var_index[u], var_index[v]
        if u.layer == v.layer:
            # Ordering is hard; the abutment check is indicator-controlled.
            edge_diffs[e] = ((b, a, width[a]),)
            rows.append(linear(f"order_{tag(u, v)}", (a, b, -width[a])))
            rows.append(linear(f"habut_{tag(u, v)}", edge_diffs[e][0], e))
        else:
            edge_diffs[e] = ((b, a, width[a] - eps_units), (a, b, width[b] - eps_units))
            rows.append(linear(f"vlow_{tag(u, v)}", edge_diffs[e][0], e))
            rows.append(linear(f"vhigh_{tag(u, v)}", edge_diffs[e][1], e))
    # Both kinds are named (lower, upper); the arc runs from the left one.
    for a, b in dg.f_left:
        rows.append(linear(f"fleft_{tag(vertices[b], vertices[a])}", (a, b, -width[a])))
    for a, b in dg.f_right:
        rows.append(linear(f"fright_{tag(vertices[a], vertices[b])}", (a, b, -width[a])))

    return ContactModel(
        graph=g,
        epsilon=eps,
        edges=edges,
        big_m=big_m,
        rows=tuple(rows),
        hard_diffs=tuple((a, b, -width[a]) for a, b in dg.arcs),
        edge_diffs=edge_diffs,
        var_index=var_index,
    )


@dataclass(frozen=True)
class ExactResult:
    representation: Representation
    lost_count: int


def solve_branch_and_bound(model: ContactModel) -> ExactResult:
    """Minimize the number of given-up contacts; return the witness layout.

    Node analysis tests the all-zeros completion; when it is infeasible, the
    offending negative cycle is removed edge-wise and the process repeated,
    which yields owner-disjoint conflicts: their number lower-bounds the
    losses still needed below the node (and any completion whose conflicts
    only involve already-fixed zero edges kills the subtree outright).  The
    edges removed this way also form a feasible assignment, whose size
    tightens the pruning bound without touching the reported witness, so the
    first optimum found is still the lexicographically smallest one.

    Every c = 0 edge is realized in the witness and no false adjacency can
    appear (both asserted before returning).
    """
    g = model.graph
    edges = model.edges
    num_vars = len(model.var_index)
    edge_index = {e: i for i, e in enumerate(edges)}

    def analyze(ones: set[Edge], decided_upto: int):
        """('feasible', witness) | ('bound', lb, greedy_extra) | ('dead',)."""
        excluded = set(ones)
        lb = 0
        while True:
            rows = list(model.hard_diffs)
            owners: list[Edge | None] = [None] * len(rows)
            for e in edges:
                if e not in excluded:
                    for row in model.edge_diffs[e]:
                        rows.append(row)
                        owners.append(e)
            cycle, dist = negative_cycle(
                DifferenceConstraintSystem(num_vars=num_vars, rows=tuple(rows))
            )
            if cycle is None:
                if lb == 0:
                    return ("feasible", dist)
                return ("bound", lb, len(excluded) - len(ones))
            flippable = {
                owners[r]
                for r in cycle
                if owners[r] is not None and edge_index[owners[r]] > decided_upto
            }
            if not flippable:
                return ("dead",)
            lb += 1
            excluded |= flippable

    best_count = len(edges) + 1
    best_positions: list[int] | None = None
    # Any feasible assignment bounds the optimum; c = 1 everywhere always is.
    greedy_bound = len(edges)

    def descend(idx: int, ones: set[Edge], analysis) -> None:
        nonlocal best_count, best_positions, greedy_bound
        if analysis[0] == "dead":
            return
        if analysis[0] == "feasible":
            if len(ones) < best_count:
                best_count = len(ones)
                best_positions = analysis[1]
            return
        lb = analysis[1]
        greedy_bound = min(greedy_bound, len(ones) + analysis[2])
        if len(ones) + lb >= best_count or len(ones) + lb > greedy_bound:
            return
        if idx == len(edges):
            return
        edge = edges[idx]
        # c = 0 first: the completion is unchanged, so the analysis carries
        # over (a valid, merely looser, bound for the child).
        descend(idx + 1, ones, analysis)
        ones.add(edge)
        descend(idx + 1, ones, analyze(ones, idx))
        ones.remove(edge)

    descend(0, set(), analyze(set(), -1))
    if best_positions is None:
        # The hard rows alone are always satisfiable: rows can be spread out.
        rows = tuple(model.hard_diffs)
        ok, witness = check_feasible(
            DifferenceConstraintSystem(num_vars=num_vars, rows=rows)
        )
        if not ok:
            raise RuntimeError("hard constraint rows are infeasible")
        best_count = len(edges)
        best_positions = witness

    representation = scaled_layout(
        g, best_positions, common_denominator(g, model.epsilon), model.epsilon
    )
    report = contact_report(g, representation)
    if report.false_adjacencies:
        raise AssertionError("witness has a false adjacency despite hard rows")
    if len(report.lost) != best_count:
        # Fewer would contradict optimality (the realized set would be a
        # cheaper feasible assignment); more would mean a broken witness.
        raise AssertionError(
            f"witness loses {len(report.lost)} contacts, solver claimed {best_count}"
        )
    return ExactResult(representation=representation, lost_count=best_count)


def export_lp(model: ContactModel) -> str:
    """The model in LP file format, with integer coefficients per row.

    Each row is scaled by the least common multiple of its coefficient
    denominators, which changes nothing about the feasible set but keeps the
    text exact.  Position variables are free; indicators are binary.
    """
    lines = ["Minimize", " obj: " + (" + ".join(model.indicators) or "0")]
    lines.append("Subject To")
    for row in model.rows:
        scale = lcm(
            row.rhs.denominator, *(c.denominator for c in row.coeffs.values())
        )
        terms = []
        for var, coeff in row.coeffs.items():
            value = int(coeff * scale)
            if value >= 0:
                terms.append(f"+ {value} {var}")
            else:
                terms.append(f"- {-value} {var}")
        joined = " ".join(terms)
        lines.append(f" {row.name}: {joined} <= {int(row.rhs * scale)}")
    lines.append("Bounds")
    for v in sorted(model.var_index):
        lines.append(f" {_x_name(v)} free")
    if model.indicators:
        lines.append("Binary")
        for name in model.indicators:
            lines.append(f" {name}")
    lines.append("End")
    return "\n".join(lines) + "\n"
