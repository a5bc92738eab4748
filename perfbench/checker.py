"""Independent checker for layouts, written apart from the program.

It reads only an instance file and the coordinates a solver returned, both in
the program's JSON interchange format, and never imports ``layercloud``.  The
checks it offers:

* ``violations``: same-row order, no positive-length overlap between
  non-adjacent rectangles on neighbouring rows, and optionally a strip bound;
* ``measure``: realized contacts, gap total and extent, from the coordinates;
* ``min_width``: one longest-path pass over the embedding's difference
  constraints (row order plus, for each vertex, the nearest non-neighbours on
  the row above), which gives the narrowest valid layout;
* ``min_gap_lp``: the least total gap inside the strip [0, w_max * K], as a
  linear program solved by HiGHS; the constraint matrix is a network matrix,
  so the optimum is integral for integer widths;
* ``max_contacts_ilp``: the contact-maximization integer program with one
  binary "contact given up" indicator per edge, solved by HiGHS.

All geometric checks run on exact rationals; only the two HiGHS programs use
floating point, and their optima are rounded to the nearest integer after a
tolerance check.
"""

from __future__ import annotations

import bisect
import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from pathlib import Path

Vertex = tuple[int, int]


# Wall-clock limit handed to HiGHS for one contact ILP; the largest cached
# instance (two rows of 100) solves in about 5 s.
ILP_TIME_LIMIT_S = 600.0


class CheckError(ValueError):
    """An input file could not be read, or a program gave a non-integral optimum."""


@dataclass(frozen=True)
class Instance:
    widths: tuple[tuple[Fraction, ...], ...]
    # up[i][j] = inclusive interval of neighbours of (i, j) on row i + 1.
    up: tuple[tuple[tuple[int, int], ...], ...]
    epsilon: Fraction

    @property
    def vertices(self) -> list[Vertex]:
        return [(i, j) for i, row in enumerate(self.widths) for j in range(len(row))]

    def width(self, v: Vertex) -> Fraction:
        return self.widths[v[0]][v[1]]

    @property
    def strip(self) -> Fraction:
        """w_max * K, the strip the area objective is posed in."""
        return max(max(row) for row in self.widths) * max(len(row) for row in self.widths)

    def horizontal_edges(self) -> list[tuple[Vertex, Vertex]]:
        return [
            ((i, j), (i, j + 1))
            for i, row in enumerate(self.widths)
            for j in range(len(row) - 1)
        ]

    def vertical_edges(self) -> list[tuple[Vertex, Vertex]]:
        return [
            ((i, j), (i + 1, m))
            for i, row in enumerate(self.up)
            for j, (lo, hi) in enumerate(row)
            for m in range(lo, hi + 1)
        ]

    def precedences(self) -> list[tuple[Vertex, Vertex, Fraction]]:
        """Rows (a, b, d) meaning x_b >= x_a + d for every valid layout.

        Row order, and for each vertex v with upper neighbours [k, l] the
        upper vertex k - 1 entirely left of v and l + 1 entirely right of it.
        Any other non-neighbour on the row above is further out on its row,
        so these rows exclude every false adjacency.
        """
        rows = [(u, v, self.width(u)) for u, v in self.horizontal_edges()]
        for i, row in enumerate(self.up):
            size_above = len(self.widths[i + 1])
            for j, (k, l) in enumerate(row):
                v = (i, j)
                if k > 0:
                    left = (i + 1, k - 1)
                    rows.append((left, v, self.width(left)))
                if l < size_above - 1:
                    rows.append((v, (i + 1, l + 1), self.width(v)))
        return rows

    def digest(self) -> str:
        """Content hash, independent of how the file was formatted."""
        canonical = json.dumps(
            [
                str(self.epsilon),
                [[str(w) for w in row] for row in self.widths],
                [[list(iv) for iv in row] for row in self.up],
            ],
            separators=(",", ":"),
        )
        return hashlib.sha256(canonical.encode()).hexdigest()


def _read_json(path: str | Path) -> dict:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckError(f"cannot read {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise CheckError(f"{path}: top-level value is not an object")
    return data


def read_instance(path: str | Path) -> Instance:
    data = _read_json(path)
    try:
        widths = tuple(tuple(Fraction(w) for w in row) for row in data["layers"])
        up = tuple(
            tuple((int(lo), int(hi)) for lo, hi in row)
            for row in data.get("up_neighbors", [])
        )
        epsilon = Fraction(data.get("epsilon", 1))
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckError(f"{path}: malformed instance: {exc}") from exc
    if len(up) != len(widths) - 1 or any(
        len(up[i]) != len(widths[i]) for i in range(len(up))
    ):
        raise CheckError(f"{path}: up_neighbors do not match the layers")
    return Instance(widths=widths, up=up, epsilon=epsilon)


def read_layout(path: str | Path) -> dict[Vertex, Fraction]:
    data = _read_json(path)
    x: dict[Vertex, Fraction] = {}
    try:
        for key, value in data["x"]:
            layer, pos = key.split(",")
            x[(int(layer), int(pos))] = Fraction(value)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckError(f"{path}: malformed layout: {exc}") from exc
    return x


def violations(
    inst: Instance, x: dict[Vertex, Fraction], strip: Fraction | None = None
) -> list[str]:
    """Reasons the layout is not valid (empty when it is)."""
    problems: list[str] = []
    vertices = inst.vertices
    if set(x) != set(vertices):
        return ["layout does not give exactly one coordinate per vertex"]
    for u, v in inst.horizontal_edges():
        if x[u] + inst.width(u) > x[v]:
            problems.append(f"{u} overlaps or passes {v} on its row")
    if problems:
        return problems
    if strip is not None:
        for v in vertices:
            if x[v] < 0 or x[v] + inst.width(v) > strip:
                problems.append(f"{v} leaves the strip [0, {strip}]")
    adjacent = set(inst.vertical_edges())
    for u, z in _overlapping_pairs(inst, x):
        if (u, z) not in adjacent:
            problems.append(f"false adjacency between {u} and {z}")
    return problems


def _overlapping_pairs(inst: Instance, x: dict[Vertex, Fraction]):
    """Pairs (lower, upper) on neighbouring rows overlapping by a positive length.

    Rows must already be in order, so right edges grow along each row.
    """
    for i in range(len(inst.widths) - 1):
        upper_rights = [
            x[(i + 1, m)] + inst.widths[i + 1][m] for m in range(len(inst.widths[i + 1]))
        ]
        for j, w in enumerate(inst.widths[i]):
            left, right = x[(i, j)], x[(i, j)] + w
            m = bisect.bisect_right(upper_rights, left)
            while m < len(upper_rights) and x[(i + 1, m)] < right:
                if min(right, upper_rights[m]) - max(left, x[(i + 1, m)]) > 0:
                    yield (i, j), (i + 1, m)
                m += 1


@dataclass(frozen=True)
class Measures:
    contacts: int
    gap_total: Fraction
    extent: Fraction


def measure(inst: Instance, x: dict[Vertex, Fraction]) -> Measures:
    """Realized contacts, total same-row gap and bounding width of a layout.

    A horizontal contact needs an exact abutment; a vertical one an overlap
    of at least epsilon.
    """
    contacts = 0
    gap = Fraction(0)
    for u, v in inst.horizontal_edges():
        space = x[v] - x[u] - inst.width(u)
        gap += space
        contacts += space == 0
    for u, z in inst.vertical_edges():
        overlap = min(x[u] + inst.width(u), x[z] + inst.width(z)) - max(x[u], x[z])
        contacts += overlap >= inst.epsilon
    left = min(x.values())
    right = max(x[v] + inst.width(v) for v in x)
    return Measures(contacts=contacts, gap_total=gap, extent=right - left)


def min_width(inst: Instance) -> Fraction:
    """Narrowest bounding width of any valid layout, by longest paths."""
    out: dict[Vertex, list[tuple[Vertex, Fraction]]] = {v: [] for v in inst.vertices}
    indegree = {v: 0 for v in inst.vertices}
    for a, b, d in inst.precedences():
        out[a].append((b, d))
        indegree[b] += 1
    start = {v: Fraction(0) for v in inst.vertices}
    ready = [v for v, k in indegree.items() if k == 0]
    done = 0
    while ready:
        a = ready.pop()
        done += 1
        for b, d in out[a]:
            if start[a] + d > start[b]:
                start[b] = start[a] + d
            indegree[b] -= 1
            if indegree[b] == 0:
                ready.append(b)
    if done != len(start):
        raise CheckError("precedence rows contain a cycle; the graph is not a valid input")
    return max(start[v] + inst.width(v) for v in start)


def _integral(value: float, scale: int, what: str) -> Fraction:
    scaled = value * scale
    nearest = round(scaled)
    if abs(scaled - nearest) > 1e-6 * max(1, abs(scaled)):
        raise CheckError(f"{what} optimum {value} is not a multiple of 1/{scale}")
    return Fraction(nearest, scale)


def min_gap_lp(inst: Instance) -> Fraction | None:
    """Least total gap of a valid layout inside [0, w_max * K]; None if none fits."""
    import numpy as np
    from scipy.optimize import linprog
    from scipy.sparse import coo_array

    index = {v: k for k, v in enumerate(inst.vertices)}
    rows = inst.precedences()
    data, row_ids, col_ids = [], [], []
    for r, (a, b, _) in enumerate(rows):
        data += [1.0, -1.0]
        row_ids += [r, r]
        col_ids += [index[a], index[b]]
    a_ub = coo_array((data, (row_ids, col_ids)), shape=(len(rows), len(index))).tocsr()
    b_ub = np.array([-float(d) for _, _, d in rows])
    strip = inst.strip
    bounds = [(0.0, float(strip - inst.width(v))) for v in inst.vertices]
    # Gap of row i = x_last + w_last - x_first - sum(widths of row i).
    cost = np.zeros(len(index))
    constant = Fraction(0)
    for i, row in enumerate(inst.widths):
        cost[index[(i, len(row) - 1)]] += 1.0
        cost[index[(i, 0)]] -= 1.0
        constant += row[-1] - sum(row)
    result = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if result.status == 2:
        return None
    if result.status != 0:
        raise CheckError(f"area LP ended with status {result.status}: {result.message}")
    scale = lcm(*(w.denominator for row in inst.widths for w in row))
    return _integral(result.fun, scale, "area LP") + constant


def max_contacts_ilp(inst: Instance) -> int:
    """Most edges any valid layout realizes, by the indicator ILP.

    Positions are confined to [0, T] with T the total width, which every
    optimum fits; big M = T + epsilon then never binds a dropped contact.
    """
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_array

    vertices = inst.vertices
    index = {v: k for k, v in enumerate(vertices)}
    horizontal = inst.horizontal_edges()
    vertical = inst.vertical_edges()
    edges = horizontal + vertical
    n, m = len(vertices), len(edges)
    total = sum((w for row in inst.widths for w in row), Fraction(0))
    big_m = float(total + inst.epsilon)
    eps = inst.epsilon
    data: list[float] = []
    row_ids: list[int] = []
    col_ids: list[int] = []
    upper: list[float] = []

    def add(terms: list[tuple[int, float]], bound: Fraction) -> None:
        r = len(upper)
        for col, coeff in terms:
            data.append(coeff)
            row_ids.append(r)
            col_ids.append(col)
        upper.append(float(bound))

    for a, b, d in inst.precedences():
        add([(index[a], 1.0), (index[b], -1.0)], -d)
    for e, (u, v) in enumerate(edges):
        c = n + e
        if u[0] == v[0]:
            # Abutment: x_v - x_u <= w_u unless the contact is given up.
            add([(index[v], 1.0), (index[u], -1.0), (c, -big_m)], inst.width(u))
        else:
            # Overlap >= eps: each rectangle starts before the other ends - eps.
            add([(index[v], 1.0), (index[u], -1.0), (c, -big_m)], inst.width(u) - eps)
            add([(index[u], 1.0), (index[v], -1.0), (c, -big_m)], inst.width(v) - eps)
    matrix = coo_array((data, (row_ids, col_ids)), shape=(len(upper), n + m)).tocsr()
    cost = np.concatenate([np.zeros(n), np.ones(m)])
    integrality = np.concatenate([np.zeros(n), np.ones(m)])
    lower = np.zeros(n + m)
    high = np.concatenate([np.full(n, float(total)), np.ones(m)])
    result = milp(
        cost,
        constraints=LinearConstraint(matrix, -np.inf, np.array(upper)),
        integrality=integrality,
        bounds=Bounds(lower, high),
        options={"time_limit": ILP_TIME_LIMIT_S, "mip_rel_gap": 0.0},
    )
    if result.status != 0:
        raise CheckError(f"contact ILP ended with status {result.status}: {result.message}")
    return m - int(_integral(result.fun, 1, "contact ILP"))


def judge_area(
    inst: Instance,
    x: dict[Vertex, Fraction] | None,
    reported_gap: Fraction | None,
    optimum: Fraction | None,
) -> list[str]:
    """Problems with an area-minimization answer; ``x is None`` claims no fit.

    ``optimum`` is `min_gap_lp`'s value (None when nothing fits the strip).
    """
    if x is None:
        return [] if optimum is None else [f"claimed no fit, LP optimum is {optimum}"]
    problems = violations(inst, x, inst.strip)
    if problems:
        return problems
    measured = measure(inst, x).gap_total
    if measured != reported_gap:
        problems.append(f"reported gap {reported_gap}, layout has {measured}")
    if optimum is None:
        problems.append("returned a layout where the LP finds none in the strip")
    elif reported_gap != optimum:
        problems.append(f"reported gap {reported_gap}, LP optimum is {optimum}")
    return problems


def judge_bbox(
    inst: Instance,
    x: dict[Vertex, Fraction],
    reported_width: Fraction,
    optimum: Fraction,
) -> list[str]:
    """Problems with a bounding-box answer; ``optimum`` is `min_width`'s value."""
    problems = violations(inst, x)
    if problems:
        return problems
    extent = measure(inst, x).extent
    if extent != reported_width:
        problems.append(f"reported width {reported_width}, layout spans {extent}")
    if reported_width != optimum:
        problems.append(f"reported width {reported_width}, longest path gives {optimum}")
    return problems


def judge_contacts(
    inst: Instance,
    x: dict[Vertex, Fraction],
    reported_count: int,
    optimum: int | None,
) -> tuple[list[str], int]:
    """Problems with a contact-maximization answer, and its shortfall.

    The shortfall is ``optimum - reported_count`` for a valid, honestly
    counted layout (0 when the optimum is unknown); a count above the
    optimum is a problem, since no valid layout can realize it.
    """
    problems = violations(inst, x)
    if problems:
        return problems, 0
    measured = measure(inst, x).contacts
    if measured != reported_count:
        problems.append(f"reported {reported_count} contacts, layout realizes {measured}")
        return problems, 0
    if optimum is None:
        return problems, 0
    if reported_count > optimum:
        problems.append(f"reported {reported_count} contacts above the ILP optimum {optimum}")
        return problems, 0
    return problems, optimum - reported_count
