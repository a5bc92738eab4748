"""Tests for the core model: graph validation, contact semantics, F-pairs,
the shared difference graph and the solvers' invariance under scaling."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from layercloud.exact import build_model, solve_branch_and_bound
from layercloud.flow import minimize_area, minimize_bounding_box
from layercloud.generate import gen_random_instance, random_layer_sizes
from layercloud.model import (
    InvalidInstanceError,
    Representation,
    StripInfeasibleError,
    VertexId,
    as_fraction,
    build_graph,
    common_denominator,
    contact_report,
    difference_graph,
    false_adjacency_pairs,
    scaled_layout,
    validate_graph,
    validate_representation,
)
from layercloud.twolayer import maximize_contacts_2layer


def fan_instance():
    """One width-3 rectangle below three unit rectangles, fully fanned."""
    return build_graph([[3], [1, 1, 1]], [[[0, 2]]])


def rep(graph, coords, epsilon=1):
    return Representation(
        x={VertexId(*k): Fraction(v) for k, v in coords.items()},
        epsilon=Fraction(epsilon),
    )


def left_packed(graph, epsilon=1):
    """Every row packed from x = 0: zero gaps, but contacts fall where they may."""
    x = {}
    for i in range(graph.num_layers):
        cursor = Fraction(0)
        for j in range(graph.layer_size(i)):
            v = VertexId(i, j)
            x[v] = cursor
            cursor += graph.width(v)
    return Representation(x=x, epsilon=Fraction(epsilon))


class TestAsFraction:
    def test_accepts_int_str_and_rational_strings(self):
        assert as_fraction(3) == 3
        assert as_fraction("7/2") == Fraction(7, 2)
        assert as_fraction("3.5") == Fraction(7, 2)

    def test_float_reads_as_decimal_text(self):
        assert as_fraction(0.1) == Fraction(1, 10)

    def test_rejects_garbage(self):
        with pytest.raises(InvalidInstanceError):
            as_fraction("three")
        with pytest.raises(InvalidInstanceError):
            as_fraction(True)


class TestBuildGraph:
    def test_pads_top_layer(self):
        g = fan_instance()
        assert g.up_neighbors[1] == (None, None, None)

    def test_accepts_explicit_top_row(self):
        g = build_graph([[3], [1, 1, 1]], [[[0, 2]], [None, None, None]])
        assert validate_graph(g) == []

    def test_rejects_shape_mismatch(self):
        with pytest.raises(InvalidInstanceError):
            build_graph([[1], [1]], [[[0, 0]], [[0, 0]], [[0, 0]]])
        with pytest.raises(InvalidInstanceError):
            build_graph([[1, 1]], [[[0, 0]]])  # row length != layer size

    def test_derived_quantities(self):
        g = build_graph([[2, 2], [1, 2, 1]], [[[0, 1], [1, 2]]])
        assert g.max_layer_size == 3
        assert g.max_width == 2
        assert g.strip_width == 6
        assert g.max_row_width == 4
        assert g.total_width == 8


class TestValidateGraph:
    def test_single_vertex_is_valid(self):
        """Smallest instance: one vertex, width 1, no upper neighbors."""
        assert validate_graph(build_graph([[1]])) == []

    def test_full_fan_is_valid(self):
        """Hand enumeration: the 3-fan strip is internally triangulated."""
        assert validate_graph(fan_instance()) == []

    def test_untriangulated_quad_is_flagged(self):
        """A quad face with no diagonal: intervals do not share an endpoint."""
        g = build_graph([[1, 1], [1, 1]], [[[0, 0], [1, 1]]])
        violations = validate_graph(g)
        assert any("share exactly one endpoint" in v for v in violations)

    def test_negative_width_is_flagged(self):
        g = build_graph([[-1]])
        assert any("non-positive width" in v for v in validate_graph(g))

    def test_missing_upper_neighbors_flagged(self):
        g = build_graph([[1, 1], [1]], [[[0, 0], None]])
        assert any("has no neighbors" in v for v in validate_graph(g))

    def test_coverage_violations_flagged(self):
        g = build_graph([[1], [1, 1]], [[[0, 0]]])
        assert any("ends at 0, not 1" in v for v in validate_graph(g))
        g = build_graph([[1], [1, 1]], [[[1, 1]]])
        assert any("starts at 1, not 0" in v for v in validate_graph(g))

    def test_out_of_bounds_interval_flagged(self):
        g = build_graph([[1], [1, 1]], [[[0, 2]]])
        assert any("outside layer" in v for v in validate_graph(g))

    def test_top_layer_interval_flagged(self):
        g = build_graph([[1]], [[[0, 0]]])
        assert any("top layer" in v for v in validate_graph(g))


class TestContactReport:
    def test_fan_zero_gap_layout_realizes_all_edges(self):
        g = fan_instance()
        r = rep(g, {(0, 0): 0, (1, 0): 0, (1, 1): 1, (1, 2): 2})
        report = contact_report(g, r)
        assert len(report.realized) == 5
        assert report.lost == frozenset()
        assert report.false_adjacencies == frozenset()
        assert report.gap_total == 0
        assert report.bbox_width == 3

    def test_stacked_unit_squares_full_overlap(self):
        g = build_graph([[1], [1]], [[[0, 0]]])
        r = rep(g, {(0, 0): 0, (1, 0): 0})
        report = contact_report(g, r)
        assert report.realized == frozenset({(VertexId(0, 0), VertexId(1, 0))})
        assert report.gap_total == 0

    def test_shifted_square_is_point_contact(self):
        """Zero-length intersection: the edge is lost but nothing is false."""
        g = build_graph([[1], [1]], [[[0, 0]]])
        r = rep(g, {(0, 0): 0, (1, 0): 1})
        report = contact_report(g, r)
        assert report.lost == frozenset({(VertexId(0, 0), VertexId(1, 0))})
        assert report.false_adjacencies == frozenset()

    def test_contact_shorter_than_epsilon_is_lost_not_false(self):
        g = build_graph([[2], [2]], [[[0, 0]]])
        r = rep(g, {(0, 0): 0, (1, 0): Fraction(3, 2)}, epsilon=1)
        report = contact_report(g, r)
        assert report.lost == frozenset({(VertexId(0, 0), VertexId(1, 0))})
        assert report.false_adjacencies == frozenset()

    def test_positive_overlap_of_non_neighbors_is_false(self):
        g = build_graph([[3, 1], [1, 1, 1, 1]], [[[0, 0], [0, 3]]])
        r = left_packed(g)
        report = contact_report(g, r)
        assert (VertexId(0, 0), VertexId(1, 1)) in report.false_adjacencies
        assert report.gap_total == 0

    def test_missing_coordinate_is_an_input_error(self):
        g = fan_instance()
        r = rep(g, {(0, 0): 0, (1, 0): 0, (1, 1): 1})
        with pytest.raises(InvalidInstanceError):
            contact_report(g, r)

    def test_gap_accounting(self):
        g = build_graph([[1, 1]])
        r = rep(g, {(0, 0): 0, (0, 1): 3})
        report = contact_report(g, r)
        assert report.gap_total == 2
        assert report.bbox_width == 4
        assert report.lost == frozenset({(VertexId(0, 0), VertexId(0, 1))})

    def test_pure_function(self):
        g = fan_instance()
        r = rep(g, {(0, 0): 0, (1, 0): 0, (1, 1): 1, (1, 2): 2})
        assert contact_report(g, r) == contact_report(g, r)

    def test_false_adjacencies_only_between_adjacent_layers(self):
        """Three stacked rows: layers 0 and 2 never interact."""
        g = build_graph([[1], [1], [1]], [[[0, 0]], [[0, 0]]])
        r = rep(g, {(0, 0): 0, (1, 0): 5, (2, 0): 0})
        report = contact_report(g, r)
        for u, z in report.false_adjacencies:
            assert z.layer == u.layer + 1


def reference_contact_report(g, r):
    """The row-pair rescan version of `contact_report`, kept as a reference."""
    missing = [v for v in g.vertices() if v not in r.x]
    if missing:
        raise InvalidInstanceError(f"missing coordinate for {missing[0]}")
    eps = r.epsilon
    realized = set()
    lost = set()
    for u, v in g.horizontal_edges():
        if r.x[u] + g.width(u) == r.x[v]:
            realized.add((u, v))
        else:
            lost.add((u, v))
    adjacency = {(u, v) for u, v in g.vertical_edges()}
    false_pairs = set()
    for i in range(g.num_layers - 1):
        lower = sorted(
            (VertexId(i, j) for j in range(g.layer_size(i))), key=lambda v: r.x[v]
        )
        upper = sorted(
            (VertexId(i + 1, j) for j in range(g.layer_size(i + 1))), key=lambda v: r.x[v]
        )
        start = 0
        for u in lower:
            left_u, right_u = r.x[u], r.x[u] + g.width(u)
            while start < len(upper) and r.x[upper[start]] + g.width(upper[start]) <= left_u:
                start += 1
            k = start
            while k < len(upper) and r.x[upper[k]] < right_u:
                z = upper[k]
                overlap = min(right_u, r.x[z] + g.width(z)) - max(left_u, r.x[z])
                if (u, z) in adjacency:
                    if overlap >= eps:
                        realized.add((u, z))
                    else:
                        lost.add((u, z))
                elif overlap > 0:
                    false_pairs.add((u, z))
                k += 1
        for edge in adjacency:
            if edge[0].layer == i and edge not in realized and edge not in lost:
                lost.add(edge)
    gap_total = Fraction(0)
    for i in range(g.num_layers):
        for j in range(g.layer_size(i) - 1):
            u, v = VertexId(i, j), VertexId(i, j + 1)
            gap_total += r.x[v] - (r.x[u] + g.width(u))
    left = min(r.x[v] for v in g.vertices())
    right = max(r.x[v] + g.width(v) for v in g.vertices())
    return (realized, lost, false_pairs, gap_total, right - left)


class TestContactReportMatchesReference:
    """All five fields agree with the reference on solver and malformed layouts."""

    @staticmethod
    def graphs(rng, count):
        for seed in range(count):
            layers = rng.randint(1, 4)
            g = gen_random_instance(layers, random_layer_sizes(layers, 12, rng), (1, 6), seed)
            yield divided(g, rng.choice((1, 1, 2, 3)))

    @staticmethod
    def solver_layouts(g, rng):
        eps = min(g.min_width, Fraction(rng.choice((1, 2)), 2))
        solvers = [lambda: minimize_area(g, eps), lambda: minimize_bounding_box(g, eps)]
        if g.num_layers == 2:
            solvers.append(lambda: maximize_contacts_2layer(g, eps))
        if g.num_vertices <= 9:
            solvers.append(lambda: solve_branch_and_bound(build_model(g, eps)))
        for solve in solvers:
            try:
                yield solve().representation
            except StripInfeasibleError:
                pass

    @staticmethod
    def scrambled(g, r, rng, kind):
        """A copy of ``r`` broken in one way; every kind but 'shuffle' stays near r."""
        x = dict(r.x)
        vertices = list(g.vertices())
        if kind == "shuffle":  # rows out of order, overlaps, point contacts
            grid = Fraction(1, rng.choice((1, 2, 3)))
            span = int(g.total_width / grid) + 1
            x = {v: rng.randint(0, span) * grid for v in vertices}
        elif kind == "overlap":  # same-row rectangles pushed into their left neighbor
            for v in rng.sample(vertices, max(1, len(vertices) // 3)):
                x[v] -= g.width(v) / rng.choice((2, 3))
        elif kind == "short":  # vertical overlaps cut below epsilon
            for v in rng.sample(vertices, max(1, len(vertices) // 2)):
                x[v] += r.epsilon * rng.choice((-1, 1)) * Fraction(rng.randint(1, 5), 6)
        elif kind == "point":  # upper rows moved so edges meet at points
            for v in vertices:
                if v.layer % 2 and v.pos % 2 == 0:
                    x[v] = x[VertexId(v.layer - 1, 0)] + g.width(VertexId(v.layer - 1, 0))
        return Representation(x=x, epsilon=r.epsilon)

    def test_at_least_200_layouts_agree(self):
        rng = random.Random(89)
        kinds = ("solver", "shuffle", "overlap", "short", "point")
        seen = dict.fromkeys(kinds, 0)
        rational = 0
        for g in self.graphs(rng, 40):
            for r in self.solver_layouts(g, rng):
                layouts = [("solver", r)]
                layouts += [(kind, self.scrambled(g, r, rng, kind)) for kind in kinds[1:]]
                for kind, layout in layouts:
                    report = contact_report(g, layout)
                    fields = (
                        report.realized,
                        report.lost,
                        report.false_adjacencies,
                        report.gap_total,
                        report.bbox_width,
                    )
                    assert fields == reference_contact_report(g, layout), kind
                    seen[kind] += 1
                    rational += any(x.denominator > 1 for x in layout.x.values())
        assert sum(seen.values()) >= 200 and min(seen.values()) >= 40, seen
        assert rational >= 40

    def test_non_positive_epsilon_agrees(self):
        """Unvisited separated pairs stay lost even where overlap >= epsilon."""
        rng = random.Random(97)
        for g in self.graphs(rng, 10):
            r = self.scrambled(g, left_packed(g), rng, "shuffle")
            for eps in (0, -1):
                layout = Representation(x=r.x, epsilon=Fraction(eps))
                report = contact_report(g, layout)
                reference = reference_contact_report(g, layout)
                assert (report.realized, report.lost) == reference[:2]


class TestFalseAdjacencyPairs:
    def test_full_fan_has_no_pairs(self):
        assert false_adjacency_pairs(fan_instance()) == (frozenset(), frozenset())

    def test_pairs_read_off_interval_endpoints(self):
        g = build_graph([[2, 2], [1, 2, 1]], [[[0, 1], [1, 2]]])
        f_left, f_right = false_adjacency_pairs(g)
        assert f_right == frozenset({(VertexId(0, 0), VertexId(1, 2))})
        assert f_left == frozenset({(VertexId(0, 1), VertexId(1, 0))})

    def test_top_layer_contributes_nothing(self):
        g = build_graph([[1], [1]], [[[0, 0]]])
        f_left, f_right = false_adjacency_pairs(g)
        assert not f_left and not f_right


class TestValidateRepresentation:
    def test_clean_representation_passes(self):
        g = fan_instance()
        r = rep(g, {(0, 0): 0, (1, 0): 0, (1, 1): 1, (1, 2): 2})
        assert validate_representation(g, r) == []

    def test_overlap_and_missing_coordinates_reported(self):
        g = build_graph([[1, 1]])
        r = rep(g, {(0, 0): 0, (0, 1): Fraction(1, 2)})
        assert any("overlaps" in p for p in validate_representation(g, r))
        r = rep(g, {(0, 0): 0})
        assert any("missing" in p for p in validate_representation(g, r))

    def test_non_positive_epsilon_reported(self):
        g = build_graph([[1]])
        r = rep(g, {(0, 0): 0}, epsilon=0)
        assert any("epsilon" in p for p in validate_representation(g, r))


class TestLeftPackedNegativeControl:
    def test_left_packing_has_zero_gaps_but_may_be_invalid(self):
        g = build_graph([[3, 1], [1, 1, 1, 1]], [[[0, 0], [0, 3]]])
        report = contact_report(g, left_packed(g))
        assert report.gap_total == 0
        assert report.false_adjacencies  # validity is the binding constraint


def divided(g, k):
    """The same graph with every width divided by ``k``."""
    return build_graph(
        [[w / k for w in row] for row in g.widths],
        [list(row) for row in g.up_neighbors],
    )


def left_compacted(dg):
    """Longest path over the arcs by plain relaxation, independent of the solvers."""
    x = [0] * len(dg.width)
    for _ in range(len(x)):
        for a, b in dg.arcs:
            x[b] = max(x[b], x[a] + dg.width[a])
    return x


class TestDifferenceGraph:
    def test_fan_census(self):
        """Row order only: a full fan has no forbidden pairs."""
        dg = difference_graph(fan_instance(), 1)
        assert dg.offset == (0, 1, 4)
        assert dg.width == (3, 1, 1, 1)
        assert dg.epsilon == 1 and dg.denominator == 1
        assert dg.order == ((1, 2), (2, 3))
        assert dg.f_left == () and dg.f_right == ()
        assert dg.arcs == dg.order

    def test_forbidden_pair_arcs(self):
        """fleft_0_1__1_0: v[1,0] left of v[0,1]; fright_0_0__1_2: v[0,0] left of v[1,2]."""
        g = build_graph([[2, 2], [1, 2, 1]], [[[0, 1], [1, 2]]])
        dg = difference_graph(g, 1)
        assert dg.order == ((0, 1), (2, 3), (3, 4))
        assert dg.f_left == ((2, 1),)
        assert dg.f_right == ((0, 4),)
        assert dg.arcs == ((0, 1), (2, 3), (3, 4), (2, 1), (0, 4))

    def test_denominator_is_lcm_of_widths_and_epsilon(self):
        g = build_graph([["3/2", "5/4"], [2]], [[[0, 0], [0, 0]]])
        assert common_denominator(g, Fraction(1, 3)) == 12
        dg = difference_graph(g, Fraction(1, 3))
        assert dg.denominator == 12
        assert dg.width == (18, 15, 24)
        assert dg.epsilon == 4
        assert difference_graph(fan_instance(), Fraction(1, 2)).denominator == 2
        assert difference_graph(fan_instance(), 1).width == (3, 1, 1, 1)

    def test_rejects_invalid_graph(self):
        g = build_graph([[1, 1], [1, 1]], [[[0, 0], [1, 1]]])
        with pytest.raises(InvalidInstanceError, match="^invalid graph: .*share exactly one"):
            difference_graph(g, 1)

    @pytest.mark.parametrize("epsilon", [0, -1, Fraction(-1, 2)])
    def test_rejects_non_positive_epsilon(self, epsilon):
        with pytest.raises(InvalidInstanceError, match="^epsilon must be positive, got"):
            difference_graph(fan_instance(), epsilon)

    def test_left_compacted_layout_is_valid(self):
        """Meeting every arc keeps out every false adjacency, rational data too."""
        rng = random.Random(67)
        cases = [build_graph([["3/2", "1/2", "5/3"], [1, "7/3"]], [[[0, 0], [0, 1], [1, 1]]])]
        for seed in range(30):
            layers = rng.randint(2, 4)
            g = gen_random_instance(layers, random_layer_sizes(layers, 16, rng), (1, 7), seed)
            cases.append(divided(g, rng.choice((2, 3, 6))))
        for g in cases:
            dg = difference_graph(g, Fraction(1, 2))
            x = left_compacted(dg)
            r = Representation(
                x={v: Fraction(xv, dg.denominator) for v, xv in zip(g.vertices(), x)},
                epsilon=Fraction(1, 2),
            )
            assert validate_representation(g, r) == []
            assert contact_report(g, r).false_adjacencies == frozenset()


def halved(r):
    return {v: x / 2 for v, x in r.x.items()}


class TestScaledLayout:
    def test_shifts_to_zero_and_scales_back(self):
        g = build_graph([[2, 2], [1, 2, 1]], [[[0, 1], [1, 2]]])
        r = scaled_layout(g, [5, 9, 3, 4, 8], 2, Fraction(1, 2))
        assert r.epsilon == Fraction(1, 2)
        assert list(r.x) == list(g.vertices())
        assert list(r.x.values()) == [1, 3, 0, Fraction(1, 2), Fraction(5, 2)]


class TestScaleInvariance:
    """Halving every width and epsilon halves every coordinate and nothing else."""

    SEEDS = range(30)

    def test_branch_and_bound(self):
        rng = random.Random(71)
        for seed in self.SEEDS:
            layers = rng.randint(2, 4)
            g = gen_random_instance(layers, random_layer_sizes(layers, 9, rng), (1, 5), seed)
            whole = solve_branch_and_bound(build_model(g, 1))
            half = solve_branch_and_bound(build_model(divided(g, 2), Fraction(1, 2)))
            assert half.lost_count == whole.lost_count, f"seed {seed}"
            assert half.representation.x == halved(whole.representation), f"seed {seed}"

    def test_two_layer_sweep(self):
        rng = random.Random(73)
        for seed in self.SEEDS:
            g = gen_random_instance(2, random_layer_sizes(2, 40, rng), (1, 9), seed)
            whole = maximize_contacts_2layer(g, 1)
            half = maximize_contacts_2layer(divided(g, 2), Fraction(1, 2))
            assert half.realized_count == whole.realized_count, f"seed {seed}"
            assert half.operations == whole.operations, f"seed {seed}"
            assert half.representation.x == halved(whole.representation), f"seed {seed}"

    def test_area(self):
        rng = random.Random(79)
        solved = 0
        for seed in self.SEEDS:
            layers = rng.randint(1, 4)
            g = gen_random_instance(layers, random_layer_sizes(layers, 30, rng), (1, 9), seed)
            try:
                whole = minimize_area(g, 1)
            except StripInfeasibleError:
                with pytest.raises(StripInfeasibleError):
                    minimize_area(divided(g, 2), Fraction(1, 2))
                continue
            half = minimize_area(divided(g, 2), Fraction(1, 2))
            assert half.gap_total == whole.gap_total / 2, f"seed {seed}"
            solved += 1
        assert solved >= 20

    def test_bounding_box(self):
        """Rational widths are solved exactly: half the width, half of every x."""
        rng = random.Random(83)
        solved = 0
        for seed in self.SEEDS:
            layers = rng.randint(1, 4)
            g = gen_random_instance(layers, random_layer_sizes(layers, 30, rng), (1, 9), seed)
            try:
                whole = minimize_bounding_box(g, 1)
            except StripInfeasibleError:
                with pytest.raises(StripInfeasibleError):
                    minimize_bounding_box(divided(g, 2), Fraction(1, 2))
                continue
            half = minimize_bounding_box(divided(g, 2), Fraction(1, 2))
            assert half.width == whole.width / 2, f"seed {seed}"
            assert half.representation.x == halved(whole.representation), f"seed {seed}"
            solved += 1
        assert solved >= 20
