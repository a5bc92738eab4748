"""Sweep tests: placement order, frozen optima, oracle equivalence, validity."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from layercloud.exact import build_model, solve_branch_and_bound
from layercloud.generate import gen_random_instance, random_layer_sizes
from layercloud.model import (
    InvalidInstanceError,
    VertexId,
    build_graph,
    contact_report,
)
from layercloud.oracle import brute_force_max_contacts
from layercloud.twolayer import (
    Block,
    current_block,
    maximize_contacts_2layer,
    placement_order,
)


def fan_instance():
    return build_graph([[3], [1, 1, 1]], [[[0, 2]]])


class TestPlacementOrder:
    def test_fan_then_children_left_to_right(self):
        order = placement_order(fan_instance()).order
        assert order == (
            VertexId(0, 0),
            VertexId(1, 0),
            VertexId(1, 1),
            VertexId(1, 2),
        )

    def test_starts_on_the_fan_row(self):
        """When the bottom row starts on a T-vertex, the top row leads."""
        g = build_graph([[1, 1], [2]], [[[0, 0], [0, 0]]])
        order = placement_order(g).order
        assert order[0] == VertexId(1, 0)
        assert set(order) == {VertexId(1, 0), VertexId(0, 0), VertexId(0, 1)}

    def test_zigzag_order(self):
        g = build_graph([[1, 1], [1, 1]], [[[0, 1], [1, 1]]])
        order = placement_order(g).order
        assert order == (
            VertexId(0, 0),
            VertexId(1, 0),
            VertexId(1, 1),
            VertexId(0, 1),
        )

    def test_every_vertex_exactly_once(self):
        rng = random.Random(3)
        for seed in range(50):
            sizes = random_layer_sizes(2, 10, rng)
            g = gen_random_instance(2, sizes, (1, 5), seed=seed)
            order = placement_order(g).order
            assert sorted(order) == sorted(g.vertices())

    def test_rejects_other_layer_counts(self):
        with pytest.raises(InvalidInstanceError):
            placement_order(build_graph([[1]]))
        with pytest.raises(InvalidInstanceError):
            placement_order(build_graph([[1], [1], [1]], [[[0, 0]], [[0, 0]]]))


class TestMaximizeContacts:
    def test_fan_all_five(self):
        result = maximize_contacts_2layer(fan_instance(), 1)
        assert result.realized_count == 5

    def test_squeeze_four_of_five(self):
        g = build_graph([[1, 1], [3, 3]], [[[0, 0], [0, 1]]])
        result = maximize_contacts_2layer(g, 1)
        assert result.realized_count == 4

    def test_two_vertices_one_edge(self):
        g = build_graph([[1], [1]], [[[0, 0]]])
        result = maximize_contacts_2layer(g, 1)
        assert result.realized_count == 1

    def test_output_is_normalized_and_valid(self):
        g = build_graph([[1, 1], [3, 3]], [[[0, 0], [0, 1]]])
        result = maximize_contacts_2layer(g, 1)
        assert min(result.representation.x.values()) == 0
        report = contact_report(g, result.representation)
        assert not report.false_adjacencies
        assert len(report.realized) == result.realized_count

    def test_epsilon_guardrails(self):
        g = fan_instance()
        with pytest.raises(InvalidInstanceError):
            maximize_contacts_2layer(g, 0)
        with pytest.raises(InvalidInstanceError):
            maximize_contacts_2layer(g, 2)  # exceeds the smallest width

    def test_fractional_epsilon_supported(self):
        g = build_graph([[1, 1], [3, 3]], [[[0, 0], [0, 1]]])
        result = maximize_contacts_2layer(g, Fraction(1, 2))
        report = contact_report(g, result.representation)
        assert len(report.realized) == result.realized_count
        for u, v in report.realized:
            if u.layer != v.layer:
                overlap = min(
                    result.representation.x[u] + g.width(u),
                    result.representation.x[v] + g.width(v),
                ) - max(result.representation.x[u], result.representation.x[v])
                assert overlap >= Fraction(1, 2)

    def test_tie_decisions_need_more_than_one_geometry(self):
        """Frozen instance where every single-path slide rule tops out at 12.

        The slide decision after placing v[1,2] ties at zero gained contacts,
        but only the geometry that keeps the old contacts (and leaves slack on
        the right) extends to the 13-contact optimum; the full slide reaches
        only 12.  The carried front must recover the optimum.
        """
        g = build_graph(
            [[2, 5, 1, 3, 1], [4, 4, 4, 4]],
            [[[0, 0], [0, 2], [2, 2], [2, 2], [2, 3]]],
        )
        result = maximize_contacts_2layer(g, 1)
        assert result.realized_count == 13

    def test_matches_oracle_on_random_instances(self):
        rng = random.Random(11)
        for seed in range(120):
            sizes = random_layer_sizes(2, 10, rng)
            if sizes[0] + sizes[1] < 2:
                continue
            g = gen_random_instance(2, sizes, (1, 5), seed=seed)
            result = maximize_contacts_2layer(g, 1)
            oracle_count, _ = brute_force_max_contacts(g)
            assert result.realized_count == oracle_count, (
                f"seed {seed} sizes {sizes}: sweep {result.realized_count}, "
                f"oracle {oracle_count}"
            )

    @pytest.mark.xfail(strict=True, reason="the sweep realizes 17 of 18 possible contacts")
    def test_matches_exact_solver_on_known_shortfall(self):
        g = gen_random_instance(2, [6, 6], (1, 9), seed=29)
        exact = solve_branch_and_bound(build_model(g, 1))
        optimum = len(g.edges()) - exact.lost_count
        assert maximize_contacts_2layer(g, 1).realized_count == optimum

    def test_point_contacts_are_neither_realized_nor_false(self):
        """Fans pulling in opposite directions can leave T-vertices corner to corner."""
        rng = random.Random(13)
        seen_point_contact = False
        for seed in range(80):
            sizes = random_layer_sizes(2, 10, rng)
            g = gen_random_instance(2, sizes, (1, 5), seed=seed)
            result = maximize_contacts_2layer(g, 1)
            r = result.representation
            report = contact_report(g, r)
            assert not report.false_adjacencies
            adjacency = set(g.vertical_edges())
            for u in g.vertices():
                for z in g.vertices():
                    if z.layer != u.layer + 1 or (u, z) in adjacency:
                        continue
                    overlap = min(r.x[u] + g.width(u), r.x[z] + g.width(z)) - max(
                        r.x[u], r.x[z]
                    )
                    assert overlap <= 0
                    if overlap == 0:
                        seen_point_contact = True
        assert seen_point_contact, "sweep never produced a point contact to inspect"


class TestBlocks:
    def test_current_block_spans_abutting_run(self):
        g = build_graph([[1, 1, 1]])
        from layercloud.model import Representation

        r = Representation(
            x={
                VertexId(0, 0): Fraction(0),
                VertexId(0, 1): Fraction(1),
                VertexId(0, 2): Fraction(3),
            },
            epsilon=Fraction(1),
        )
        assert current_block(g, r, VertexId(0, 1)) == Block(layer=0, first=0, last=1)
        assert current_block(g, r, VertexId(0, 2)) == Block(layer=0, first=2, last=2)


class TestOperationCounter:
    def test_counter_grows_linearly_on_balanced_instances(self):
        ratios = []
        for n in (40, 400, 4000):
            g = gen_random_instance(2, [n // 2, n // 2], (1, 5), seed=n)
            result = maximize_contacts_2layer(g, 1)
            size = g.num_vertices + len(g.edges())
            ratios.append(result.operations / size)
        assert max(ratios) / min(ratios) <= 3, ratios
