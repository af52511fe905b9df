"""Cartesian product of digraphs: encoding, arc lifting into fibers."""

import pytest

from strongarc.digraph import DigraphError, biorient, is_strong
from strongarc.generators import bidirected_cycle, complete_digraph, directed_cycle
from strongarc.product import cartesian_product, lift_g_arcs, lift_h_arcs


@pytest.fixture
def c3_square():
    g = directed_cycle(3)
    return cartesian_product(g, directed_cycle(3))


class TestCartesianProduct:
    def test_order_and_arc_count(self):
        g = directed_cycle(3)  # 3 arcs
        h = bidirected_cycle(4)  # 8 arcs
        p = cartesian_product(g, h)
        assert p.digraph.n == 12
        # |A(G x H)| = |V(G)| * |A(H)| + |V(H)| * |A(G)|
        assert len(p.digraph.arcs) == 3 * 8 + 4 * 3

    def test_arcs_stay_within_one_coordinate(self, c3_square):
        p = c3_square
        for u, v in p.digraph.arcs:
            gi, hj = p.decode(u)
            gk, hl = p.decode(v)
            assert (gi == gk) != (hj == hl)  # exactly one coordinate moves

    def test_product_of_strong_factors_is_strong(self):
        p = cartesian_product(complete_digraph(3), directed_cycle(4))
        assert is_strong(p.digraph)

    def test_k2_square_is_bidirected_square(self):
        p = cartesian_product(complete_digraph(2), complete_digraph(2))
        expected = biorient(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert p.digraph.arcs == expected.arcs


class TestEncoding:
    def test_round_trip(self, c3_square):
        p = c3_square
        for i in range(3):
            for j in range(3):
                assert p.decode(p.encode(i, j)) == (i, j)

    def test_range_checks(self, c3_square):
        p = c3_square
        with pytest.raises(DigraphError):
            p.encode(3, 0)
        with pytest.raises(DigraphError):
            p.encode(0, -1)
        with pytest.raises(DigraphError):
            p.decode(9)


class TestFibers:
    def test_lifted_fibers_partition_product_arcs(self, c3_square):
        p = c3_square
        g_arcs = directed_cycle(3).arcs
        blocks = [lift_g_arcs(p, g_arcs, j) for j in range(3)]
        blocks += [lift_h_arcs(p, g_arcs, i) for i in range(3)]
        union = set().union(*blocks)
        assert union == set(p.digraph.arcs)
        assert sum(len(b) for b in blocks) == len(p.digraph.arcs)


class TestLifting:
    def test_lift_g_arcs(self, c3_square):
        p = c3_square
        lifted = lift_g_arcs(p, [(0, 1), (1, 2)], 2)
        assert lifted == frozenset({(p.encode(0, 2), p.encode(1, 2)), (p.encode(1, 2), p.encode(2, 2))})

    def test_lift_h_arcs(self, c3_square):
        p = c3_square
        lifted = lift_h_arcs(p, [(2, 0)], 1)
        assert lifted == frozenset({(p.encode(1, 2), p.encode(1, 0))})

    def test_lift_rejects_out_of_range_factor_vertices(self, c3_square):
        with pytest.raises(DigraphError):
            lift_g_arcs(c3_square, [(0, 3)], 0)
        with pytest.raises(DigraphError):
            lift_h_arcs(c3_square, [(0, 1)], 5)
