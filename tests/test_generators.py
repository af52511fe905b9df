"""Digraph family generators: cycles, trees, complete digraphs, random instances."""

import pytest

from strongarc.digraph import DigraphError, is_strong
from strongarc.generators import (
    TREE_KINDS,
    TreeShape,
    bidirected_cycle,
    bidirected_tree,
    complete_digraph,
    directed_cycle,
    random_connected_graph,
    random_strong_digraph,
    tree_edges,
)

from oracles import random_digraph


class TestDirectedCycle:
    def test_structure(self):
        d = directed_cycle(5)
        assert d.n == 5 and len(d.arcs) == 5
        assert all(d.has_arc(i, (i + 1) % 5) for i in range(5))
        assert is_strong(d)

    def test_minimum_order(self):
        assert directed_cycle(2).arcs == frozenset({(0, 1), (1, 0)})
        with pytest.raises(ValueError):
            directed_cycle(1)


class TestBidirectedCycle:
    def test_structure(self):
        d = bidirected_cycle(4)
        assert d.n == 4 and len(d.arcs) == 8
        assert is_strong(d)

    def test_minimum_order(self):
        with pytest.raises(ValueError):
            bidirected_cycle(2)


class TestCompleteDigraph:
    def test_all_ordered_pairs(self):
        d = complete_digraph(4)
        assert len(d.arcs) == 12
        assert all(d.has_arc(u, v) for u in range(4) for v in range(4) if u != v)

    def test_minimum_order(self):
        assert complete_digraph(2).arcs == frozenset({(0, 1), (1, 0)})
        with pytest.raises(ValueError):
            complete_digraph(1)


def is_spanning_tree(n: int, edges) -> bool:
    if len(edges) != n - 1:
        return False
    adj = {v: [] for v in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


class TestTrees:
    @pytest.mark.parametrize("kind", [k for k in TREE_KINDS if k != "random"])
    @pytest.mark.parametrize("order", [2, 3, 5, 8])
    def test_deterministic_shapes_are_trees(self, kind, order):
        edges = tree_edges(TreeShape(kind, order))
        assert is_spanning_tree(order, edges)

    def test_path_shape(self):
        assert list(tree_edges(TreeShape("path", 4))) == [(0, 1), (1, 2), (2, 3)]

    def test_star_shape(self):
        assert list(tree_edges(TreeShape("star", 4))) == [(0, 1), (0, 2), (0, 3)]

    @pytest.mark.parametrize("order", [2, 3, 6, 9])
    def test_random_trees_are_trees_and_deterministic(self, order):
        a = tree_edges(TreeShape("random", order, seed=7))
        b = tree_edges(TreeShape("random", order, seed=7))
        assert a == b
        assert is_spanning_tree(order, a)

    def test_random_seed_changes_shape(self):
        shapes = {tuple(tree_edges(TreeShape("random", 8, seed=s))) for s in range(12)}
        assert len(shapes) > 1

    def test_bidirected_tree_strong(self):
        d = bidirected_tree(TreeShape("star", 5))
        assert d.n == 5 and len(d.arcs) == 8 and is_strong(d)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            TreeShape("bogus", 3)
        with pytest.raises(ValueError):
            TreeShape("path", 1)
        with pytest.raises(ValueError):
            TreeShape("random", 3)  # needs a seed

    def test_replace_validates(self):
        assert TreeShape("path", 4)._replace(order=6) == TreeShape("path", 6)
        with pytest.raises(DigraphError, match="unknown tree kind 'bogus'"):
            TreeShape("path", 4)._replace(kind="bogus")
        with pytest.raises(DigraphError, match="random tree shape needs an explicit seed"):
            TreeShape("path", 4)._replace(kind="random")


class TestRandomStrongDigraph:
    @pytest.mark.parametrize("seed", range(8))
    def test_always_strong(self, seed):
        d = random_strong_digraph(5, 0.3, seed)
        assert d.n == 5 and is_strong(d)

    def test_deterministic(self):
        assert random_strong_digraph(6, 0.4, 11) == random_strong_digraph(6, 0.4, 11)

    def test_extra_arcs_monotone_in_probability(self):
        sparse = random_strong_digraph(7, 0.0, 3)
        assert len(sparse.arcs) == 7  # bare Hamiltonian cycle
        dense = random_strong_digraph(7, 1.0, 3)
        assert len(dense.arcs) == 42

    def test_validation(self):
        with pytest.raises(ValueError):
            random_strong_digraph(1, 0.5, 0)
        with pytest.raises(ValueError):
            random_strong_digraph(4, 1.5, 0)


class TestRandomDigraph:
    def test_deterministic_and_bounded(self):
        a = random_digraph(5, 14, 21)
        b = random_digraph(5, 14, 21)
        assert a == b
        assert len(a.arcs) <= 14

    def test_arc_cap_respected(self):
        for seed in range(20):
            assert len(random_digraph(4, 3, seed).arcs) <= 3

    def test_not_necessarily_strong(self):
        assert any(not is_strong(random_digraph(5, 6, s)) for s in range(20))


class TestRandomConnectedGraph:
    def test_connected_and_deterministic(self):
        for seed in range(10):
            edges = random_connected_graph(6, 0.3, seed)
            assert is_spanning_tree(6, edges) or _connected(6, edges)
            assert edges == random_connected_graph(6, 0.3, seed)

    def test_zero_extra_prob_gives_tree(self):
        edges = random_connected_graph(7, 0.0, 5)
        assert is_spanning_tree(7, edges)

    def test_full_prob_gives_complete_graph(self):
        edges = random_connected_graph(5, 1.0, 5)
        assert len(edges) == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            random_connected_graph(1, 0.5, 0)
        with pytest.raises(ValueError):
            random_connected_graph(4, -0.1, 0)


def _connected(n: int, edges) -> bool:
    adj = {v: [] for v in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n
