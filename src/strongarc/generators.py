"""Deterministic digraph family generators used throughout the test-bed.

Every randomized generator takes an explicit seed and is reproducible.
"""

from __future__ import annotations

import heapq
import random
from typing import Iterable, NamedTuple

from .digraph import Digraph, DigraphError, biorient, from_arc_list

TREE_KINDS = ("path", "star", "caterpillar", "random")


class _TreeShapeFields(NamedTuple):
    kind: str
    order: int
    seed: int | None = None


class TreeShape(_TreeShapeFields):
    """Shape selector for ``bidirected_tree``: path, star, caterpillar or seeded random.

    Validated on construction; ``_make``, and with it ``_replace``, builds
    through the constructor, so every shape in hand is a valid one.
    """

    __slots__ = ()

    def __new__(cls, kind: str, order: int, seed: int | None = None) -> TreeShape:
        if kind not in TREE_KINDS:
            raise DigraphError(f"unknown tree kind {kind!r}, expected one of {TREE_KINDS}")
        if order < 2:
            raise DigraphError(f"trees need order >= 2, got {order}")
        if kind == "random" and seed is None:
            raise DigraphError("random tree shape needs an explicit seed")
        return super().__new__(cls, kind, order, seed)

    @classmethod
    def _make(cls, fields: Iterable[object]) -> TreeShape:
        return cls(*fields)


def directed_cycle(n: int) -> Digraph:
    """The cycle 0 -> 1 -> ... -> n-1 -> 0."""
    if n < 2:
        raise DigraphError(f"directed cycle needs order >= 2, got {n}")
    return from_arc_list(n, [(i, (i + 1) % n) for i in range(n)])


def bidirected_cycle(m: int) -> Digraph:
    """Both orientations of every edge of the undirected cycle on m >= 3 vertices."""
    if m < 3:
        raise DigraphError(f"bidirected cycle needs order >= 3, got {m}")
    return biorient(m, [(i, (i + 1) % m) for i in range(m)])


def tree_edges(shape: TreeShape) -> list[tuple[int, int]]:
    """Edge list of the undirected tree described by ``shape``."""
    m = shape.order
    if shape.kind == "path":
        return [(i, i + 1) for i in range(m - 1)]
    if shape.kind == "star":
        return [(0, i) for i in range(1, m)]
    if shape.kind == "caterpillar":
        spine = max(2, (m + 1) // 2)
        spine = min(spine, m)
        edges = [(i, i + 1) for i in range(spine - 1)]
        for leg, v in enumerate(range(spine, m)):
            edges.append((leg % spine, v))
        return edges
    # random labeled tree from a seeded Pruefer sequence
    rng = random.Random(shape.seed)
    if m == 2:
        return [(0, 1)]
    seq = [rng.randrange(m) for _ in range(m - 2)]
    degree = [1] * m
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = [v for v in range(m) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    # exactly two vertices of residual degree 1 remain
    u, v = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((u, v))
    return edges


def bidirected_tree(shape: TreeShape) -> Digraph:
    """Biorientation of the tree described by ``shape``."""
    return biorient(shape.order, tree_edges(shape))


def complete_digraph(m: int) -> Digraph:
    """All ordered pairs of distinct vertices; the biorientation of the complete graph."""
    if m < 2:
        raise DigraphError(f"complete digraph needs order >= 2, got {m}")
    return from_arc_list(m, [(u, v) for u in range(m) for v in range(m) if u != v])


def random_strong_digraph(n: int, extra_arc_prob: float, seed: int) -> Digraph:
    """A random Hamiltonian cycle plus each remaining arc independently with given probability.

    Always strongly connected; deterministic for a fixed ``(n, extra_arc_prob, seed)``.
    """
    if n < 2:
        raise DigraphError(f"random strong digraph needs order >= 2, got {n}")
    if not 0.0 <= extra_arc_prob <= 1.0:
        raise DigraphError(f"arc probability must lie in [0, 1], got {extra_arc_prob}")
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    arcs = {(perm[i], perm[(i + 1) % n]) for i in range(n)}
    for u in range(n):
        for v in range(n):
            if u != v and (u, v) not in arcs and rng.random() < extra_arc_prob:
                arcs.add((u, v))
    return from_arc_list(n, arcs)


def random_connected_graph(n: int, extra_edge_prob: float, seed: int) -> tuple[tuple[int, int], ...]:
    """Edge list of a random connected graph: a random tree plus extra edges.

    Always connected; deterministic for a fixed ``(n, extra_edge_prob, seed)``.
    Returned edges are sorted pairs ``(u, v)`` with ``u < v``.
    """
    if n < 2:
        raise DigraphError(f"random connected graph needs order >= 2, got {n}")
    if not 0.0 <= extra_edge_prob <= 1.0:
        raise DigraphError(f"edge probability must lie in [0, 1], got {extra_edge_prob}")
    rng = random.Random(seed)
    edges = {tuple(sorted(e)) for e in tree_edges(TreeShape("random", n, rng.getrandbits(32)))}
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < extra_edge_prob:
                edges.add((u, v))
    return tuple(sorted(edges))
