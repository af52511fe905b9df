"""Cartesian products of digraphs and arc lifting into fibers.

The product of G (order n) and H (order m) lives on pairs (i, j) encoded as
the flat index ``i * m + j``.  An arc joins (i, j) to (k, l) iff either
``i -> k`` is an arc of G and ``j == l``, or ``i == k`` and ``j -> l`` is an
arc of H.  A *G-fiber* is the copy of G obtained by fixing the H-coordinate;
an *H-fiber* fixes the G-coordinate.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .digraph import Arc, Digraph, DigraphError


class ProductDigraph(NamedTuple):
    """A digraph together with its factor dimensions and coordinate codecs."""

    digraph: Digraph
    g_order: int
    h_order: int

    def encode(self, i: int, j: int) -> int:
        if not (0 <= i < self.g_order and 0 <= j < self.h_order):
            raise DigraphError(f"coordinates ({i}, {j}) outside {self.g_order} x {self.h_order}")
        return i * self.h_order + j

    def decode(self, v: int) -> tuple[int, int]:
        if not 0 <= v < self.digraph.n:
            raise DigraphError(f"vertex {v} outside product of order {self.digraph.n}")
        return divmod(v, self.h_order)


def cartesian_product(g: Digraph, h: Digraph) -> ProductDigraph:
    """Cartesian product; arc count is ``n * |A(H)| + m * |A(G)|``."""
    n, m = g.n, h.n
    arcs: list[Arc] = []
    for u, v in g.arcs:
        for j in range(m):
            arcs.append((u * m + j, v * m + j))
    for u, v in h.arcs:
        for i in range(n):
            arcs.append((i * m + u, i * m + v))
    return ProductDigraph(Digraph(n * m, frozenset(arcs)), n, m)


def lift_g_arcs(p: ProductDigraph, factor_arcs: Iterable[Arc], j: int) -> frozenset[Arc]:
    """Map arcs of the factor G into the G-fiber with H-coordinate ``j``."""
    m = p.h_order
    return frozenset((a * m + j, b * m + j) for a, b in _checked(p, factor_arcs, p.g_order, j, m))


def lift_h_arcs(p: ProductDigraph, factor_arcs: Iterable[Arc], i: int) -> frozenset[Arc]:
    """Map arcs of the factor H into the H-fiber with G-coordinate ``i``."""
    m = p.h_order
    return frozenset((i * m + a, i * m + b) for a, b in _checked(p, factor_arcs, m, i, p.g_order))


def _checked(p: ProductDigraph, factor_arcs: Iterable[Arc], order: int, line: int, lines: int) -> list[Arc]:
    """The factor arcs, once the line and the least and greatest factor vertex are in range."""
    arcs = list(factor_arcs)
    if not 0 <= line < lines or arcs and not (0 <= min(map(min, arcs)) and max(map(max, arcs)) < order):
        raise DigraphError(f"factor arcs on line {line} outside {p.g_order} x {p.h_order}")
    return arcs
