"""Connectivity of Cartesian products: formulas, certificate families, bounds.

Conventions used throughout: the product of ``g`` (order ``n``) and ``h``
(order ``m``) has vertices ``encode(i, j) = i * m + j``.  We call the copy of
``g`` at fixed second coordinate ``j`` "column j" and the copy of ``h`` at
fixed first coordinate ``i`` "row i".  Seed positions are coordinate pairs
``(i, j)``.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from itertools import combinations

from .digraph import Arc, Digraph, DigraphError, biorient, is_strong
from .flow import arc_connectivity, verify_cut
from .generators import (
    TreeShape,
    bidirected_cycle,
    bidirected_tree,
    complete_digraph,
    directed_cycle,
    random_strong_digraph,
)
from .packing import (
    CertificateFamily,
    _ArcTables,
    _exact,
    _validate_pair,
    lambda_2,
    verify_certificate,
)
from .product import ProductDigraph, cartesian_product, lift_g_arcs, lift_h_arcs


class ConstructionError(RuntimeError):
    """A certificate family could not be built or failed its own verification."""


# ---------------------------------------------------------------------------
# Four-term formula for the arc-strong connectivity of a product
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FormulaBreakdown:
    """The four candidate terms for the product's arc-strong connectivity."""

    lambda_g: int
    lambda_h: int
    term_g_scaled: int
    term_h_scaled: int
    term_out: int
    term_in: int
    value: int
    argmin: tuple[str, ...]


def _require_strong_factor(name: str, d: Digraph) -> None:
    if d.n < 2:
        raise DigraphError(f"{name} factor must have at least 2 vertices, got {d.n}")
    if not is_strong(d):
        raise DigraphError(f"{name} factor must be strong")


def product_lambda_formula(g: Digraph, h: Digraph) -> FormulaBreakdown:
    """Closed form for the arc-strong connectivity of the product of two strong digraphs.

    The value is the minimum of four terms: each factor's connectivity scaled
    by the other factor's order, the sum of minimum out-degrees, and the sum
    of minimum in-degrees.
    """
    _require_strong_factor("first", g)
    _require_strong_factor("second", h)
    rep_g = arc_connectivity(g)
    rep_h = arc_connectivity(h)
    terms = {
        "g-scaled": rep_g.value * h.n,
        "h-scaled": rep_h.value * g.n,
        "out-degrees": rep_g.delta_out + rep_h.delta_out,
        "in-degrees": rep_g.delta_in + rep_h.delta_in,
    }
    value = min(terms.values())
    argmin = tuple(name for name, term in terms.items() if term == value)
    return FormulaBreakdown(
        lambda_g=rep_g.value,
        lambda_h=rep_h.value,
        term_g_scaled=terms["g-scaled"],
        term_h_scaled=terms["h-scaled"],
        term_out=terms["out-degrees"],
        term_in=terms["in-degrees"],
        value=value,
        argmin=argmin,
    )


@dataclass(frozen=True)
class FormulaCheck:
    """Comparison of the four-term formula against a flow computation."""

    holds: bool
    formula: FormulaBreakdown
    computed: int
    cut_ok: bool


def check_product_formula(g: Digraph, h: Digraph) -> FormulaCheck:
    """Check the four-term formula against the product's actual connectivity.

    The actual value comes from max-flow; the reported minimum cut is
    re-verified by deletion.  ``holds`` requires both the equality and a
    sound cut of matching size.
    """
    breakdown = product_lambda_formula(g, h)
    prod = cartesian_product(g, h)
    report = arc_connectivity(prod.digraph)
    cut_ok = len(report.min_cut) == report.value and verify_cut(prod.digraph, report.min_cut)
    holds = breakdown.value == report.value and cut_ok
    return FormulaCheck(holds=holds, formula=breakdown, computed=report.value, cut_ok=cut_ok)


# ---------------------------------------------------------------------------
# Undirected companion formula and the bidirected-product identity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UndirectedFormula:
    """Three-term edge-connectivity formula for an undirected Cartesian product."""

    value: int
    term_g_scaled: int
    term_h_scaled: int
    term_degree: int
    argmin: tuple[str, ...]


def undirected_product_lambda(
    n_g: int,
    edges_g: tuple[tuple[int, int], ...],
    n_h: int,
    edges_h: tuple[tuple[int, int], ...],
) -> UndirectedFormula:
    """Edge connectivity of the Cartesian product of two connected graphs.

    Graphs are given as orders plus edge lists.  The value is the minimum of
    three terms: each factor's edge connectivity scaled by the other factor's
    order, and the sum of minimum degrees.
    """
    bg = biorient(n_g, edges_g)
    bh = biorient(n_h, edges_h)
    for name, b in (("first", bg), ("second", bh)):
        if b.n < 2:
            raise DigraphError(f"{name} graph must have at least 2 vertices, got {b.n}")
        if not is_strong(b):
            raise DigraphError(f"{name} graph must be connected")
    lam_g = arc_connectivity(bg).value
    lam_h = arc_connectivity(bh).value
    deg_g = min(bg.out_degree(v) for v in range(n_g))
    deg_h = min(bh.out_degree(v) for v in range(n_h))
    terms = {
        "g-scaled": lam_g * n_h,
        "h-scaled": lam_h * n_g,
        "degrees": deg_g + deg_h,
    }
    value = min(terms.values())
    argmin = tuple(name for name, term in terms.items() if term == value)
    return UndirectedFormula(
        value=value,
        term_g_scaled=terms["g-scaled"],
        term_h_scaled=terms["h-scaled"],
        term_degree=terms["degrees"],
        argmin=argmin,
    )


@dataclass(frozen=True)
class SymmetricIdentityCheck:
    """For bidirected factors the pair-packing number collapses to the formula.

    Three routes must agree: the undirected three-term formula, the directed
    four-term formula on the biorientations, and the pair-packing number
    computed by search on the bidirected product.
    """

    holds: bool
    undirected_value: int
    directed_value: int
    observed_lambda2: int


def check_symmetric_identity(
    n_g: int,
    edges_g: tuple[tuple[int, int], ...],
    n_h: int,
    edges_h: tuple[tuple[int, int], ...],
) -> SymmetricIdentityCheck:
    """Check that the bidirected product's pair-packing number equals the formula."""
    und = undirected_product_lambda(n_g, edges_g, n_h, edges_h)
    bg = biorient(n_g, edges_g)
    bh = biorient(n_h, edges_h)
    directed = product_lambda_formula(bg, bh).value
    prod = cartesian_product(bg, bh)
    observed = lambda_2(prod.digraph).value
    holds = und.value == directed == observed
    return SymmetricIdentityCheck(
        holds=holds,
        undirected_value=und.value,
        directed_value=directed,
        observed_lambda2=observed,
    )


def all_connected_graphs(n: int) -> list[tuple[tuple[int, int], ...]]:
    """All labeled connected graphs on ``n`` vertices, as sorted edge tuples.

    Enumerates every subset of the possible edges, so cost grows as
    ``2 ** (n choose 2)``; intended for small ``n``.
    """
    if n < 1:
        raise DigraphError(f"order must be positive, got {n}")
    candidates = list(combinations(range(n), 2))
    found: list[tuple[tuple[int, int], ...]] = []
    for bits in range(1 << len(candidates)):
        edges = tuple(e for k, e in enumerate(candidates) if bits >> k & 1)
        if is_strong(biorient(n, edges)):
            found.append(edges)
    return found


# ---------------------------------------------------------------------------
# Sandwich bounds for the pair-packing number of a product
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundsReport:
    """Sandwich bounds lambda2(G) + lambda2(H) - 1 <= lambda2(product) <= formula."""

    lower: int
    upper: int
    lambda2_g: int
    lambda2_h: int
    observed: int | None
    lower_tight: bool | None
    upper_tight: bool | None
    sandwich_ok: bool | None


def check_bounds(g: Digraph, h: Digraph, compute_exact: bool = True) -> BoundsReport:
    """Evaluate both bounds; with ``compute_exact`` also settle the product by search."""
    upper = product_lambda_formula(g, h).value
    g2 = lambda_2(g).value
    h2 = lambda_2(h).value
    lower = g2 + h2 - 1
    if not compute_exact:
        return BoundsReport(lower, upper, g2, h2, None, None, None, None)
    prod = cartesian_product(g, h)
    observed = lambda_2(prod.digraph).value
    return BoundsReport(
        lower=lower,
        upper=upper,
        lambda2_g=g2,
        lambda2_h=h2,
        observed=observed,
        lower_tight=observed == lower,
        upper_tight=observed == upper,
        sandwich_ok=lower <= observed <= upper,
    )


# ---------------------------------------------------------------------------
# Exact pair-packing values for products of standard classes
# ---------------------------------------------------------------------------

CLASS_TOKENS = ("cn", "bcm", "btm", "bkm")

_CLASS_MIN = {"cn": 3, "bcm": 3, "btm": 2, "bkm": 2}

_CLASS_TABLE = {
    ("cn", "cn"): lambda n, m: 2,
    ("cn", "bcm"): lambda n, m: 3,
    ("cn", "btm"): lambda n, m: 2,
    ("cn", "bkm"): lambda n, m: m,
    ("bcm", "cn"): lambda n, m: 3,
    ("bcm", "bcm"): lambda n, m: 4,
    ("bcm", "btm"): lambda n, m: 3,
    ("bcm", "bkm"): lambda n, m: m + 1,
    ("btm", "cn"): lambda n, m: 2,
    ("btm", "bcm"): lambda n, m: 3,
    ("btm", "btm"): lambda n, m: 2,
    ("btm", "bkm"): lambda n, m: m,
    ("bkm", "cn"): lambda n, m: n,
    ("bkm", "bcm"): lambda n, m: n + 1,
    ("bkm", "btm"): lambda n, m: n,
    ("bkm", "bkm"): lambda n, m: n + m - 2,
}


def class_table_value(row: str, col: str, n: int, m: int) -> int:
    """Exact pair-packing number for a product of two standard-class digraphs.

    ``row``/``col`` name the first/second factor class: ``cn`` directed cycle,
    ``bcm`` bidirected cycle, ``btm`` bidirected tree, ``bkm`` bidirected
    complete digraph.  ``n``/``m`` are the factor orders.  Tree entries do not
    depend on the tree's shape.
    """
    if row not in CLASS_TOKENS or col not in CLASS_TOKENS:
        raise DigraphError(f"unknown class pair ({row!r}, {col!r}); classes are {CLASS_TOKENS}")
    if n < _CLASS_MIN[row]:
        raise DigraphError(f"class {row!r} needs order >= {_CLASS_MIN[row]}, got {n}")
    if m < _CLASS_MIN[col]:
        raise DigraphError(f"class {col!r} needs order >= {_CLASS_MIN[col]}, got {m}")
    return _CLASS_TABLE[(row, col)](n, m)


def class_digraph(cls: str, order: int, tree: TreeShape | None = None) -> Digraph:
    """Instantiate one of the standard classes used by :func:`class_table_value`."""
    if cls not in CLASS_TOKENS:
        raise DigraphError(f"unknown class {cls!r}; classes are {CLASS_TOKENS}")
    if order < _CLASS_MIN[cls]:
        raise DigraphError(f"class {cls!r} needs order >= {_CLASS_MIN[cls]}, got {order}")
    if cls == "cn":
        return directed_cycle(order)
    if cls == "bcm":
        return bidirected_cycle(order)
    if cls == "bkm":
        return complete_digraph(order)
    shape = tree if tree is not None else TreeShape("path", order)
    if shape.order != order:
        raise DigraphError(f"tree shape order {shape.order} does not match requested order {order}")
    return bidirected_tree(shape)


# ---------------------------------------------------------------------------
# Small path/cycle helpers shared by the closed-form families
# ---------------------------------------------------------------------------


def _cycle_seq(order: int, a: int, b: int, step: int) -> tuple[int, ...]:
    """Vertex sequence from ``a`` to ``b`` around a cycle, stepping by +/-1."""
    seq = [a]
    v = a
    while v != b:
        v = (v + step) % order
        seq.append(v)
    return tuple(seq)


def _one_way_path_arcs(seq: tuple[int, ...]) -> tuple[Arc, ...]:
    return tuple(zip(seq, seq[1:]))


def _bidir_path_arcs(seq: tuple[int, ...]) -> tuple[Arc, ...]:
    arcs: list[Arc] = []
    for a, b in zip(seq, seq[1:]):
        arcs.append((a, b))
        arcs.append((b, a))
    return tuple(arcs)


def _full_cycle_arcs(order: int) -> tuple[Arc, ...]:
    return tuple((v, (v + 1) % order) for v in range(order))


def _digon(a: int, b: int) -> tuple[Arc, Arc]:
    return ((a, b), (b, a))


def _tree_path_seq(t: Digraph, a: int, b: int) -> tuple[int, ...]:
    """Vertex sequence of the unique tree path from ``a`` to ``b``."""
    parent = {a: a}
    queue = deque([a])
    while queue and b not in parent:
        v = queue.popleft()
        for nxt in t.out_adj[v]:
            if nxt not in parent:
                parent[nxt] = v
                queue.append(nxt)
    if b not in parent:
        raise DigraphError(f"no path between {a} and {b}")
    seq = [b]
    while seq[-1] != a:
        seq.append(parent[seq[-1]])
    return tuple(reversed(seq))


def _positions(
    p: ProductDigraph, x_pos: tuple[int, int], y_pos: tuple[int, int]
) -> tuple[int, int]:
    x = p.encode(*x_pos)
    y = p.encode(*y_pos)
    if x == y:
        raise DigraphError(f"seed positions must be distinct, got {x_pos} twice")
    return x, y


def _sealed_family(
    p: ProductDigraph,
    x: int,
    y: int,
    members: tuple[frozenset[Arc], ...],
    size: int,
    origin: str,
) -> CertificateFamily:
    """Package members into a family and insist it verifies at the stated size."""
    fam = CertificateFamily(
        n=p.digraph.n,
        seed=(min(x, y), max(x, y)),
        members=tuple(frozenset(m) for m in members),
        origin=origin,
    )
    report = verify_certificate(p.digraph, fam)
    if not report.valid:
        raise ConstructionError(f"built family failed verification (origin={origin!r})")
    if len(fam.members) != size:
        raise ConstructionError(
            f"built {len(fam.members)} members, expected {size} (origin={origin!r})"
        )
    return fam


def _solver_family(p: ProductDigraph, x: int, y: int, size: int) -> CertificateFamily:
    """Fallback for seed positions the closed forms do not cover: search, then trim."""
    return _sealed_family(p, x, y, _factor_family(p.digraph, (x, y), size)[:size], size, "solver")


# ---------------------------------------------------------------------------
# Closed-form families, one per product class
# ---------------------------------------------------------------------------


def cycle_cycle_family(
    n: int, m: int, x_pos: tuple[int, int], y_pos: tuple[int, int]
) -> tuple[ProductDigraph, CertificateFamily]:
    """Two arc-disjoint seed-strong subgraphs in a product of directed cycles.

    For seeds in distinct rows and columns the members are two complementary
    closed cycles through both seeds; row- or column-aligned seeds fall back
    to search.  The pair-packing number of this product is exactly 2.
    """
    p = cartesian_product(directed_cycle(n), directed_cycle(m))
    if n < 3 or m < 3:
        raise DigraphError(f"cycle factors need order >= 3, got {n} and {m}")
    x, y = _positions(p, x_pos, y_pos)
    (r1, c1), (r2, c2) = x_pos, y_pos
    if r1 == r2 or c1 == c2:
        return p, _solver_family(p, x, y, 2)
    if (r2 - r1) % n == 1 and (c2 - c1) % m == 1 and n >= 4:
        members = _cycle_cycle_adjacent(p, n, m, r1, c1)
    else:
        members = _cycle_cycle_rectangle(p, n, m, r1, c1, r2, c2)
    return p, _sealed_family(p, x, y, members, 2, "construction")


def _row_path(p: ProductDigraph, m: int, i: int, a: int, b: int) -> frozenset[Arc]:
    return lift_h_arcs(p, _one_way_path_arcs(_cycle_seq(m, a, b, 1)), i)


def _col_path(p: ProductDigraph, n: int, j: int, a: int, b: int) -> frozenset[Arc]:
    return lift_g_arcs(p, _one_way_path_arcs(_cycle_seq(n, a, b, 1)), j)


def _cycle_cycle_rectangle(
    p: ProductDigraph, n: int, m: int, r1: int, c1: int, r2: int, c2: int
) -> tuple[frozenset[Arc], ...]:
    """Split rows r1, r2 and columns c1, c2 into two complementary closed cycles."""
    d1 = (
        _row_path(p, m, r1, c1, c2)
        | _col_path(p, n, c2, r1, r2)
        | _row_path(p, m, r2, c2, c1)
        | _col_path(p, n, c1, r2, r1)
    )
    d2 = (
        _col_path(p, n, c1, r1, r2)
        | _row_path(p, m, r2, c1, c2)
        | _col_path(p, n, c2, r2, r1)
        | _row_path(p, m, r1, c2, c1)
    )
    return (frozenset(d1), frozenset(d2))


def _cycle_cycle_adjacent(
    p: ProductDigraph, n: int, m: int, r1: int, c1: int
) -> tuple[frozenset[Arc], ...]:
    """Diagonally adjacent seeds: two closed cycles that reuse only four lines.

    Requires ``n >= 4``; the second member routes through rows ``r1 - 1`` and
    ``r1 - 2``, which must be distinct from both seed rows.
    """
    r2, c2 = (r1 + 1) % n, (c1 + 1) % m
    rd, cd = (r1 - 2) % n, (c1 - 1) % m
    d1 = (
        _row_path(p, m, r1, c1, c2)
        | _row_path(p, m, r1, cd, c1)
        | _col_path(p, n, c2, r1, r2)
        | _row_path(p, m, r2, c2, cd)
        | _col_path(p, n, cd, r2, r1)
    )
    d2 = (
        _col_path(p, n, c1, r1, r2)
        | _col_path(p, n, c1, rd, r1)
        | _row_path(p, m, r2, c1, c2)
        | _col_path(p, n, c2, r2, rd)
        | _row_path(p, m, rd, c2, c1)
    )
    return (frozenset(d1), frozenset(d2))


def cycle_bicycle_family(
    n: int, m: int, x_pos: tuple[int, int], y_pos: tuple[int, int]
) -> tuple[ProductDigraph, CertificateFamily]:
    """Three arc-disjoint seed-strong subgraphs in (directed cycle) x (bidirected cycle).

    The two sides of the undirected cycle between the seed columns are split
    between the members; the longer side donates its first vertex as a third
    column.  The pair-packing number of this product is exactly 3.
    """
    if n < 3 or m < 3:
        raise DigraphError(f"cycle factors need order >= 3, got {n} and {m}")
    p = cartesian_product(directed_cycle(n), bidirected_cycle(m))
    x, y = _positions(p, x_pos, y_pos)
    (r1, c1), (r2, c2) = x_pos, y_pos
    if r1 == r2 or c1 == c2:
        return p, _solver_family(p, x, y, 3)
    if (c1 - c2) % m >= 2:
        side_a = _cycle_seq(m, c1, c2, 1)
        side_b = _cycle_seq(m, c1, c2, -1)
    else:
        side_a = _cycle_seq(m, c1, c2, -1)
        side_b = _cycle_seq(m, c1, c2, 1)
    w = side_b[1]
    col = lambda j: lift_g_arcs(p, _full_cycle_arcs(n), j)
    row = lambda seq, i: lift_h_arcs(p, _bidir_path_arcs(seq), i)
    d1 = col(c2) | row(side_a, r1)
    d2 = col(c1) | row(side_a, r2)
    d3 = row(side_b[:2], r1) | col(w) | row(side_b[1:], r2)
    members = (frozenset(d1), frozenset(d2), frozenset(d3))
    return p, _sealed_family(p, x, y, members, 3, "construction")


def cycle_tree_family(
    n: int, shape: TreeShape, x_pos: tuple[int, int], y_pos: tuple[int, int]
) -> tuple[ProductDigraph, CertificateFamily]:
    """Two arc-disjoint seed-strong subgraphs in (directed cycle) x (bidirected tree).

    Each member pairs one orientation of the tree path between the seed
    columns with complementary halves of the two seed-column cycles.  The
    pair-packing number of this product is exactly 2.
    """
    if n < 3:
        raise DigraphError(f"cycle factor needs order >= 3, got {n}")
    tree = bidirected_tree(shape)
    p = cartesian_product(directed_cycle(n), tree)
    x, y = _positions(p, x_pos, y_pos)
    (r1, c1), (r2, c2) = x_pos, y_pos
    if r1 == r2 or c1 == c2:
        return p, _solver_family(p, x, y, 2)
    seq = _tree_path_seq(tree, c1, c2)
    forward = _one_way_path_arcs(seq)
    reverse = _one_way_path_arcs(tuple(reversed(seq)))
    d1 = (
        _col_path(p, n, c1, r1, r2)
        | lift_h_arcs(p, forward, r2)
        | _col_path(p, n, c2, r2, r1)
        | lift_h_arcs(p, reverse, r1)
    )
    d2 = (
        lift_h_arcs(p, forward, r1)
        | _col_path(p, n, c2, r1, r2)
        | lift_h_arcs(p, reverse, r2)
        | _col_path(p, n, c1, r2, r1)
    )
    members = (frozenset(d1), frozenset(d2))
    return p, _sealed_family(p, x, y, members, 2, "construction")


def cycle_complete_family(
    n: int, m: int, x_pos: tuple[int, int], y_pos: tuple[int, int]
) -> tuple[ProductDigraph, CertificateFamily]:
    """m arc-disjoint seed-strong subgraphs in (directed cycle) x (bidirected complete).

    Two members pair the seed-column cycles with the digon between the seed
    columns; every remaining column contributes one member that reaches the
    seeds through digons at the seed rows.  The pair-packing number of this
    product is exactly ``m``.
    """
    if n < 3:
        raise DigraphError(f"cycle factor needs order >= 3, got {n}")
    if m < 2:
        raise DigraphError(f"complete factor needs order >= 2, got {m}")
    p = cartesian_product(directed_cycle(n), complete_digraph(m))
    x, y = _positions(p, x_pos, y_pos)
    (r1, c1), (r2, c2) = x_pos, y_pos
    if r1 == r2 or c1 == c2:
        return p, _solver_family(p, x, y, m)
    col = lambda j: lift_g_arcs(p, _full_cycle_arcs(n), j)
    members = [
        frozenset(lift_h_arcs(p, _digon(c1, c2), r1) | col(c2)),
        frozenset(col(c1) | lift_h_arcs(p, _digon(c1, c2), r2)),
    ]
    for j in range(m):
        if j in (c1, c2):
            continue
        members.append(
            frozenset(
                lift_h_arcs(p, _digon(c1, j), r1)
                | col(j)
                | lift_h_arcs(p, _digon(c2, j), r2)
            )
        )
    return p, _sealed_family(p, x, y, tuple(members), m, "construction")


# ---------------------------------------------------------------------------
# Lifting factor families to the product
# ---------------------------------------------------------------------------


def _factor_family(d: Digraph, pair: tuple[int, int], need: int) -> tuple[frozenset[Arc], ...]:
    # the search itself, not ``lambda_s_exact``: every caller verifies the lifted or sealed family
    result = _exact(d, _ArcTables(d), *_validate_pair(d, pair))
    if result.value < need:
        raise ConstructionError(
            f"packing for seed {pair} gave {result.value} members, expected >= {need}"
        )
    return result.witness.members


def _choose_branches(
    members: tuple[frozenset[Arc], ...], v: int, avoid: int | None
) -> list[int]:
    """Pick one out-neighbor of ``v`` per member, dodging ``avoid`` when possible.

    Members are arc-disjoint, so their out-neighbor sets at ``v`` are
    disjoint and the picks are automatically distinct.
    """
    picks: list[int] = []
    for member in members:
        outs = sorted(b for a, b in member if a == v)
        if not outs:
            raise ConstructionError(f"member has no arc leaving vertex {v}")
        pick = next((b for b in outs if b != avoid), outs[0])
        picks.append(pick)
    if len(set(picks)) != len(picks):
        raise ConstructionError(f"branch vertices at {v} are not distinct: {picks}")
    return picks


def lift_certificates(
    g: Digraph, h: Digraph, x_pos: tuple[int, int], y_pos: tuple[int, int]
) -> tuple[ProductDigraph, CertificateFamily]:
    """Lift factor certificate families to the product for an arbitrary seed pair.

    Produces at least ``lambda2(g) + lambda2(h) - 1`` arc-disjoint seed-strong
    subgraphs of the product, which is why that expression lower-bounds the
    product's pair-packing number.  Seeds sharing a row or column always get
    the full ``lambda2(g) + lambda2(h)`` members; in general position one
    member is dropped only when both factor families are forced to branch
    through the opposite seed line and no spare member is available.
    """
    _require_strong_factor("first", g)
    _require_strong_factor("second", h)
    p = cartesian_product(g, h)
    x, y = _positions(p, x_pos, y_pos)
    (r1, c1), (r2, c2) = x_pos, y_pos
    g2 = lambda_2(g).value
    h2 = lambda_2(h).value
    lower = g2 + h2 - 1
    if r1 == r2:
        members = _lift_same_row(p, g, h, r1, c1, c2, g2, h2)
    elif c1 == c2:
        members = _lift_same_col(p, g, h, c1, r1, r2, g2, h2)
    else:
        members = _lift_general(p, g, h, r1, c1, r2, c2, g2, h2)
    fam = CertificateFamily(
        n=p.digraph.n,
        seed=(min(x, y), max(x, y)),
        members=tuple(members),
        origin="lift",
    )
    report = verify_certificate(p.digraph, fam)
    if not report.valid:
        raise ConstructionError("lifted family failed verification")
    if len(fam.members) < lower:
        raise ConstructionError(
            f"lifted family has {len(fam.members)} members, needs >= {lower}"
        )
    return p, fam


def _g_block(p: ProductDigraph, arcs: frozenset[Arc], c_from: int, c_to: int) -> frozenset[Arc]:
    """Copies of a first-factor arc set in two columns."""
    return lift_g_arcs(p, arcs, c_from) | lift_g_arcs(p, arcs, c_to)


def _h_block(p: ProductDigraph, arcs: frozenset[Arc], r_from: int, r_to: int) -> frozenset[Arc]:
    """Copies of a second-factor arc set in two rows."""
    return lift_h_arcs(p, arcs, r_from) | lift_h_arcs(p, arcs, r_to)


def _lift_same_row(
    p: ProductDigraph, g: Digraph, h: Digraph, r: int, c1: int, c2: int, g2: int, h2: int
) -> tuple[frozenset[Arc], ...]:
    """Seeds share row ``r``: copy h-members there, bridge g-members elsewhere."""
    r_other = 0 if r != 0 else 1
    g_members = _factor_family(g, (r, r_other), g2)[:g2]
    h_members = _factor_family(h, (c1, c2), h2)
    branches = _choose_branches(g_members, r, avoid=None)
    members = [frozenset(lift_h_arcs(p, h_members[j], r)) for j in range(h2)]
    for i in range(g2):
        bridge = lift_h_arcs(p, h_members[0], branches[i])
        members.append(frozenset(_g_block(p, g_members[i], c1, c2) | bridge))
    return tuple(members)


def _lift_same_col(
    p: ProductDigraph, g: Digraph, h: Digraph, c: int, r1: int, r2: int, g2: int, h2: int
) -> tuple[frozenset[Arc], ...]:
    """Seeds share column ``c``: copy g-members there, bridge h-members elsewhere."""
    c_other = 0 if c != 0 else 1
    g_members = _factor_family(g, (r1, r2), g2)
    h_members = _factor_family(h, (c, c_other), h2)[:h2]
    branches = _choose_branches(h_members, c, avoid=None)
    members = [frozenset(lift_g_arcs(p, g_members[i], c)) for i in range(g2)]
    for j in range(h2):
        bridge = lift_g_arcs(p, g_members[0], branches[j])
        members.append(frozenset(_h_block(p, h_members[j], r1, r2) | bridge))
    return tuple(members)


def _lift_general(
    p: ProductDigraph,
    g: Digraph,
    h: Digraph,
    r1: int,
    c1: int,
    r2: int,
    c2: int,
    g2: int,
    h2: int,
) -> tuple[frozenset[Arc], ...]:
    """Seeds in general position: bridge each factor family through the other.

    Each g-side member pairs its two seed-column copies with one row bridge;
    branch rows are distinct because the factor members are arc-disjoint, so
    collisions can only involve the seed lines themselves.  A g-side member
    forced to bridge through row ``r2`` collides exactly with the h-side
    member whose bridge template it shares (and symmetrically), which is
    repaired by swapping halves, substituting a spare member, or dropping
    one member.
    """
    g_all = _factor_family(g, (r1, r2), g2)
    h_all = _factor_family(h, (c1, c2), h2)
    g_members = g_all[:g2]
    h_members = h_all[:h2]
    rows = _choose_branches(g_members, r1, avoid=r2)
    cols = _choose_branches(h_members, c1, avoid=c2)
    forced_g = next((i for i, t in enumerate(rows) if t == r2), None)
    forced_h = next((j for j, w in enumerate(cols) if w == c2), None)

    def g_side(i: int, bridge_arcs: frozenset[Arc]) -> frozenset[Arc]:
        return frozenset(
            _g_block(p, g_members[i], c1, c2) | lift_h_arcs(p, bridge_arcs, rows[i])
        )

    def h_side(j: int, bridge_arcs: frozenset[Arc]) -> frozenset[Arc]:
        return frozenset(
            _h_block(p, h_members[j], r1, r2) | lift_g_arcs(p, bridge_arcs, cols[j])
        )

    if forced_g is not None and forced_h is not None:
        swapped_g = frozenset(
            lift_g_arcs(p, g_members[forced_g], c1)
            | lift_h_arcs(p, h_members[forced_h], r2)
        )
        swapped_h = frozenset(
            lift_h_arcs(p, h_members[forced_h], r1)
            | lift_g_arcs(p, g_members[forced_g], c2)
        )
        members = [
            swapped_g if i == forced_g else g_side(i, h_members[0]) for i in range(g2)
        ]
        members += [
            swapped_h if j == forced_h else h_side(j, g_members[0]) for j in range(h2)
        ]
        return tuple(members)

    if forced_g is not None:
        if len(h_all) > h2:
            members = [
                g_side(i, h_all[h2] if i == forced_g else h_members[0])
                for i in range(g2)
            ]
            members += [h_side(j, g_members[0]) for j in range(h2)]
        else:
            members = [g_side(i, h_members[0]) for i in range(g2)]
            members += [h_side(j, g_members[0]) for j in range(1, h2)]
        return tuple(members)

    if forced_h is not None:
        if len(g_all) > g2:
            members = [g_side(i, h_members[0]) for i in range(g2)]
            members += [
                h_side(j, g_all[g2] if j == forced_h else g_members[0])
                for j in range(h2)
            ]
        else:
            members = [g_side(i, h_members[0]) for i in range(1, g2)]
            members += [h_side(j, g_members[0]) for j in range(h2)]
        return tuple(members)

    members = [g_side(i, h_members[0]) for i in range(g2)]
    members += [h_side(j, g_members[0]) for j in range(h2)]
    return tuple(members)


# ---------------------------------------------------------------------------
# Randomized hunt for products that pin the lower bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HuntConfig:
    """Settings for the randomized tightness hunt."""

    trials: int
    max_order: int = 4
    extra_arc_prob: float = 0.25
    seed: int = 0


@dataclass(frozen=True)
class HuntHit:
    """One random product whose pair-packing number meets the lower bound."""

    trial: int
    g: Digraph
    h: Digraph
    lower: int
    observed: int
    upper: int
    pair: tuple[int, int]
    witness: CertificateFamily


@dataclass(frozen=True)
class HuntReport:
    """Tally of observed slack above the lower bound across random products."""

    trials: int
    sandwich_ok: bool
    gap_counts: tuple[tuple[int, int], ...]
    hits: tuple[HuntHit, ...]


def _validate_trials(trials: int, max_order: int) -> None:
    """Reject the settings of a randomized run that would do nothing sensible."""
    if trials < 0:
        raise DigraphError(f"trials must be nonnegative, got {trials}")
    if max_order < 2:
        raise DigraphError(f"max order must be at least 2, got {max_order}")


def hunt_tightness(config: HuntConfig) -> HuntReport:
    """Sample random strong factor pairs, looking for products that meet the lower bound.

    For each trial the gap ``lambda2(product) - lower`` is tallied;
    zero-gap trials are returned in full with their optimal pair and
    witness family.  ``sandwich_ok`` confirms every trial stayed inside
    both bounds.
    """
    _validate_trials(config.trials, config.max_order)
    if not 0 <= config.extra_arc_prob <= 1:
        raise DigraphError(f"extra arc probability must lie in [0, 1], got {config.extra_arc_prob}")
    rng = random.Random(config.seed)
    tally: dict[int, int] = {}
    hits: list[HuntHit] = []
    sandwich_ok = True
    for trial in range(config.trials):
        n_g = rng.randint(2, config.max_order)
        n_h = rng.randint(2, config.max_order)
        g = random_strong_digraph(n_g, rng.random() * config.extra_arc_prob, rng.getrandbits(32))
        h = random_strong_digraph(n_h, rng.random() * config.extra_arc_prob, rng.getrandbits(32))
        lower = lambda_2(g).value + lambda_2(h).value - 1
        upper = product_lambda_formula(g, h).value
        prod = cartesian_product(g, h)
        result = lambda_2(prod.digraph)
        if not lower <= result.value <= upper:
            sandwich_ok = False
        gap = result.value - lower
        tally[gap] = tally.get(gap, 0) + 1
        if gap == 0:
            hits.append(
                HuntHit(
                    trial=trial,
                    g=g,
                    h=h,
                    lower=lower,
                    observed=result.value,
                    upper=upper,
                    pair=result.pair,
                    witness=result.witness,
                )
            )
    return HuntReport(
        trials=config.trials,
        sandwich_ok=sandwich_ok,
        gap_counts=tuple(sorted(tally.items())),
        hits=tuple(hits),
    )
