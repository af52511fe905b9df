"""Connectivity of Cartesian products: the formula, certificate families, bounds.

Each result has one routine.  Xu and Yang's edge-connectivity formula for
undirected products is the four-term formula on biorientations, where
``δ⁺ = δ⁻ = δ``; the closed-form families share one seed dispatcher.

Conventions used throughout: the product of ``g`` (order ``n``) and ``h``
(order ``m``) has vertices ``encode(i, j) = i * m + j``.  We call the copy of
``g`` at fixed second coordinate ``j`` "column j" and the copy of ``h`` at
fixed first coordinate ``i`` "row i".  Seed positions are coordinate pairs
``(i, j)``.
"""

from __future__ import annotations

import random
from collections import deque
from functools import partial
from itertools import combinations
from math import inf
from typing import Callable, Iterable, NamedTuple, TypeVar

from .digraph import Arc, Digraph, DigraphError, biorient, is_strong, is_symmetric
from .flow import ConnectivityReport, arc_connectivity
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
    Lambda2Result,
    _ArcTables,
    _exact,
    _lambda_2,
    _search_sweep,
    _validate_pair,
    lambda_2,
    verify_certificate,
)
from .product import ProductDigraph, cartesian_product, lift_g_arcs, lift_h_arcs


# ``lift_g_arcs`` or ``lift_h_arcs``: a factor's arcs copied onto one line of the product
_LiftArcs = Callable[[ProductDigraph, Iterable[Arc], int], frozenset[Arc]]


class ConstructionError(RuntimeError):
    """A certificate family could not be built or failed its own verification."""


# ---------------------------------------------------------------------------
# Four-term formula for the arc-strong connectivity of a product
# ---------------------------------------------------------------------------


class FormulaBreakdown(NamedTuple):
    """The four candidate terms for the product's arc-strong connectivity."""

    lambda_g: int
    lambda_h: int
    term_g_scaled: int
    term_h_scaled: int
    term_out: int
    term_in: int
    value: int
    argmin: tuple[str, ...]


_Measured = TypeVar("_Measured")


def _strong_factor(what: str, d: Digraph, measure: Callable[[Digraph], _Measured]) -> _Measured:
    """``measure(d)``, insisting that ``d`` has two or more vertices and is strong.

    ``measure`` is ``arc_connectivity`` or ``lambda_2``; on two or more
    vertices each is 0 exactly when ``d`` is not strong, so its value
    decides strongness and no separate search runs.
    """
    if d.n < 2:
        raise DigraphError(f"{what} must have at least 2 vertices, got {d.n}")
    result = measure(d)
    if result.value == 0:
        raise DigraphError(f"{what} must be strong")
    return result


def product_lambda_formula(g: Digraph, h: Digraph) -> FormulaBreakdown:
    """Closed form for the arc-strong connectivity of the product of two strong digraphs.

    The value is the minimum of four terms: each factor's connectivity scaled
    by the other factor's order, the sum of minimum out-degrees, and the sum
    of minimum in-degrees.  On biorientations it is Xu and Yang's formula.
    """
    rep_g = _strong_factor("first factor", g, arc_connectivity)
    rep_h = _strong_factor("second factor", h, arc_connectivity)
    return _formula(g.n, rep_g, h.n, rep_h)


def _formula(n: int, rep_g: ConnectivityReport, m: int, rep_h: ConnectivityReport) -> FormulaBreakdown:
    """The four-term formula for factors of orders ``n`` and ``m`` with these connectivity reports."""
    terms = {
        "g-scaled": rep_g.value * m,
        "h-scaled": rep_h.value * n,
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


class FormulaCheck(NamedTuple):
    """Comparison of the four-term formula against a flow computation.

    ``cut_ok`` is always True: ``arc_connectivity`` raises unless its
    witness cut has ``computed`` arcs and deleting it leaves the product
    not strong.
    """

    holds: bool
    formula: FormulaBreakdown
    computed: int
    cut_ok: bool


def check_product_formula(g: Digraph, h: Digraph) -> FormulaCheck:
    """Check the four-term formula against the product's actual connectivity.

    The actual value comes from ``arc_connectivity``: the minimum degree,
    lowered by the capped link flows of the Schnorr cycle through a
    bi-dominating vertex set X of the product, at most ``|X|`` flows.  It
    verifies its witness cut by deletion before it returns; when no link
    went below the degrees, that cut is the arcs at a least-degree vertex.
    ``holds`` is the equality.
    """
    breakdown = product_lambda_formula(g, h)
    report = arc_connectivity(cartesian_product(g, h).digraph)
    holds = breakdown.value == report.value
    return FormulaCheck(holds=holds, formula=breakdown, computed=report.value, cut_ok=True)


# ---------------------------------------------------------------------------
# The bidirected-product identity (Xu–Yang as the biorientation case)
# ---------------------------------------------------------------------------


class SymmetricIdentityCheck(NamedTuple):
    """For bidirected factors the pair-packing number collapses to the formula.

    Two routes must agree: the four-term formula on the biorientations, which
    is Xu and Yang's edge-connectivity formula there since ``δ⁺ = δ⁻ = δ``,
    and the pair-packing number computed by search on the bidirected product.
    """

    holds: bool
    formula_value: int
    observed_lambda2: int


def check_symmetric_identity(
    bg: Digraph, bh: Digraph, lambda_g: ConnectivityReport, lambda_h: ConnectivityReport
) -> SymmetricIdentityCheck:
    """Check that the bidirected product's pair-packing number equals the formula.

    ``bg`` and ``bh`` are biorientations of connected graphs (see
    ``biorient``) and ``lambda_g``, ``lambda_h`` their ``arc_connectivity``
    reports, so a caller that checks every product of a catalogue runs one
    connectivity computation per graph, not one per product.  The observed
    value comes from the packing search over pair orbits
    (``packing._search_sweep``), not from ``lambda_2``, whose route for
    symmetric digraphs is a flow computation; the check then stays
    independent of the flows the formula rests on.
    """
    rep_g = _strong_factor("first factor", bg, lambda _: lambda_g)
    rep_h = _strong_factor("second factor", bh, lambda _: lambda_h)
    formula = _formula(bg.n, rep_g, bh.n, rep_h).value
    observed = _search_sweep(cartesian_product(bg, bh).digraph).value
    return SymmetricIdentityCheck(formula == observed, formula, observed)


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


class BoundsReport(NamedTuple):
    """Sandwich bounds lambda2(G) + lambda2(H) - 1 <= lambda2(product) <= formula.

    ``pair`` and ``witness`` are the product's least minimizing seed pair
    and its verified packing family.
    """

    lower: int
    upper: int
    lambda2_g: int
    lambda2_h: int
    observed: int
    lower_tight: bool
    upper_tight: bool
    sandwich_ok: bool
    pair: tuple[int, int]
    witness: CertificateFamily


def check_bounds(g: Digraph, h: Digraph) -> BoundsReport:
    """Evaluate both bounds and settle the product's pair-packing number by search.

    Each factor's ``λ₂`` comes from its ``_FactorPackings`` record, which
    the product sweep then reads (see ``_lift_settled_sweep``): value, pair
    and witness are those of ``lambda_2`` on the bare product, and at the
    pairs the sweep skips the sandwich's lower side rests on the lifting
    construction rather than on a search of the product.
    """
    upper = product_lambda_formula(g, h).value
    g_fams, h_fams = _FactorPackings("first factor", g), _FactorPackings("second factor", h)
    g2, h2 = g_fams.least, h_fams.least
    lower = g2 + h2 - 1
    product = _lift_settled_sweep(g_fams, h_fams)
    observed = product.value
    return BoundsReport(
        lower=lower,
        upper=upper,
        lambda2_g=g2,
        lambda2_h=h2,
        observed=observed,
        lower_tight=observed == lower,
        upper_tight=observed == upper,
        sandwich_ok=lower <= observed <= upper,
        pair=product.pair,
        witness=product.witness,
    )


def product_lambda_2(g: Digraph, h: Digraph) -> Lambda2Result:
    """``lambda_2`` of ``g □ h``, skipping the seed pairs the lifting construction settles.

    When both factors pass their ``_FactorPackings`` record (two or more
    vertices, strong), the sweep is ``_lift_settled_sweep``; when the record
    rejects a factor, the bare product goes to ``lambda_2``.  Either way
    the result is the one ``lambda_2`` returns on the bare product.
    """
    try:
        g_fams, h_fams = _FactorPackings("first factor", g), _FactorPackings("second factor", h)
    except DigraphError:
        return lambda_2(cartesian_product(g, h).digraph)
    return _lift_settled_sweep(g_fams, h_fams)


def _lift_settled_sweep(g_fams: _FactorPackings, h_fams: _FactorPackings) -> Lambda2Result:
    """``lambda_2(g □ h)`` from the records of two strong factors.

    A symmetric product keeps the flow route of ``lambda_2``, which runs no
    pair search.  Otherwise ``_search_sweep`` runs with each pair's proven
    lower bound ``L`` taken from the stronger lift (``_lift_bound``, built
    by ``_sealed_lift`` with ``local``): the factors' whole packings at the
    seed lines, bridged on distinct rows and columns, so ``L`` is at least
    ``λ₂(G) + λ₂(H) - 1``, at least that sum off the rare stuck layouts,
    and above it wherever a factor packs more than its ``λ₂`` there.  The
    sweep asks for the bound only as far as its ``need``: below the sum it
    reads nothing, at the sum it searches factor packings only for seeds in
    distinct rows and columns where at least one factor holds the digon on
    the seed lines, and above the sum it reads the records' packing memos,
    each factor pair searched once.  The pair-orbit representatives come
    from the factor digraphs' ``pair_orbits`` tables: built only if the
    sweep gets past ``(0, 1)``, and shared with the factor's own ``λ₂``
    sweep when that built one first.
    """
    g, h = g_fams.d, h_fams.d
    d = cartesian_product(g, h).digraph
    if is_symmetric(g) and is_symmetric(h):
        return lambda_2(d)
    m = h.n

    def lower(x: int, y: int, need: int) -> int:
        return _lift_bound(g_fams, h_fams, *divmod(x, m), *divmod(y, m), need)

    return _search_sweep(d, product=(g, h, lower))


# ---------------------------------------------------------------------------
# Exact pair-packing values for products of standard classes
# ---------------------------------------------------------------------------

CLASS_TOKENS = ("cn", "bcm", "btm", "bkm")

_CLASS_MIN = {"cn": 3, "bcm": 3, "btm": 2, "bkm": 2}

_CLASS_LAMBDA_2 = {"cn": lambda n: 1, "bcm": lambda n: 2, "btm": lambda n: 1, "bkm": lambda n: n - 1}


def class_table_value(row: str, col: str, n: int, m: int) -> int:
    """Exact pair-packing number for a product of two standard-class digraphs.

    ``row``/``col`` name the first/second factor class: ``cn`` directed cycle,
    ``bcm`` bidirected cycle, ``btm`` bidirected tree, ``bkm`` bidirected
    complete digraph.  ``n``/``m`` are the factor orders.  Every entry is the
    sum ``λ₂(G) + λ₂(H)`` of the factors' own values (1 for ``cn``, 2 for
    ``bcm``, 1 for ``btm``, order − 1 for ``bkm``), so these products sit one
    above the paper's lower bound ``λ₂(G) + λ₂(H) − 1``.  Tree entries do not
    depend on the tree's shape.
    """
    if row not in CLASS_TOKENS or col not in CLASS_TOKENS:
        raise DigraphError(f"unknown class pair ({row!r}, {col!r}); classes are {CLASS_TOKENS}")
    if n < _CLASS_MIN[row]:
        raise DigraphError(f"class {row!r} needs order >= {_CLASS_MIN[row]}, got {n}")
    if m < _CLASS_MIN[col]:
        raise DigraphError(f"class {col!r} needs order >= {_CLASS_MIN[col]}, got {m}")
    return _CLASS_LAMBDA_2[row](n) + _CLASS_LAMBDA_2[col](m)


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
    return _one_way_path_arcs(seq) + _one_way_path_arcs(seq[::-1])


def _full_cycle_arcs(order: int) -> tuple[Arc, ...]:
    return tuple((v, (v + 1) % order) for v in range(order))


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


# ---------------------------------------------------------------------------
# Closed-form families, one per product class
# ---------------------------------------------------------------------------


# the members of a closed-form family for seeds in general position: (p, r1, c1, r2, c2) -> members
_Members = Callable[[ProductDigraph, int, int, int, int], tuple[frozenset[Arc], ...]]


def _closed_form(
    g: Digraph,
    h: Digraph,
    x_pos: tuple[int, int],
    y_pos: tuple[int, int],
    size: int,
    members: _Members,
) -> tuple[ProductDigraph, CertificateFamily]:
    """Build ``g □ h`` and a family of ``size`` members for the seeds at ``x_pos``, ``y_pos``.

    Seeds in distinct rows and columns get ``members``; seeds that share a
    row or column fall back to search, trimmed to ``size``.  Either family
    must verify at ``size`` members.  In every family ``size`` is ``λ₂(G) +
    λ₂(H)``, the member count ``lift_certificates`` builds at seeds on one
    line, so the search takes it as a proven floor.
    """
    p = cartesian_product(g, h)
    x, y = _positions(p, x_pos, y_pos)
    (r1, c1), (r2, c2) = x_pos, y_pos
    if r1 == r2 or c1 == c2:
        found, origin = _factor_family(p.digraph, _ArcTables(p.digraph), (x, y), size, floor=size)[:size], "solver"
    else:
        found, origin = members(p, r1, c1, r2, c2), "construction"
    return p, _sealed_family(p, x, y, found, size, origin)


def cycle_cycle_family(
    n: int, m: int, x_pos: tuple[int, int], y_pos: tuple[int, int]
) -> tuple[ProductDigraph, CertificateFamily]:
    """Two arc-disjoint seed-strong subgraphs in a product of directed cycles.

    For seeds in distinct rows and columns the members are the two
    complementary closed walks of ``_rectangle`` on the seed rows and
    columns.  For diagonally adjacent seeds with ``n >= 4`` each member is
    instead taken from a rectangle with one corner moved back: the first
    from the one whose first column is ``c1 - 1``, the second from the one
    whose first row is ``r1 - 2``.  Row- or column-aligned seeds fall back
    to search.  The pair-packing number of this product is exactly 2.
    """
    if n < 3 or m < 3:
        raise DigraphError(f"cycle factors need order >= 3, got {n} and {m}")

    def members(p: ProductDigraph, r1: int, c1: int, r2: int, c2: int) -> tuple[frozenset[Arc], ...]:
        rectangle = partial(_rectangle, partial(_row_path, p, m), partial(_col_path, p, n))
        if (r2 - r1) % n == 1 and (c2 - c1) % m == 1 and n >= 4:
            return rectangle(r1, (c1 - 1) % m, r2, c2)[0], rectangle((r1 - 2) % n, c1, r2, c2)[1]
        return rectangle(r1, c1, r2, c2)

    return _closed_form(directed_cycle(n), directed_cycle(m), x_pos, y_pos, 2, members)


def _row_path(p: ProductDigraph, m: int, i: int, a: int, b: int) -> frozenset[Arc]:
    return lift_h_arcs(p, _one_way_path_arcs(_cycle_seq(m, a, b, 1)), i)


def _col_path(p: ProductDigraph, n: int, j: int, a: int, b: int) -> frozenset[Arc]:
    return lift_g_arcs(p, _one_way_path_arcs(_cycle_seq(n, a, b, 1)), j)


def _rectangle(
    row: Callable[[int, int, int], frozenset[Arc]], col: Callable[[int, int, int], frozenset[Arc]],
    r1: int, c1: int, r2: int, c2: int,
) -> tuple[frozenset[Arc], ...]:
    """Split rows r1, r2 and columns c1, c2 into two complementary closed walks.

    ``row(i, a, b)`` is a path from column ``a`` to column ``b`` in row ``i``,
    ``col(j, a, b)`` one from row ``a`` to row ``b`` in column ``j``.  The first
    member leaves the seed at ``(r1, c1)`` along its row, the second along its
    column.
    """
    return (
        row(r1, c1, c2) | col(c2, r1, r2) | row(r2, c2, c1) | col(c1, r2, r1),
        col(c1, r1, r2) | row(r2, c1, c2) | col(c2, r2, r1) | row(r1, c2, c1),
    )


def cycle_bicycle_family(
    n: int, m: int, x_pos: tuple[int, int], y_pos: tuple[int, int]
) -> tuple[ProductDigraph, CertificateFamily]:
    """Three arc-disjoint seed-strong subgraphs in (directed cycle) x (bidirected cycle).

    The two sides of the undirected cycle between the seed columns are the
    direct path and the one detour of ``_column_detours``.  The side stepping
    down from ``c1`` is the detour, donating its first vertex as a third
    column, unless it is a single arc; then the side stepping up is.  The
    pair-packing number of this product is exactly 3.
    """
    if n < 3 or m < 3:
        raise DigraphError(f"cycle factors need order >= 3, got {n} and {m}")

    def members(p: ProductDigraph, r1: int, c1: int, r2: int, c2: int) -> tuple[frozenset[Arc], ...]:
        up, down = _cycle_seq(m, c1, c2, 1), _cycle_seq(m, c1, c2, -1)
        direct, detour = (up, down) if len(down) > 2 else (down, up)
        return _column_detours(p, n, r1, r2, direct, [detour])

    return _closed_form(directed_cycle(n), bidirected_cycle(m), x_pos, y_pos, 3, members)


def cycle_tree_family(
    n: int, shape: TreeShape, x_pos: tuple[int, int], y_pos: tuple[int, int]
) -> tuple[ProductDigraph, CertificateFamily]:
    """Two arc-disjoint seed-strong subgraphs in (directed cycle) x (bidirected tree).

    Each member pairs one orientation of the tree path between the seed
    columns with complementary halves of the two seed-column cycles (the
    ``_rectangle`` members with tree paths on the rows, in swapped order).
    The pair-packing number of this product is exactly 2.
    """
    if n < 3:
        raise DigraphError(f"cycle factor needs order >= 3, got {n}")
    tree = bidirected_tree(shape)

    def members(p: ProductDigraph, r1: int, c1: int, r2: int, c2: int) -> tuple[frozenset[Arc], ...]:
        seq = _tree_path_seq(tree, c1, c2)
        paths = {(c1, c2): _one_way_path_arcs(seq), (c2, c1): _one_way_path_arcs(seq[::-1])}
        row = lambda i, a, b: lift_h_arcs(p, paths[a, b], i)
        return _rectangle(row, partial(_col_path, p, n), r1, c1, r2, c2)[::-1]

    return _closed_form(directed_cycle(n), tree, x_pos, y_pos, 2, members)


def cycle_complete_family(
    n: int, m: int, x_pos: tuple[int, int], y_pos: tuple[int, int]
) -> tuple[ProductDigraph, CertificateFamily]:
    """m arc-disjoint seed-strong subgraphs in (directed cycle) x (bidirected complete).

    The members are those of ``_column_detours`` with the arc between the
    seed columns as the direct path and one detour ``c1 -> j -> c2`` through
    every remaining column ``j``.  The pair-packing number of this product
    is exactly ``m``.
    """
    if n < 3:
        raise DigraphError(f"cycle factor needs order >= 3, got {n}")
    if m < 2:
        raise DigraphError(f"complete factor needs order >= 2, got {m}")

    def members(p: ProductDigraph, r1: int, c1: int, r2: int, c2: int) -> tuple[frozenset[Arc], ...]:
        detours = [(c1, j, c2) for j in range(m) if j not in (c1, c2)]
        return _column_detours(p, n, r1, r2, (c1, c2), detours)

    return _closed_form(directed_cycle(n), complete_digraph(m), x_pos, y_pos, m, members)


def _column_detours(
    p: ProductDigraph, n: int, r1: int, r2: int, direct: tuple[int, ...], detours: Iterable[tuple[int, ...]]
) -> tuple[frozenset[Arc], ...]:
    """Members of a (directed cycle) x (bidirected) family made of full columns and row paths.

    ``direct`` and each of ``detours`` run from seed column ``c1`` to seed
    column ``c2``, and every row path is taken in both directions.  The
    first two members pair one seed column's cycle with ``direct`` in the
    other seed's row.  Each detour ``c1 -> w -> ... -> c2`` gives one more
    member: its first arc in row ``r1``, column ``w``'s cycle, and the rest
    in row ``r2``.
    """
    col = lambda j: lift_g_arcs(p, _full_cycle_arcs(n), j)
    row = lambda seq, i: lift_h_arcs(p, _bidir_path_arcs(seq), i)
    return (
        col(direct[-1]) | row(direct, r1),
        col(direct[0]) | row(direct, r2),
        *(row(seq[:2], r1) | col(seq[1]) | row(seq[1:], r2) for seq in detours),
    )


# ---------------------------------------------------------------------------
# Lifting factor families to the product
# ---------------------------------------------------------------------------


def _factor_family(
    d: Digraph, tables: _ArcTables, pair: tuple[int, int], need: int, floor: int = 0
) -> tuple[frozenset[Arc], ...]:
    # the search itself, not ``lambda_s_exact``: every caller verifies the lifted or sealed family;
    # ``floor`` is a proven lower bound (see ``_exact``), never ``need``, which is still to be checked
    result = _exact(d, tables, *_validate_pair(d, pair), floor=floor)
    if result.value < need:
        raise ConstructionError(
            f"packing for seed {pair} gave {result.value} members, expected >= {need}"
        )
    return result.witness.members


class _Side(NamedTuple):
    """One factor's lifted members at seed lines ``a``, ``b``, each with the line it bridges on.

    ``forced`` is the index of the member bridging on ``b`` itself, or
    None; ``spare`` is a further member of the packing, or None.
    """

    members: tuple[frozenset[Arc], ...]
    lines: list[int]
    forced: int | None
    spare: frozenset[Arc] | None


class _FactorPackings:
    """All a product routine learns about one factor: its ``λ₂`` and its seed-pair packings.

    ``lambda_2`` runs once, through ``_strong_factor``, so a factor not
    strong or on fewer than two vertices raises ``DigraphError`` naming
    ``what``.  ``least`` is that ``λ₂``.  The record builds the factor's
    arc tables once, and both the ``λ₂`` sweep and every later packing
    search run on them.  ``least`` is a proven floor at every seed pair,
    so a search at a pair whose seed degree is ``least`` runs no seed flow.
    Each packing is searched once, and the memo starts with ``λ₂``'s
    witness at its pair, the packing a search there finds: both
    ``lambda_2`` routes return the packer's first maximum packing at that
    pair, as a capped ``_exact`` does.  A lift reads a packing as a
    ``_Side``, kept per ordered pair of factor vertices: its first
    ``least`` members with the next one as a spare (``lift_certificates``),
    or the whole packing with no spare (the product sweep's stronger lift,
    see ``_local_general``).  A record lives as long as the lift or product
    sweep that built it, never longer; the factor's ordered-pair orbit
    table lives on the factor digraph (``Digraph.pair_orbits``), which a
    lift never reads.
    """

    def __init__(self, what: str, d: Digraph) -> None:
        self._tables = _ArcTables(d)
        result = _strong_factor(what, d, partial(_lambda_2, tables=self._tables))
        self.d, self.least = d, result.value
        self._found = {result.pair: result.witness.members}
        self._sides: dict[tuple[int, int, bool, bool], _Side] = {}

    def at(self, a: int, b: int) -> tuple[frozenset[Arc], ...]:
        """The packer's first maximum packing through ``a`` and ``b``."""
        pair = (a, b) if a < b else (b, a)
        found = self._found.get(pair)
        if found is None:
            found = self._found[pair] = _factor_family(self.d, self._tables, pair, self.least, floor=self.least)
        return found

    def side(self, a: int, b: int, whole: bool = False, distinct: bool = False) -> _Side:
        """The packing at ``{a, b}`` read for a lift from line ``a``: the first ``least`` members, or all when ``whole``.

        Each member bridges on its least out-neighbour of ``a`` other than
        ``b``, and is forced when ``b`` is its only one.  With ``distinct``
        a forced member is re-matched where ``_distinct_lines`` can, and the
        side is forced only where no distinct lines exist.
        """
        key = (a, b, whole, distinct)
        side = self._sides.get(key)
        if side is None:
            if distinct:
                side = self.side(a, b, whole)
                lines = None if side.forced is None else _distinct_lines(side, a, b)
                if lines is not None:
                    side = side._replace(lines=lines, forced=None)
            else:
                found = self.at(a, b)
                members = found if whole else found[: self.least]
                lines = _choose_branches(members, a, avoid=b)
                forced = next((i for i, t in enumerate(lines) if t == b), None)
                side = _Side(members, lines, forced, None if whole else self.spare(a, b))
            self._sides[key] = side
        return side

    def forced(self, a: int, b: int, whole: bool = False) -> bool:
        """Some lifted member at ``{a, b}`` leaves ``a`` only towards ``b``; never without arc ``a -> b``."""
        return self.d.has_arc(a, b) and self.side(a, b, whole).forced is not None

    def stuck(self, a: int, b: int) -> bool:
        """No distinct bridge lines off ``{a, b}`` exist for the whole packing; never without the digon ``a <-> b``."""
        return self.d.has_arc(a, b) and self.d.has_arc(b, a) and self.side(a, b, True, distinct=True).forced is not None

    def spare(self, a: int, b: int) -> frozenset[Arc] | None:
        """The packing's member after the lifted ones, or None when it has only ``least``."""
        found = self.at(a, b)
        return found[self.least] if len(found) > self.least else None


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


def _distinct_lines(side: _Side, a: int, b: int) -> list[int] | None:
    """Bridge lines for ``side``'s members that are distinct and avoid ``a`` and ``b``, or None.

    Every member but the forced one already has such a line, so one
    augmenting path (Kuhn's, found breadth-first) either re-matches the
    forced member to a vertex of its own off ``a`` and ``b`` or shows that
    the members have no system of distinct representatives there.
    """
    lines = side.lines
    owner = {t: i for i, t in enumerate(lines) if i != side.forced}
    parent: dict[int, int | None] = {side.forced: None}
    queue = deque(parent)
    while queue:
        i = queue.popleft()
        for v in sorted({v for arc in side.members[i] for v in arc} - {a, b}):
            j = owner.get(v)
            if j is None:
                lines = list(lines)
                while i is not None:  # i takes v, and hands its old line to the member that asked for it
                    lines[i], v = v, lines[i]
                    i = parent[i]
                return lines
            if j not in parent:
                parent[j] = i
                queue.append(j)
    return None


def _lift_size(
    g_fams: _FactorPackings, h_fams: _FactorPackings, r1: int, c1: int, r2: int, c2: int
) -> int:
    """The member count of ``lift_certificates`` for seeds at ``(r1, c1)`` and ``(r2, c2)``.

    It is ``λ₂(G) + λ₂(H)``, less one at a drop layout, which only seeds in
    distinct rows and columns can be.  ``lift_certificates`` checks it on
    every family, and the product sweep's ``L`` is never below it (see
    ``_lift_bound``).
    """
    general = r1 != r2 and c1 != c2
    return g_fams.least + h_fams.least - (general and _drop_layout(g_fams, h_fams, r1, c1, r2, c2))


def _drop_layout(
    g_fams: _FactorPackings, h_fams: _FactorPackings, r1: int, c1: int, r2: int, c2: int
) -> bool:
    """True when ``lift_certificates`` drops a member for seeds at ``(r1, c1)`` and ``(r2, c2)``.

    The seeds lie in distinct rows and columns.  A drop layout has exactly
    one factor family forced (some lifted g-member leaves ``r1`` only
    towards ``r2``, or some h-member leaves ``c1`` only towards ``c2``),
    and the other factor's packing at its seed line has no spare member.
    Without the arc ``r1 -> r2`` in G and ``c1 -> c2`` in H nothing is
    forced, and no factor packing is searched.
    """
    forced_g = g_fams.forced(r1, r2)
    if forced_g == h_fams.forced(c1, c2):
        return False
    return h_fams.spare(c1, c2) is None if forced_g else g_fams.spare(r1, r2) is None


def _lift_bound(
    g_fams: _FactorPackings, h_fams: _FactorPackings, r1: int, c1: int, r2: int, c2: int, need: float = inf
) -> int:
    """``L``, the member count of the stronger lift for seeds at ``(r1, c1)`` and ``(r2, c2)``, as far as ``need``.

    The product sweep trusts it as a proven lower bound, and the stronger
    lift (``_sealed_lift`` with ``local``) checks ``L`` on every family.
    Seeds sharing row ``r`` get ``k_H + |at(r, o)|`` members, with ``k_H``
    the size of H's packing at the seed columns and ``o`` the ``_partner``
    of ``r`` (and the mirror for a shared column); seeds in general
    position get ``_local_general``'s count: the sizes of the two whole
    packings, less one where a member drops (``_stuck_drop``).  Each is at
    least ``λ₂(G) + λ₂(H) - 1``, so below that sum ``need`` is met with
    nothing read.  At the sum a shared line reads nothing, and seeds in
    general position read the drop first: it searches factor packings only
    where at least one factor holds the digon on the seed lines, and the
    sizes are counted only where a member drops.  Above the sum ``L`` is
    read through the records' packing memos.
    """
    bound = g_fams.least + h_fams.least
    if need < bound:
        return bound - 1
    if r1 == r2 or c1 == c2:
        if need == bound:
            return bound
        a_fams, b_fams, line, s1, s2 = (g_fams, h_fams, r1, c1, c2) if r1 == r2 else (h_fams, g_fams, c1, r1, r2)
        return len(b_fams.at(s1, s2)) + len(a_fams.at(line, _partner(line)))
    drop = _stuck_drop(g_fams, h_fams, r1, c1, r2, c2)
    if need == bound and not drop:
        return bound
    return len(g_fams.at(r1, r2)) + len(h_fams.at(c1, c2)) - drop


def _stuck_drop(
    g_fams: _FactorPackings, h_fams: _FactorPackings, r1: int, c1: int, r2: int, c2: int
) -> bool:
    """True when ``_local_general`` drops a member, read as lazily as ``_drop_layout``.

    That is where exactly one side is stuck, and the other is not forced,
    so no swap; a whole packing has no spare to bridge the stuck member.
    A factor's packing is searched only to read whether a side is stuck,
    where the factor holds the digon on the seed lines, or forced, where
    the other side is stuck and the factor holds the arc ``a -> b``.
    """
    g_stuck = g_fams.stuck(r1, r2)
    if g_stuck == h_fams.stuck(c1, c2):
        return False
    fams, a, b = (h_fams, c1, c2) if g_stuck else (g_fams, r1, r2)
    return not fams.forced(a, b, True)


def lift_certificates(
    g: Digraph, h: Digraph, x_pos: tuple[int, int], y_pos: tuple[int, int]
) -> tuple[ProductDigraph, CertificateFamily]:
    """Lift factor certificate families to the product for an arbitrary seed pair.

    Produces at least ``lambda2(g) + lambda2(h) - 1`` arc-disjoint seed-strong
    subgraphs of the product, which is why that expression lower-bounds the
    product's pair-packing number.  Seeds sharing a row or column always get
    the full ``lambda2(g) + lambda2(h)`` members.  In general position a
    factor family is forced when one of its members can only branch through
    the other seed's line.  When exactly one family is forced, its forced
    member bridges through a spare member of the other factor's family, or
    one member is dropped when the other factor has no spare (a drop
    layout, see ``_drop_layout``).  When both are forced, the two forced
    members swap halves and every member is kept.  The family must verify
    with exactly ``_lift_size`` members.  The product sweep rests on a
    stronger form of this lift (see ``_local_general``).
    """
    g_fams, h_fams = _FactorPackings("first factor", g), _FactorPackings("second factor", h)
    return _sealed_lift(g_fams, h_fams, x_pos, y_pos, False)


def _sealed_lift(
    g_fams: _FactorPackings, h_fams: _FactorPackings, x_pos: tuple[int, int], y_pos: tuple[int, int], local: bool
) -> tuple[ProductDigraph, CertificateFamily]:
    """The family of ``lift_certificates``, or with ``local`` the stronger lift the product sweep rests on.

    Seeds sharing a line lift the first ``λ₂`` members of each factor's
    packing, or with ``local`` every member; seeds in general position lift
    ``_lift_general`` on the records' sides, or on ``_local_general``'s.
    The family must verify with exactly ``_lift_size`` members, or with
    ``local`` exactly ``_lift_bound``'s ``L``.
    """
    p = cartesian_product(g_fams.d, h_fams.d)
    x, y = _positions(p, x_pos, y_pos)
    (r1, c1), (r2, c2) = x_pos, y_pos
    if r1 == r2:
        members = _lift_same_line(p, g_fams, h_fams, lift_g_arcs, lift_h_arcs, r1, c1, c2, local)
    elif c1 == c2:
        members = _lift_same_line(p, h_fams, g_fams, lift_h_arcs, lift_g_arcs, c1, r1, r2, local)
    elif local:
        members = _local_general(p, g_fams, h_fams, r1, c1, r2, c2)
    else:
        members = _lift_general(p, g_fams.side(r1, r2), h_fams.side(c1, c2), r1, c1, r2, c2)
    size = (_lift_bound if local else _lift_size)(g_fams, h_fams, r1, c1, r2, c2)
    return p, _sealed_family(p, x, y, members, size, "lift")


def _partner(line: int) -> int:
    """The vertex whose packing with a shared seed line that line's factor lifts: 0, or 1 for line 0."""
    return 0 if line != 0 else 1


def _lift_same_line(
    p: ProductDigraph,
    a_fams: _FactorPackings,
    b_fams: _FactorPackings,
    lift_a: _LiftArcs,
    lift_b: _LiftArcs,
    line: int,
    s1: int,
    s2: int,
    whole: bool = False,
) -> tuple[frozenset[Arc], ...]:
    """Seeds share a line of factor ``b``: copy b-members there, bridge a-members elsewhere.

    The line is row ``line`` with seed columns ``s1``, ``s2`` when ``a`` is the
    first factor, and column ``line`` with seed rows ``s1``, ``s2`` when ``a``
    is the second; ``lift_a``/``lift_b`` map each factor's arcs to the product.
    The b-members are b's packing at the seeds and the a-members a's at
    ``line`` and its ``_partner``: the first ``λ₂`` of each, or every member
    when ``whole``.  Each a-member bridges on its least out-neighbour of
    ``line``, distinct since the members are arc-disjoint.
    """
    a_members, b_members = a_fams.at(line, _partner(line)), b_fams.at(s1, s2)
    if not whole:
        a_members, b_members = a_members[: a_fams.least], b_members[: b_fams.least]
    branches = _choose_branches(a_members, line, avoid=None)
    return (
        *(lift_b(p, member, line) for member in b_members),
        *(_bridged(p, lift_a, lift_b, a, s1, s2, b_members[0], t) for a, t in zip(a_members, branches)),
    )


def _bridged(
    p: ProductDigraph, lift_a: _LiftArcs, lift_b: _LiftArcs,
    member: frozenset[Arc], s1: int, s2: int, bridge: frozenset[Arc], branch: int,
) -> frozenset[Arc]:
    """A bridged copy: ``member`` of factor ``a`` on both seed lines ``s1`` and ``s2``,
    joined by ``bridge``, a member of factor ``b``, on line ``branch``."""
    return lift_a(p, member, s1) | lift_a(p, member, s2) | lift_b(p, bridge, branch)


def _lift_general(
    p: ProductDigraph, g: _Side, h: _Side, r1: int, c1: int, r2: int, c2: int
) -> tuple[frozenset[Arc], ...]:
    """Seeds in general position: bridge each factor side through the other.

    Each g-side member pairs its two seed-column copies with one row bridge
    on its line.  The lines of unforced members are distinct and off the
    seed rows, so collisions can only involve the seed lines themselves.  A
    g-side member forced to bridge through row ``r2`` collides exactly with
    the h-side member whose bridge template it shares (and symmetrically),
    which is repaired by swapping halves, substituting a spare member, or
    dropping one member when there is no spare.
    """
    g_bridges = [h.members[0]] * len(g.members)
    h_bridges = [g.members[0]] * len(h.members)
    g_kept, h_kept = range(len(g.members)), range(len(h.members))
    # A forced g-side member's bridge in row r2 is h-side member 0's copy of
    # h-member 0: it takes the spare h-member instead, or h-side member 0 goes
    # (and the mirror image for a forced h-side member).
    if g.forced is not None and h.forced is None:
        if h.spare is None:
            h_kept = range(1, len(h.members))
        else:
            g_bridges[g.forced] = h.spare
    if h.forced is not None and g.forced is None:
        if g.spare is None:
            g_kept = range(1, len(g.members))
        else:
            h_bridges[h.forced] = g.spare
    g_side = partial(_bridged, p, lift_g_arcs, lift_h_arcs)
    h_side = partial(_bridged, p, lift_h_arcs, lift_g_arcs)
    g_sides = [g_side(g.members[i], c1, c2, g_bridges[i], g.lines[i]) for i in g_kept]
    h_sides = [h_side(h.members[j], r1, r2, h_bridges[j], h.lines[j]) for j in h_kept]
    if g.forced is not None and h.forced is not None:
        i, j = g.forced, h.forced
        g_sides[i] = lift_g_arcs(p, g.members[i], c1) | lift_h_arcs(p, h.members[j], r2)
        h_sides[j] = lift_h_arcs(p, h.members[j], r1) | lift_g_arcs(p, g.members[i], c2)
    return tuple(g_sides) + tuple(h_sides)


def _local_general(
    p: ProductDigraph, g_fams: _FactorPackings, h_fams: _FactorPackings, r1: int, c1: int, r2: int, c2: int
) -> tuple[frozenset[Arc], ...]:
    """The stronger lift behind the product sweep's bound, for seeds in general position.

    It builds on ``_lift_general`` as ``lift_certificates`` does, with two
    inputs changed.

    **Distinct bridge rows.**  A g-side member may bridge on any row it
    holds, not only on an out-neighbour of ``r1``: the bridge is an H-member
    copied into that row, and it meets both of the member's seed-column
    copies.  Off the seed rows the bridge rows need only be distinct, a
    system of distinct representatives (Hall) of the members' vertex sets
    less ``{r1, r2}``.  The out-neighbours of ``r1`` are distinct, since the
    members are arc-disjoint, and at most one of them is ``r2``, since one
    member at most holds the arc ``r1 -> r2``.  So they match every member
    but at most one, and a maximum system (``_distinct_lines``) leaves at
    most one member unmatched.  That member bridges on row ``r2``, which it
    holds, exactly as a forced member does in ``lift_certificates``, and
    every other bridge is on a distinct row off the seed rows; so the swap,
    spare and drop repairs hold for it unchanged.  A member is left
    unmatched, and the side is stuck, only where G holds both arcs
    ``r1 -> r2`` and ``r2 -> r1``.  Hall's condition then fails for a set A
    of members whose rows off the seed rows form a set N with ``|N| < |A|``.
    Each member of A is strong on two or more vertices, so it holds an arc
    out of ``r1`` and an arc into ``r1``: ``2|A|`` distinct arcs, each to or
    from ``N ∪ {r2}``, which has at most ``|A|`` vertices.  So each vertex
    there, ``r2`` among them, is the head of one and the tail of another.
    The same holds for columns.  A side facing a stuck side keeps its
    out-neighbour rows, so where it is forced too the two swap halves and
    nothing is dropped; so ``L`` never falls below ``_lift_size``.

    **Local packings.**  Each side lifts its whole packing at the seed
    lines, with no spare, so ``L`` is ``k_G + k_H`` less one where exactly
    one side is stuck and the other is not forced.  That is never below
    lifting the first ``λ₂`` members with the spare: where both packings
    have ``λ₂`` members the two are one, and a longer packing gains at
    least the one member a drop loses.  And that form is never below
    ``_lift_size``, as above; so ``L ≥ _lift_size``.
    """
    g_stuck, h_stuck = g_fams.stuck(r1, r2), h_fams.stuck(c1, c2)
    g = g_fams.side(r1, r2, True, distinct=not h_stuck)
    h = h_fams.side(c1, c2, True, distinct=not g_stuck)
    return _lift_general(p, g, h, r1, c1, r2, c2)


# ---------------------------------------------------------------------------
# Randomized hunt for products that pin the lower bound
# ---------------------------------------------------------------------------


class HuntHit(NamedTuple):
    """One random product that meets the lower bound, with its ``check_bounds`` report."""

    trial: int
    g: Digraph
    h: Digraph
    bounds: BoundsReport


class HuntReport(NamedTuple):
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


def hunt_tightness(trials: int, max_order: int, extra_arc_prob: float, seed: int) -> HuntReport:
    """Sample random strong factor pairs, looking for products that meet the lower bound.

    Each trial is one ``check_bounds`` call.  The gap ``lambda2(product) -
    lower`` is tallied; zero-gap trials are returned in full with their
    optimal pair and witness family.  ``sandwich_ok`` confirms every trial
    stayed inside both bounds.
    """
    _validate_trials(trials, max_order)
    if not 0 <= extra_arc_prob <= 1:
        raise DigraphError(f"extra arc probability must lie in [0, 1], got {extra_arc_prob}")
    rng = random.Random(seed)
    tally: dict[int, int] = {}
    hits: list[HuntHit] = []
    sandwich_ok = True
    for trial in range(trials):
        n_g = rng.randint(2, max_order)
        n_h = rng.randint(2, max_order)
        g = random_strong_digraph(n_g, rng.random() * extra_arc_prob, rng.getrandbits(32))
        h = random_strong_digraph(n_h, rng.random() * extra_arc_prob, rng.getrandbits(32))
        rep = check_bounds(g, h)
        sandwich_ok = sandwich_ok and rep.sandwich_ok
        gap = rep.observed - rep.lower
        tally[gap] = tally.get(gap, 0) + 1
        if gap == 0:
            hits.append(HuntHit(trial, g, h, rep))
    return HuntReport(
        trials=trials,
        sandwich_ok=sandwich_ok,
        gap_counts=tuple(sorted(tally.items())),
        hits=tuple(hits),
    )
