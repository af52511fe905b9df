"""Local and global arc connectivity via unit-capacity max flow.

All flows run on one kernel, ``_unit_flow``: augmentation over
``Digraph.flow_network`` along shortest paths, each found by a breadth-first
search grown from both ends, that stops at a requested number of paths and
can leave arcs out.  ``arc_connectivity`` takes its value from the Schnorr
cycle over a bi-dominating vertex set (``_cycle_value``) and as witness the
arcs at a vertex of least degree unless a link went below the degrees;
``strongarc lambda`` prints that verified witness.  ``max_flow_unit`` is the
checked entry to the kernel for a single terminal pair.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .digraph import Arc, Digraph, DigraphError, _strong_without, degrees, is_strong


class LocalArcConnectivity(NamedTuple):
    """Max arc-disjoint s->t paths: their number and a minimum cut.

    ``cut`` holds the arcs leaving the residual-reachable side, the unique
    minimal minimum cut.
    """

    source: int
    sink: int
    value: int
    cut: frozenset[Arc]


class ConnectivityReport(NamedTuple):
    """Global arc-strong connectivity with the degree context and a witness cut.

    ``strong`` is False when the digraph is not strongly connected; then the
    value is 0 and the cut is empty.  ``local_flows`` counts the flow kernel
    runs that found the value and the cut, the link flows of ``_cycle_value``.
    """

    value: int
    delta_out: int
    delta_in: int
    min_cut: frozenset[Arc]
    strong: bool
    local_flows: int


def _unit_flow(d: Digraph, s: int, t: int, need: int, excluded: int = 0) -> tuple[int, list[int]]:
    """Augment along shortest residual s->t paths until ``need`` are found or none is left.

    Needs ``s != t``: every caller meets it, and ``max_flow_unit`` rejects
    ``s == t``.  Arc ``i`` of ``d.sorted_arcs`` is left out when bit ``i`` of
    ``excluded`` is set.  Each search grows breadth-first from both ends,
    a whole layer at a time on the side with the smaller frontier, and stops
    at the first vertex labelled from both: ``via[v]`` is the residual edge
    by which ``s`` reaches ``v``, ``nxt[v]`` the one by which ``v`` reaches
    ``t``.  The ``t`` side follows ``e ^ 1`` for each ``e`` in ``edges[u]``,
    the residual edges into ``u``.  Returns the path count and the ``via``
    labels of the last search.  If that search failed, -1 marks exactly the
    vertices ``s`` cannot reach, the sink side of the minimal minimum cut:
    when the ``t`` side runs dry first, the ``s`` side is searched to the end.
    """
    head, edges = d.flow_network
    residual = [1, 0] * (len(head) // 2)
    while excluded:
        low = excluded & -excluded
        residual[2 * low.bit_length() - 2] = 0
        excluded ^= low
    via: list[int] = []
    value = 0
    while value < need:
        via = [-1] * d.n
        nxt = [-1] * d.n
        via[s] = nxt[t] = -2
        front, back = [s], [t]
        # a layer either completes (for-else: continue with the next layer) or
        # breaks out of both loops at the vertex v where the two sides meet;
        # once the t side has run dry, t is out of reach and the s side grows
        # alone until it has labelled every vertex s reaches
        while front:
            layer = []
            if not back or len(front) <= len(back):
                for u in front:
                    for e in edges[u]:
                        if residual[e]:
                            v = head[e]
                            if via[v] == -1:
                                via[v] = e
                                if nxt[v] != -1:
                                    break
                                layer.append(v)
                    else:
                        continue
                    break
                else:
                    front = layer
                    continue
            else:
                for u in back:
                    for e in edges[u]:
                        if residual[e ^ 1]:
                            v = head[e]
                            if nxt[v] == -1:
                                nxt[v] = e ^ 1
                                if via[v] != -1:
                                    break
                                layer.append(v)
                    else:
                        continue
                    break
                else:
                    back = layer
                    continue
            break
        else:
            break
        meet = v
        while v != s:
            e = via[v]
            residual[e] -= 1
            residual[e ^ 1] += 1
            v = head[e ^ 1]
        v = meet
        while v != t:
            e = nxt[v]
            residual[e] -= 1
            residual[e ^ 1] += 1
            v = head[e]
        value += 1
    return value, via


def max_flow_unit(d: Digraph, s: int, t: int) -> LocalArcConnectivity:
    """Maximum number of arc-disjoint s->t paths, with the minimal minimum cut."""
    if s == t:
        raise DigraphError("source and sink must differ")
    if not (0 <= s < d.n and 0 <= t < d.n):
        raise DigraphError(f"terminals ({s}, {t}) outside 0..{d.n - 1}")
    # a flow never exceeds the out-degree of s, which is below n
    value, via = _unit_flow(d, s, t, d.n)
    return LocalArcConnectivity(s, t, value, _cut_from_labels(d, via))


def _cut_from_labels(d: Digraph, via: list[int]) -> frozenset[Arc]:
    """Arcs from the vertices a failed ``_unit_flow`` search labelled to those it did not."""
    return frozenset((u, v) for u, v in d.sorted_arcs if via[u] != -1 and via[v] == -1)


def _bi_dominating(d: Digraph) -> list[int]:
    """A vertex set X, in vertex order, giving every vertex outside it an in- and an out-neighbour in X.

    Built greedily: a vertex joins when it has no in-neighbour or no
    out-neighbour in X yet.  Then one pass over the members in reverse
    vertex order, with per-vertex counts of in- and out-neighbours in X,
    prunes it: a member leaves when it still has an in- and an
    out-neighbour in X and every outsider it covers keeps another one.
    No member kept could leave later: a leave only lowers counts and adds outsiders.
    """
    out_adj, in_adj = d.out_adj, d.in_adj
    n_in, n_out = [0] * d.n, [0] * d.n
    inside = [False] * d.n
    for v in range(d.n):
        if not (n_in[v] and n_out[v]):
            inside[v] = True
            for w in out_adj[v]:
                n_in[w] += 1
            for w in in_adj[v]:
                n_out[w] += 1
    for v in reversed(range(d.n)):
        if (
            inside[v] and n_in[v] and n_out[v]
            and all(inside[w] or n_in[w] > 1 for w in out_adj[v])
            and all(inside[w] or n_out[w] > 1 for w in in_adj[v])
        ):
            inside[v] = False
            for w in out_adj[v]:
                n_in[w] -= 1
            for w in in_adj[v]:
                n_out[w] -= 1
    return [v for v in range(d.n) if inside[v]]


def _cycle_value(d: Digraph, value: int) -> tuple[int, list[int] | None, int]:
    """``λ`` of a strong ``d`` from ``value = δ = min(δ⁺, δ⁻)``, by the Schnorr (1979) cycle.

    With ``δ >= 2`` the cycle runs over ``X = _bi_dominating(d)``, as
    ``X[0] -> X[1] -> ... -> X[-1] -> X[0]``, with no link when ``|X| = 1``.
    If ``λ < δ``, each side of a minimum cut has more than δ vertices (a
    side of ``k <= δ`` vertices is left by at least ``k(δ - k + 1) >= δ``
    arcs), and at most ``λ`` of a side's vertices are ends of cut arcs.  So
    the source side holds a vertex whose out-neighbours all lie inside it,
    and the sink side one whose in-neighbours all do.  Each of them is in X
    or has a neighbour in X on its own side, so X meets both sides and some
    link leaves the source side (Matula's dominating-set argument, 1987,
    carried over to digraphs).  The argument reads only that every vertex
    outside X has an in- and an out-neighbour in X, so the pruned set serves
    as the plain greedy one did, with fewer links.  So ``λ`` is the least of
    ``δ`` and the link flows ``λ(X[i], X[i+1])``.  Each link flow stops once
    it reaches the least value so far, and the cycle stops at 1.  Returns
    ``λ``, the ``via`` labels of the last link that lowered it (``None`` if
    none did), and the number of link flows, at most ``|X|``.
    """
    via, flows = None, 0
    x = _bi_dominating(d) if value >= 2 else []
    for u, w in zip(x, x[1:] + x[:1]) if len(x) > 1 else ():
        if value == 1:
            break
        flows += 1
        found, labels = _unit_flow(d, u, w, value)
        if found < value:
            value, via = found, labels
    return value, via, flows


def arc_connectivity(d: Digraph) -> ConnectivityReport:
    """Global arc-strong connectivity by the Schnorr cycle, with a verified minimum cut.

    The value is ``_cycle_value``'s from ``min(δ⁺, δ⁻)``, and ``local_flows``
    counts its link flows.  The witness is the minimal cut of the last link
    that lowered the value, read from that flow's failed last search; if
    none did, the out-arcs of the least vertex of out-degree ``λ`` when
    ``δ⁺ = λ``, else the in-arcs of the least vertex of in-degree ``λ``.
    Raises ``RuntimeError`` unless the cut has ``λ`` arcs, all of them in
    ``d``, and deleting it leaves the digraph not strong.
    """
    if d.n < 2:
        raise DigraphError("arc connectivity needs at least two vertices")
    d_out, d_in = degrees(d)
    if not is_strong(d):
        return ConnectivityReport(0, d_out, d_in, frozenset(), strong=False, local_flows=0)
    value, via, flows = _cycle_value(d, min(d_out, d_in))
    if via is not None:
        cut = _cut_from_labels(d, via)
    elif d_out == value:
        u = next(v for v in range(d.n) if d.out_degree(v) == value)
        cut = frozenset((u, v) for v in d.out_adj[u])
    else:
        u = next(v for v in range(d.n) if d.in_degree(v) == value)
        cut = frozenset((v, u) for v in d.in_adj[u])
    if len(cut) != value or not cut <= d.arcs or not verify_cut(d, cut):
        raise RuntimeError(f"arc connectivity {value}: the witness cut does not verify")
    return ConnectivityReport(value, d_out, d_in, cut, strong=True, local_flows=flows)


def verify_cut(d: Digraph, cut: Iterable[Arc]) -> bool:
    """True iff deleting ``cut`` destroys strong connectivity; no digraph is built."""
    cut_set = frozenset(cut)
    if not cut_set <= d.arcs:
        raise DigraphError("cut contains arcs not present in the digraph")
    return not _strong_without(d, cut_set)
