"""Local and global arc connectivity via unit-capacity max flow.

All flows run on one kernel, ``_unit_flow``: augmentation over
``Digraph.flow_network`` along shortest paths, each found by a breadth-first
search grown from both ends, that stops at a requested number of paths and
can leave arcs out.  ``arc_connectivity`` first scans the pivot pairs ``(0, 1),
(1, 0), (0, 2), (2, 0), ...`` for the first whose local value is at most the
degree bound ``min(δ⁺, δ⁻)``, proving earlier pairs where it can by a shorter
flow between the pivot vertex and one of its neighbours.  The vertices before
that pair's pivot vertex are then pairwise more than the bound apart, so the
Schnorr (1979) cycle ``0 -> 1 -> ... -> n-1 -> 0`` only runs on from that
vertex back to 0; if it finds a smaller value, the scan runs again at that
value.  The witness is the minimal cut of the pair the last scan stopped at.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable

from .digraph import Arc, Digraph, DigraphError, _strong_without, degrees, is_strong


@dataclass(frozen=True)
class LocalArcConnectivity:
    """Max arc-disjoint s->t paths: their number and a minimum cut.

    ``capped``: the flow stopped at the caller's cap, more paths exist and ``cut``
    is empty.  Otherwise ``cut`` holds the arcs leaving the residual-reachable
    side, the unique minimal minimum cut.
    """

    source: int
    sink: int
    value: int
    cut: frozenset[Arc]
    capped: bool


@dataclass(frozen=True)
class ConnectivityReport:
    """Global arc-strong connectivity with the degree context and a witness cut.

    ``strong`` is False when the digraph is not strongly connected; then the
    value is 0 and the cut is empty.  ``local_flows`` counts the flow kernel
    runs that found the value and the cut.
    """

    value: int
    delta_out: int
    delta_in: int
    min_cut: frozenset[Arc]
    strong: bool
    local_flows: int = field(compare=False)


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


def max_flow_unit(d: Digraph, s: int, t: int, cap: int | None = None) -> LocalArcConnectivity:
    """Maximum number of arc-disjoint s->t paths, with a minimum cut.

    With ``cap`` below the maximum the result is ``cap``, ``capped`` and an
    empty cut; with ``cap`` at or above it, the uncapped result.
    """
    if s == t:
        raise DigraphError("source and sink must differ")
    if not (0 <= s < d.n and 0 <= t < d.n):
        raise DigraphError(f"terminals ({s}, {t}) outside 0..{d.n - 1}")
    if cap is not None and cap < 0:
        raise DigraphError(f"flow cap must be >= 0, got {cap}")
    # a flow never exceeds the out-degree of s, which is below n
    value, via = _unit_flow(d, s, t, d.n if cap is None else cap + 1)
    if cap is not None and value > cap:
        return LocalArcConnectivity(s, t, cap, frozenset(), True)
    cut = frozenset((u, v) for u, v in d.sorted_arcs if via[u] != -1 and via[v] == -1)
    return LocalArcConnectivity(s, t, value, cut, False)


def _witness_scan(d: Digraph, bound: int, first: int) -> tuple[LocalArcConnectivity, int, int]:
    """First pivot pair from vertex ``first`` on whose local value is at most ``bound``.

    Returns its uncapped flow, its pivot vertex and the number of kernel runs.
    Needs ``λ(0, c) > bound`` and ``λ(c, 0) > bound`` for every ``0 < c < first``;
    each vertex the scan passes keeps that true.  Then for ``0 < c < u``,
    ``λ(c, u) > bound`` proves ``λ(0, u) >= min(λ(0, c), λ(c, u)) > bound``, and
    ``λ(u, c) > bound`` proves ``λ(u, 0) > bound``.  So each side first tries
    the flow from or to the largest such in- or out-neighbour ``c`` of ``u``,
    one arc away; the pivot flow, which gives the cut, runs only when that
    proof fails or ``u`` has no such neighbour.
    """
    flows = 0
    for u in range(first, d.n):
        for s, t, adj in ((0, u, d.in_adj[u]), (u, 0, d.out_adj[u])):
            below = bisect_left(adj, u)
            near = adj[below - 1] if below else 0
            if near:
                flows += 1
                if _unit_flow(d, s or near, t or near, bound + 1)[0] > bound:
                    continue
            flows += 1
            local = max_flow_unit(d, s, t, cap=bound)
            if not local.capped:
                return local, u, flows
    raise AssertionError("every minimum cut separates 0 from some vertex")


def arc_connectivity(d: Digraph) -> ConnectivityReport:
    """Global arc-strong connectivity, with the minimal cut of the first pivot pair attaining it.

    The witness scan runs first, at ``bound = min(δ⁺, δ⁻)``, which ``λ`` never
    exceeds.  It stops at the first pair ``w`` with ``λ(w) <= bound``; one
    exists, because a vertex of least out- or in-degree has a local value of
    at most ``bound`` to or from 0.  Let ``u*`` be the pivot vertex of ``w``.
    Every pair before ``w`` is above ``bound``, so any two of ``{0, ..., u*-1}``
    are more than ``bound``-connected both ways (``λ(a, b) >= min(λ(a, 0),
    λ(0, b))``), and a cut ``S`` with fewer than ``λ(w)`` arcs keeps them on one
    side.  Contract them into 0: ``S`` leaves the cycle ``0, u*, u*+1, ..., n-1``
    along one of its links, and not along ``(0, u*)``, since ``λ(0, u*)`` is
    ``λ(w)`` when ``w = (0, u*)`` and above ``bound`` otherwise.  So ``λ`` is the
    least of ``λ(w)`` and the flows ``(u*, u*+1), ..., (n-1, 0)``, each capped
    below the least so far and stopped at 1, below which no strong digraph
    goes.  Only ``λ < min(δ⁺, δ⁻)`` can leave ``λ`` below ``λ(w)``; then the
    scan runs again from ``u*`` at ``λ``.

    Raises ``RuntimeError`` unless the cut has ``λ`` arcs and deleting it
    leaves the digraph not strong.
    """
    if d.n < 2:
        raise DigraphError("arc connectivity needs at least two vertices")
    d_out, d_in = degrees(d)
    if not is_strong(d):
        return ConnectivityReport(0, d_out, d_in, frozenset(), strong=False, local_flows=0)
    witness, first, flows = _witness_scan(d, min(d_out, d_in), 1)
    value = witness.value
    for u in range(first, d.n):
        if value == 1:
            break
        flows += 1
        value = min(value, _unit_flow(d, u, (u + 1) % d.n, value)[0])
    if value < witness.value:
        witness, _, rescan_flows = _witness_scan(d, value, first)
        flows += rescan_flows
    if len(witness.cut) != value or not verify_cut(d, witness.cut):
        pair = f"{witness.source}->{witness.sink}"
        raise RuntimeError(f"arc connectivity {value}: the minimum cut of {pair} does not verify")
    return ConnectivityReport(value, d_out, d_in, witness.cut, strong=True, local_flows=flows)


def verify_cut(d: Digraph, cut: Iterable[Arc]) -> bool:
    """True iff deleting ``cut`` destroys strong connectivity; no digraph is built."""
    cut_set = frozenset(cut)
    if not cut_set <= d.arcs:
        raise DigraphError("cut contains arcs not present in the digraph")
    return not _strong_without(d, cut_set)
