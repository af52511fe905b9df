"""Local and global arc connectivity via unit-capacity max flow.

All flows run on one kernel, ``_unit_flow``: breadth-first augmentation over
``Digraph.flow_network`` that stops at a requested number of paths and can
leave arcs out.  ``arc_connectivity`` takes the least local value around the
cycle ``0 -> 1 -> ... -> n-1 -> 0`` (Schnorr 1979), capping each flow below the
best so far; its witness is the cut of the first pair in pivot order ``(0, 1),
(1, 0), (0, 2), (2, 0), ...`` that attains the minimum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

from .digraph import Arc, Digraph, DigraphError, degrees, is_strong


@dataclass(frozen=True)
class LocalArcConnectivity:
    """Max arc-disjoint s->t paths: their number, a minimum cut, and the paths.

    ``capped``: the flow stopped at the caller's cap, more paths exist and ``cut``
    is empty.  Otherwise ``cut`` holds the arcs leaving the residual-reachable
    side, the unique minimal minimum cut.  ``paths`` is built on first access.
    """

    source: int
    sink: int
    value: int
    cut: frozenset[Arc]
    capped: bool
    _d: Digraph = field(repr=False, compare=False)
    _residual: list[int] = field(repr=False, compare=False)

    @cached_property
    def paths(self) -> tuple[tuple[int, ...], ...]:
        # decompose the flow into s->t paths, excising any flow cycles on the way
        flow_out: list[list[int]] = [[] for _ in range(self._d.n)]
        for i, (u, v) in enumerate(self._d.sorted_arcs):
            if self._residual[2 * i + 1]:
                flow_out[u].append(v)
        paths: list[tuple[int, ...]] = []
        for _ in range(self.value):
            walk = [self.source]
            pos = {self.source: 0}
            while walk[-1] != self.sink:
                v = flow_out[walk[-1]].pop()
                if v in pos:
                    # a flow cycle: drop it and continue from its entry point
                    walk = walk[: pos[v] + 1]
                    pos = {w: k for k, w in enumerate(walk)}
                else:
                    pos[v] = len(walk)
                    walk.append(v)
            paths.append(tuple(walk))
        return tuple(paths)


@dataclass(frozen=True)
class ConnectivityReport:
    """Global arc-strong connectivity with the degree context and a witness cut.

    ``strong`` is False when the digraph is not strongly connected; then the
    value is 0 and the cut is empty.
    """

    value: int
    delta_out: int
    delta_in: int
    min_cut: frozenset[Arc]
    strong: bool


def _unit_flow(d: Digraph, s: int, t: int, need: int, excluded: int = 0) -> tuple[int, list[int], list[int]]:
    """Augment along shortest residual s->t paths until ``need`` are found or none is left.

    Arc ``i`` of ``d.sorted_arcs`` is left out when bit ``i`` of ``excluded`` is
    set.  Returns the path count, the residual capacities and the labels of
    the last search; if it failed, -1 marks the side ``s`` cannot reach.
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
        via = [-1] * d.n  # edge by which each vertex was reached
        via[s] = -2
        queue = [s]
        for u in queue:
            for e in edges[u]:
                if residual[e]:
                    v = head[e]
                    if via[v] == -1:
                        via[v] = e
                        queue.append(v)
            if via[t] != -1:
                break
        else:
            break
        v = t
        while v != s:
            e = via[v]
            residual[e] -= 1
            residual[e ^ 1] += 1
            v = head[e ^ 1]
        value += 1
    return value, residual, via


def max_flow_unit(d: Digraph, s: int, t: int, cap: int | None = None) -> LocalArcConnectivity:
    """Maximum number of arc-disjoint s->t paths, with minimum cut and path list.

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
    value, residual, via = _unit_flow(d, s, t, d.n if cap is None else cap + 1)
    if cap is not None and value > cap:
        return LocalArcConnectivity(s, t, cap, frozenset(), True, d, residual)
    cut = frozenset((u, v) for u, v in d.sorted_arcs if via[u] != -1 and via[v] == -1)
    return LocalArcConnectivity(s, t, value, cut, False, d, residual)


def arc_connectivity(d: Digraph) -> ConnectivityReport:
    """Global arc-strong connectivity: min over local values around the cycle 0 -> 1 -> ... -> 0."""
    if d.n < 2:
        raise DigraphError("arc connectivity needs at least two vertices")
    d_out, d_in = degrees(d)
    if not is_strong(d):
        return ConnectivityReport(0, d_out, d_in, frozenset(), strong=False)
    value = min(d_out, d_in)
    for u in range(d.n):
        if value == 1:  # a strong digraph has at least 1
            break
        local = max_flow_unit(d, u, (u + 1) % d.n, cap=value - 1)
        if not local.capped:
            value = local.value
    # the witness pair is the first whose flow capped at ``value`` is not cut short
    for u in range(1, d.n):
        for s, t in ((0, u), (u, 0)):
            local = max_flow_unit(d, s, t, cap=value)
            if not local.capped:
                return ConnectivityReport(value, d_out, d_in, local.cut, strong=True)
    raise AssertionError("every minimum cut separates 0 from some vertex")


def verify_cut(d: Digraph, cut: Iterable[Arc]) -> bool:
    """True iff deleting ``cut`` destroys strong connectivity."""
    cut_set = frozenset(cut)
    if not cut_set <= d.arcs:
        raise DigraphError("cut contains arcs not present in the digraph")
    return not is_strong(d.remove_arcs(cut_set))
