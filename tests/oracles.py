"""References for the tests: two packing oracles, a flow kernel and an unconstrained random digraph.

The oracles compute the seed-set packing number by exhaustive enumeration,
independently of the branch-and-bound search in ``strongarc.packing``:
``lambda_s_oracle_subsets`` enumerates every arc subset that induces a strong
subgraph, ``lambda_s_oracle_paths`` every union of one x->y and one y->x simple
path.  Both are exponential and refuse instances beyond their budgets.
``reference_unit_flow`` is the one-sided breadth-first unit-flow kernel that
``strongarc.flow._unit_flow`` is compared against, ``strong_by_closure`` a
bit-mask strongness check that ``strongarc.digraph._strong_on_endpoints``,
which walks successor and predecessor lists, is compared against, and
``reference_verify_certificate`` the member-by-member certificate check that
``strongarc.packing.verify_certificate`` is compared against.
``every_pair_lambda_2`` solves every pair with ``lambda_s_exact``, outside
the pair sweep.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Sequence

from strongarc.digraph import Digraph, DigraphError, from_arc_list
from strongarc.packing import CertificateFamily, CertificateReport, Lambda2Result, _validate_pair, lambda_s_exact


class OracleRefusal(RuntimeError):
    """An oracle declined because the instance exceeds its brute-force budget."""


def _closure(adj: dict[int, int], start: int) -> int:
    """Vertex mask reachable from ``start`` along ``adj`` (vertex -> neighbour mask)."""
    seen = 1 << start
    frontier = [start]
    while frontier:
        nxt: list[int] = []
        for w in frontier:
            reach = adj.get(w, 0) & ~seen
            while reach:
                lowb = reach & -reach
                seen |= lowb
                nxt.append(lowb.bit_length() - 1)
                reach ^= lowb
        frontier = nxt
    return seen


def strong_by_closure(arcs: Iterable[tuple[int, int]]) -> bool:
    """Bit-mask reference for ``_strong_on_endpoints``: the least endpoint reaches all along both masks."""
    succ: dict[int, int] = {}
    pred: dict[int, int] = {}
    verts = 0
    for u, v in arcs:
        succ[u] = succ.get(u, 0) | 1 << v
        pred[v] = pred.get(v, 0) | 1 << u
        verts |= 1 << u | 1 << v
    start = (verts & -verts).bit_length() - 1
    return _closure(succ, start) == verts and _closure(pred, start) == verts


@lru_cache(maxsize=64)
def _strong_arc_masks(d: Digraph) -> tuple[tuple[int, int], ...]:
    """All non-empty arc subsets (as bitmasks) inducing strong subgraphs.

    Returns (arc mask, endpoint-vertex mask) pairs; pure brute force over
    every subset, so callers must keep |A(D)| small.
    """
    arcs = d.sorted_arcs
    a = len(arcs)
    end_bits = [(1 << u) | (1 << v) for u, v in arcs]
    out: list[tuple[int, int]] = []
    for mask in range(1, 1 << a):
        verts = 0
        out_map: dict[int, int] = {}
        in_map: dict[int, int] = {}
        m = mask
        while m:
            low = m & -m
            i = low.bit_length() - 1
            u, v = arcs[i]
            verts |= end_bits[i]
            out_map[u] = out_map.get(u, 0) | (1 << v)
            in_map[v] = in_map.get(v, 0) | (1 << u)
            m ^= low
        start_v = (verts & -verts).bit_length() - 1
        if _closure(out_map, start_v) == verts and _closure(in_map, start_v) == verts:
            out.append((mask, verts))
    return tuple(out)


def _minimal_antichain(masks: Sequence[int]) -> list[int]:
    """Inclusion-minimal masks, input order irrelevant."""
    minimal: list[int] = []
    for mask in sorted(set(masks), key=lambda m: (m.bit_count(), m)):
        if not any(kept & mask == kept for kept in minimal):
            minimal.append(mask)
    return minimal


def _max_disjoint_packing(members: Sequence[int]) -> int:
    """Largest number of pairwise disjoint masks, exhaustively."""
    members = sorted(members, key=lambda m: (m.bit_count(), m))
    memo: dict[tuple[int, int], int] = {}

    def rec(i: int, used: int) -> int:
        key = (i, used)
        hit = memo.get(key)
        if hit is not None:
            return hit
        best = 0
        for j in range(i, len(members)):
            if members[j] & used == 0:
                cand = 1 + rec(j + 1, used | members[j])
                if cand > best:
                    best = cand
        memo[key] = best
        return best

    return rec(0, 0)


def lambda_s_oracle_subsets(d: Digraph, seeds: Iterable[int], max_arcs: int = 16) -> int:
    """Oracle: enumerate every arc subset inducing a strong subgraph over the seeds.

    Exact for any seed set of size >= 2; refuses digraphs with more than
    ``max_arcs`` arcs.
    """
    seed_set = sorted(set(seeds))
    if len(seed_set) < 2:
        raise DigraphError(f"seed set needs at least two vertices, got {seed_set}")
    if not all(0 <= v < d.n for v in seed_set):
        raise DigraphError(f"seed set {seed_set} outside 0..{d.n - 1}")
    if len(d.arcs) > max_arcs:
        raise OracleRefusal(f"{len(d.arcs)} arcs exceed the subset-oracle cap of {max_arcs}")
    want = 0
    for v in seed_set:
        want |= 1 << v
    candidates = [mask for mask, verts in _strong_arc_masks(d) if verts & want == want]
    return _max_disjoint_packing(_minimal_antichain(candidates))


def _all_simple_path_masks(d: Digraph, s: int, t: int, cap: int) -> list[int]:
    arcs = d.sorted_arcs
    bit_of = {a: 1 << i for i, a in enumerate(arcs)}
    adj: list[list[tuple[int, int]]] = [[] for _ in range(d.n)]
    for a in arcs:
        adj[a[0]].append((a[1], bit_of[a]))
    for row in adj:
        row.sort()
    out: list[int] = []
    on_path = [False] * d.n

    def dfs(v: int, mask: int) -> None:
        if v == t:
            out.append(mask)
            if len(out) > cap:
                raise OracleRefusal(f"more than {cap} simple paths between seed vertices")
            return
        on_path[v] = True
        for head, bit in adj[v]:
            if not on_path[head]:
                dfs(head, mask | bit)
        on_path[v] = False

    dfs(s, 0)
    return out


def lambda_s_oracle_paths(d: Digraph, seed: Iterable[int], path_cap: int = 100_000) -> int:
    """Oracle: pack unions of one x->y and one y->x simple path, exhaustively.

    Refuses when either simple-path count exceeds ``path_cap``.
    """
    x, y = _validate_pair(d, seed)
    forward = _all_simple_path_masks(d, x, y, path_cap)
    backward = _all_simple_path_masks(d, y, x, path_cap)
    if len(forward) * len(backward) > 2_000_000:
        raise OracleRefusal("path-pair universe too large to enumerate")
    unions = {p | q for p in forward for q in backward}
    return _max_disjoint_packing(_minimal_antichain(sorted(unions)))


def reference_unit_flow(d: Digraph, s: int, t: int, need: int, excluded: int = 0) -> tuple[int, list[int]]:
    """Reference for ``flow._unit_flow``: each augmenting path from one search grown from ``s``.

    Same arguments and result: the path count, and the labels of the last
    search, where -1 marks the vertices ``s`` cannot reach if it failed.
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
    return value, via


def reference_verify_certificate(d: Digraph, cert: CertificateFamily) -> CertificateReport:
    """Reference for ``packing.verify_certificate``: every member rebuilt, every pair of members intersected.

    Each member is rebuilt as a frozenset of tuples and its ends collected in
    a pass of their own; strongness is ``strong_by_closure``.  Raises on an
    arc that is not a pair of numbers, where ``verify_certificate`` reports.
    """
    x, y = _validate_pair(d, cert.seed)
    mem = [frozenset(map(tuple, member)) for member in cert.members]
    in_host: list[bool] = []
    strong: list[bool] = []
    has_seed: list[bool] = []
    for arcs in mem:
        in_host.append(arcs <= d.arcs)
        endpoints = set().union(*arcs)
        has_seed.append(x in endpoints and y in endpoints)
        in_range = bool(arcs) and (in_host[-1] or all(0 <= w < d.n for w in endpoints))
        strong.append(in_range and strong_by_closure(arcs))
    overlaps: list[tuple[int, int, frozenset[tuple[int, int]]]] = []
    for i in range(len(mem)):
        for j in range(i + 1, len(mem)):
            shared = mem[i] & mem[j]
            if shared:
                overlaps.append((i, j, shared))
    valid = all(in_host) and all(strong) and all(has_seed) and not overlaps
    return CertificateReport(valid, tuple(in_host), tuple(strong), tuple(has_seed), tuple(overlaps))


def every_pair_lambda_2(d: Digraph, pairs: Iterable[tuple[int, int]] | None = None) -> Lambda2Result:
    """Reference for the pair sweeps: ``lambda_s_exact`` at each of ``pairs`` (default every pair).

    The result is the least value, at the lexicographically least pair
    that has it, with that pair's ``lambda_s_exact`` witness; ``exact`` when
    ``pairs`` holds every pair.
    """
    every = list(combinations(range(d.n), 2))
    pairs = every if pairs is None else sorted(set(pairs))
    solved = [(lambda_s_exact(d, pair), pair) for pair in pairs]
    value = min(result.value for result, _ in solved)
    result, pair = next((result, pair) for result, pair in solved if result.value == value)
    return Lambda2Result(value, pair, result.witness, len(pairs) == len(every))


def random_digraph(n: int, max_arcs: int, seed: int) -> Digraph:
    """Uniformly sample at most ``max_arcs`` arcs; not necessarily strong."""
    if n < 2:
        raise DigraphError(f"random digraph needs order >= 2, got {n}")
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    count = rng.randint(0, min(max_arcs, len(pairs)))
    return from_arc_list(n, rng.sample(pairs, count))
