"""Packing arc-disjoint strong subgraphs through a seed vertex pair.

For a seed pair S = {x, y} the quantity of interest is the largest number of
pairwise arc-disjoint strong subgraphs of D that all contain x and y.  Every
such subgraph can be shrunk to the union of one x->y path and one y->x path,
so the exact solver packs path-pair unions: classes are built one at a time,
each from paths in the arcs the earlier classes left unused, tried
shortest-first in a fixed lexicographic order, and failed states are memoized
on the bitmask of consumed arcs.  Two independent brute-force oracles
(arc-subset enumeration and path-union enumeration) cross check the solver on
small instances.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .digraph import Arc, Digraph, DigraphError, _automorphism_generators, _strong_on_endpoints
from .flow import _unit_flow, max_flow_unit

_INF = float("inf")


class OracleRefusal(RuntimeError):
    """An oracle declined because the instance exceeds its brute-force budget."""


class _BudgetExhausted(Exception):
    pass


@dataclass(frozen=True)
class CertificateFamily:
    """A family of arc sets, each meant to induce a strong subgraph through the seed pair."""

    n: int
    seed: tuple[int, int]
    members: tuple[frozenset[Arc], ...]
    origin: str = "search"


@dataclass(frozen=True)
class CertificateReport:
    """Per-member verification outcome; ``valid`` only when every check passes."""

    valid: bool
    member_in_host: tuple[bool, ...]
    member_strong: tuple[bool, ...]
    member_has_seed: tuple[bool, ...]
    overlaps: tuple[tuple[int, int, frozenset[Arc]], ...]


@dataclass(frozen=True)
class PackingResult:
    """Seed-pair packing number with witness family and the reason it is optimal.

    When a budget interrupts the search, ``exact`` is False and
    ``lower``/``upper`` bracket the true value (witness proves ``lower``).
    The budget counts search steps: one per search node, per path length
    a path search starts and per arc a path search examines.
    """

    value: int
    witness: CertificateFamily
    optimality: str
    exact: bool
    lower: int
    upper: int


@dataclass(frozen=True)
class Lambda2Result:
    """Minimum seed-pair packing number over sampled or all pairs."""

    value: int
    pair: tuple[int, int]
    witness: CertificateFamily
    exact: bool


def _validate_pair(d: Digraph, seed: Iterable[int]) -> tuple[int, int]:
    pair = tuple(seed)
    if len(pair) != 2:
        raise DigraphError(f"seed pair must have two vertices, got {pair}")
    x, y = pair
    if x == y:
        raise DigraphError("seed vertices must be distinct")
    if not (0 <= x < d.n and 0 <= y < d.n):
        raise DigraphError(f"seed pair {pair} outside 0..{d.n - 1}")
    return (x, y) if x < y else (y, x)


# --- verification ------------------------------------------------------------


def verify_certificate(d: Digraph, cert: CertificateFamily) -> CertificateReport:
    """Check membership, strongness, seed coverage and pairwise disjointness.

    Violations are reported, never raised, so a broken certificate can be
    inspected in full.
    """
    x, y = _validate_pair(d, cert.seed)
    mem = [frozenset(tuple(a) for a in member) for member in cert.members]
    in_host: list[bool] = []
    strong: list[bool] = []
    has_seed: list[bool] = []
    for arcs in mem:
        in_host.append(arcs <= d.arcs)
        endpoints = {w for arc in arcs for w in arc}
        has_seed.append(x in endpoints and y in endpoints)
        in_range = bool(arcs) and all(0 <= w < d.n for w in endpoints)
        strong.append(in_range and _strong_on_endpoints(arcs, endpoints))
    overlaps: list[tuple[int, int, frozenset[Arc]]] = []
    for i in range(len(mem)):
        for j in range(i + 1, len(mem)):
            shared = mem[i] & mem[j]
            if shared:
                overlaps.append((i, j, shared))
    valid = all(in_host) and all(strong) and all(has_seed) and not overlaps
    return CertificateReport(valid, tuple(in_host), tuple(strong), tuple(has_seed), tuple(overlaps))


# --- arc tables and path enumeration ------------------------------------------


class _ArcTables:
    """Arcs as bits, built once per search and shared by the packers of all its pairs.

    ``adj[u]`` lists the out-arcs of ``u`` as ``(head, bit)`` with bit ``1 << i``
    for ``sorted_arcs[i]``, so each row is sorted by head; ``out_mask[u]`` and
    ``in_mask[u]`` are the masks of its out- and in-arcs.  ``dist_to(t)`` gives
    every vertex's distance to ``t``, searched on first use, so a sweep runs
    one search per target however many pairs share it.  Not cached on the
    digraph, where it would outlive the search.
    """

    def __init__(self, d: Digraph) -> None:
        adj: list[list[tuple[int, int]]] = [[] for _ in range(d.n)]
        out_mask = [0] * d.n
        in_mask = [0] * d.n
        for i, (u, v) in enumerate(d.sorted_arcs):
            bit = 1 << i
            adj[u].append((v, bit))
            out_mask[u] |= bit
            in_mask[v] |= bit
        self.adj = tuple(map(tuple, adj))
        self.out_mask, self.in_mask = out_mask, in_mask
        self._in_adj = d.in_adj
        self._dist: list[list[float] | None] = [None] * d.n

    def dist_to(self, t: int) -> list[float]:
        dist = self._dist[t]
        if dist is None:
            dist = [_INF] * len(self._dist)
            dist[t] = 0
            queue = deque([t])
            while queue:
                u = queue.popleft()
                for v in self._in_adj[u]:
                    if dist[v] is _INF:
                        dist[v] = dist[u] + 1
                        queue.append(v)
            self._dist[t] = dist
        return dist


def _paths(
    tables: _ArcTables, s: int, t: int, avoid: int, start: tuple[int, int], ticker: list[int]
) -> Iterator[int]:
    """Simple s->t paths avoiding ``avoid``, as arc bitmasks, in (length, lexicographic) order.

    Only paths after the (length, first-arc bit) key ``start`` come out: the
    longer ones and those of that length whose first arc is a later bit.
    Each length is a depth-first search on an explicit stack, pruned by the
    distances to ``t`` in D, with out-arcs tried in head order.  The ticker
    counts one step per length started and per arc examined, and is written
    back before each path is handed out, since the packer ticks it too while
    this search is paused.
    """
    adj = tables.adj
    dist = tables.dist_to(t)
    if dist[s] is _INF:
        return
    n = len(adj)
    limit = ticker[1]
    on_path = [False] * n
    start_len, start_bit = start
    for target_len in range(max(start_len, int(dist[s])), n):
        ticks = ticker[0] + 1
        if ticks > limit:
            raise _BudgetExhausted
        first_arcs = adj[s] if target_len > start_len else [arc for arc in adj[s] if arc[1] > start_bit]
        on_path[s] = True
        # the open path: its vertices, the arc mask up to each, the out-arcs still to try at each
        verts, masks, arcs_left = [s], [0], [iter(first_arcs)]
        while arcs_left:
            depth = len(arcs_left)
            mask = masks[-1]
            for head, bit in arcs_left[-1]:
                ticks += 1
                if ticks > limit:
                    raise _BudgetExhausted
                if bit & avoid or on_path[head]:
                    continue
                if head == t:
                    if depth == target_len:
                        ticker[0] = ticks
                        yield mask | bit
                        ticks = ticker[0]
                elif depth + dist[head] <= target_len:
                    on_path[head] = True
                    verts.append(head)
                    masks.append(mask | bit)
                    arcs_left.append(iter(adj[head]))
                    break
            else:
                on_path[verts.pop()] = False
                masks.pop()
                arcs_left.pop()
        ticker[0] = ticks


def _replay(seen: list[int], source: Iterator[int]) -> Iterator[int]:
    """The items already drawn from ``source`` (kept in ``seen``), then the ones still to come."""
    yield from seen
    for item in source:
        seen.append(item)
        yield item


# --- exact packing search -----------------------------------------------------


class _SeedPacker:
    """Depth-first packer for arc-disjoint (x->y path, y->x path) unions.

    Each search node lists its own candidates in the arcs not yet used: its
    x->y paths after the key of the previous class's x->y path (which lies
    in ``used``, so no later path is lost), and its y->x paths once, shared
    by all of them.  No path list outlives its node.  A node first applies
    the seed-degree counts and the failure memo, which keeps the least
    start key that failed for each (used arcs, classes still to place).  A
    node with no y->x path in the unused arcs fails at once.  The flow bound
    (both local connectivities in the unused arcs are at least
    ``remaining``) is deferred: a node pays for its two flows only after
    its first child fails, so a node that succeeds on its first try runs
    no flow.  The deferral stays cheap: if a node is flow-infeasible
    (``λ(x, y) < remaining`` in the unused arcs), so is every child,
    because a member crosses every minimum x->y cut at least once, so λ
    falls by at least 1 while ``remaining`` falls by exactly 1.  A
    flow-infeasible node therefore costs at most ``remaining`` first
    descents, each ended by one check.  Results do not change, because a
    flow check only prunes subtrees whose scan would find nothing.

    ``budget`` bounds the search steps: one per search node, per path
    length a path search starts and per arc it examines.
    """

    def __init__(self, d: Digraph, tables: _ArcTables, x: int, y: int, budget: int | None = None) -> None:
        self.d = d
        self.x, self.y = x, y
        self.arcs = d.sorted_arcs
        self.tables = tables
        self.ticker = [0, budget if budget is not None else float("inf")]
        self.out_x, self.in_x = tables.out_mask[x], tables.in_mask[x]
        self.out_y, self.in_y = tables.out_mask[y], tables.in_mask[y]
        self.fail_memo: dict[tuple[int, int], tuple[int, int]] = {}
        self.stack: list[int] = []
        self.best_partial: list[int] = []

    def masks_to_arcs(self, masks: Iterable[int]) -> tuple[frozenset[Arc], ...]:
        out = []
        for mask in masks:
            member = set()
            m = mask
            while m:
                low = m & -m
                member.add(self.arcs[low.bit_length() - 1])
                m ^= low
            out.append(frozenset(member))
        return tuple(out)

    def feasible(self, k: int) -> list[int] | None:
        """The arc masks of a packing of exactly k classes, or None when impossible."""
        return self._rec(0, k, (0, 0))

    def _flow_short(self, used: int, remaining: int) -> bool:
        """True when fewer than ``remaining`` arc-disjoint paths avoid ``used`` in either direction."""
        return (
            _unit_flow(self.d, self.x, self.y, remaining, used)[0] < remaining
            or _unit_flow(self.d, self.y, self.x, remaining, used)[0] < remaining
        )

    def _rec(self, used: int, remaining: int, start: tuple[int, int]) -> list[int] | None:
        """``remaining`` classes outside ``used`` whose x->y paths come after ``start``, or None."""
        if remaining == 0:
            return []
        self.ticker[0] += 1
        if self.ticker[0] > self.ticker[1]:
            raise _BudgetExhausted
        if (self.out_x & ~used).bit_count() < remaining:
            return None
        if (self.in_x & ~used).bit_count() < remaining:
            return None
        if (self.out_y & ~used).bit_count() < remaining:
            return None
        if (self.in_y & ~used).bit_count() < remaining:
            return None
        memo_start = self.fail_memo.get((used, remaining))
        if memo_start is not None and memo_start <= start:
            return None
        flows_checked = False
        # the y->x paths avoiding ``used``, drawn once and shared by every x->y candidate
        back_seen: list[int] = []
        back_more = _paths(self.tables, self.y, self.x, used, (0, 0), self.ticker)
        for pmask in _paths(self.tables, self.x, self.y, used, start, self.ticker):
            key = (pmask.bit_count(), pmask & self.out_x)
            for qmask in _replay(back_seen, back_more):
                member = pmask | qmask
                self.stack.append(member)
                if len(self.stack) > len(self.best_partial):
                    self.best_partial = list(self.stack)
                sub = self._rec(used | member, remaining - 1, key)
                self.stack.pop()
                if sub is not None:
                    return [member] + sub
                if not flows_checked and self._flow_short(used, remaining):
                    return None
                flows_checked = True
            if not back_seen:
                return None
        self.fail_memo[(used, remaining)] = start  # below any stored key, or the memo would have hit
        return None


def _seed_degree(d: Digraph, x: int, y: int) -> int:
    """Fewest arcs at a seed on one side: no packing through x and y exceeds it."""
    return min(d.out_degree(x), d.in_degree(x), d.out_degree(y), d.in_degree(y))


def _seed_bounds(d: Digraph, x: int, y: int) -> tuple[int, int]:
    """The seed-degree bound and the flow bound ``min(degree, λ(x, y), λ(y, x))``.

    Both flows are capped at the degree bound, above which they never matter.
    """
    deg = _seed_degree(d, x, y)
    if deg == 0:
        return 0, 0
    return deg, min(max_flow_unit(d, x, y, cap=deg).value, max_flow_unit(d, y, x, cap=deg).value)


def lambda_s_upper_bound(d: Digraph, seed: Iterable[int]) -> int:
    """Cheap upper bound: seed degrees and both local connectivities."""
    return _seed_bounds(d, *_validate_pair(d, seed))[1]


def _exact(
    d: Digraph, tables: _ArcTables, x: int, y: int, cap: int | None = None, budget: int | None = None
) -> PackingResult:
    """Largest feasible packing size, iterating k downward from the upper bound.

    With ``cap`` set the result value is min(true value, cap); callers use the
    cap only when the true value is already known to lie below it.
    """
    deg_bound, flow_bound = _seed_bounds(d, x, y)
    ub = flow_bound if cap is None else min(flow_bound, cap)
    if ub == 0:
        empty = CertificateFamily(d.n, (x, y), ())
        return PackingResult(0, empty, "unreachable", True, 0, 0)
    packer = _SeedPacker(d, tables, x, y, budget)
    for k in range(ub, 0, -1):
        try:
            masks = packer.feasible(k)
        except _BudgetExhausted:
            lower = len(packer.best_partial)
            witness = CertificateFamily(d.n, (x, y), packer.masks_to_arcs(packer.best_partial))
            return PackingResult(lower, witness, "budget", False, lower, k)
        if masks is not None:
            if k == deg_bound:
                why = "degree-bound"
            elif k == flow_bound:
                why = "flow-bound"
            else:
                why = "search-closed"
            witness = CertificateFamily(d.n, (x, y), packer.masks_to_arcs(masks))
            return PackingResult(k, witness, why, True, k, k)
    empty = CertificateFamily(d.n, (x, y), ())
    return PackingResult(0, empty, "search-closed", True, 0, 0)


def lambda_s_exact(d: Digraph, seed: Iterable[int], budget: int | None = None) -> PackingResult:
    """Exact seed-pair packing number with a verified witness family.

    ``budget`` bounds the search steps (search nodes, path lengths started,
    arcs examined); past it the result is a bracket (see ``PackingResult``).
    A search node runs its flow bound only after its first child fails.  The
    witness is verified before return; a witness that fails raises
    ``RuntimeError``.
    """
    x, y = _validate_pair(d, seed)
    result = _exact(d, _ArcTables(d), x, y, budget=budget)
    if not verify_certificate(d, result.witness).valid:
        raise RuntimeError(f"lambda_s_exact witness for pair {(x, y)} does not verify")
    return result


def _pair_orbit_representatives(d: Digraph) -> list[tuple[int, int]]:
    """The least pair of each orbit of pairs ``x < y`` under the automorphisms found for ``d``.

    Returned in lexicographic order.  Pairs are taken in that order and each
    one not yet reached closes its whole orbit, so it is the orbit's least
    pair.  With no automorphism found, every pair is its own representative.
    """
    n = d.n
    generators = _automorphism_generators(d)
    reached = bytearray(n * n)  # pair (x, y) with x < y is x * n + y
    reps: list[tuple[int, int]] = []
    for x in range(n):
        for y in range(x + 1, n):
            if reached[x * n + y]:
                continue
            reached[x * n + y] = 1
            reps.append((x, y))
            stack = [(x, y)]
            while stack:
                a, b = stack.pop()
                for perm in generators:
                    pa, pb = perm[a], perm[b]
                    if pa > pb:
                        pa, pb = pb, pa
                    if not reached[pa * n + pb]:
                        reached[pa * n + pb] = 1
                        stack.append((pa, pb))
    return reps


def lambda_2(d: Digraph, samples: int | None = None, seed: int | None = None) -> Lambda2Result:
    """Minimum seed-pair packing number over all pairs (or a seeded sample).

    The exhaustive sweep visits one pair per orbit of pairs under a group of
    automorphisms of ``d``: the least pair of each orbit, in lexicographic
    order.  The group is generated by permutations found by
    individualisation and refinement and checked to map the arc set onto
    itself, and ``λ_S(D) = λ_φ(S)(D)`` for every automorphism φ.  Each
    skipped pair therefore has the value of a smaller pair already swept,
    so it could never have lowered the running minimum, and the value, the
    lexicographically least minimizing pair and its witness are those of
    the sweep over all pairs.  When the generator search runs out of its
    fixed node budget, the generators verified so far still merge pairs;
    the sweep stays exact and merely visits more of them.

    Each visited pair is screened for feasibility at the running minimum
    before paying for an exact computation.  Sampled sweeps visit every
    sampled pair, yield an upper bound and are flagged inexact.  The
    returned witness is verified before return; a witness that fails
    raises ``RuntimeError``.
    """
    if d.n < 2:
        raise DigraphError("pair sweep needs at least two vertices")
    if samples is not None and samples < 1:
        raise DigraphError(f"samples must be at least 1, got {samples}")
    if samples is None:
        pairs = _pair_orbit_representatives(d)
        exact = True
    else:
        if seed is None:
            raise DigraphError("sampled sweep needs an explicit seed")
        import random

        all_pairs = [(x, y) for x in range(d.n) for y in range(x + 1, d.n)]
        rng = random.Random(seed)
        pairs = sorted(rng.sample(all_pairs, min(samples, len(all_pairs))))
        exact = False
    tables = _ArcTables(d)
    best: PackingResult | None = None
    best_pair: tuple[int, int] = pairs[0]
    for x, y in pairs:
        if best is None:
            best = _exact(d, tables, x, y)
            best_pair = (x, y)
            continue
        if best.value == 0:
            break
        deg_bound = _seed_degree(d, x, y)
        if deg_bound >= best.value:
            if _SeedPacker(d, tables, x, y).feasible(best.value) is not None:
                continue
            cap = best.value - 1
        else:
            cap = deg_bound
        result = _exact(d, tables, x, y, cap=cap)
        if result.value < best.value:
            best, best_pair = result, (x, y)
    assert best is not None
    if not verify_certificate(d, best.witness).valid:
        raise RuntimeError(f"lambda_2 witness for pair {best_pair} does not verify")
    return Lambda2Result(best.value, best_pair, best.witness, exact)


# --- brute-force oracles -------------------------------------------------------


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


# --- certificate serialization --------------------------------------------------


def certificate_to_json(cert: CertificateFamily) -> str:
    payload = {
        "n": cert.n,
        "s": cert.seed[0],
        "t": cert.seed[1],
        "members": [sorted([list(a) for a in member]) for member in cert.members],
        "origin": cert.origin,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def certificate_from_json(text: str) -> CertificateFamily:
    try:
        payload = json.loads(text)
        members = tuple(
            frozenset((int(u), int(v)) for u, v in member) for member in payload["members"]
        )
        return CertificateFamily(
            int(payload["n"]),
            (int(payload["s"]), int(payload["t"])),
            members,
            str(payload.get("origin", "search")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DigraphError(f"malformed certificate JSON: {exc}") from exc
