"""Packing arc-disjoint strong subgraphs through a seed vertex pair.

For a seed pair S = {x, y} the quantity of interest is the largest number of
pairwise arc-disjoint strong subgraphs of D that all contain x and y.  Every
such subgraph can be shrunk to the union of one x->y path and one y->x path,
so the exact solver packs path-pair unions: classes are built one at a time,
each from paths in the arcs the earlier classes left unused, tried
shortest-first in a fixed lexicographic order, and failed states are memoized
on the bitmask of consumed arcs.  Each class takes exactly one arc from each
of out(x), in(x), out(y) and in(y) (its x->y path leaves x once and never
enters it, its y->x path the reverse, likewise at y), so the seed-degree test
is needed only at the root and the consumed arcs fix the classes still to place.
"""

from __future__ import annotations

import json
import random
from collections import deque
from math import isqrt
from typing import Callable, Iterable, Iterator, NamedTuple

from .digraph import (
    Arc,
    Digraph,
    DigraphError,
    _strong_on_endpoints,
    degrees,
    is_strong,
    is_symmetric,
)
from .flow import _cycle_value, _unit_flow

_INF = float("inf")


class _BudgetExhausted(Exception):
    pass


class CertificateFamily(NamedTuple):
    """A family of arc sets, each meant to induce a strong subgraph through the seed pair."""

    n: int
    seed: tuple[int, int]
    members: tuple[frozenset[Arc], ...]
    origin: str = "search"


class CertificateReport(NamedTuple):
    """Per-member verification outcome; ``valid`` only when every check passes."""

    valid: bool
    member_in_host: tuple[bool, ...]
    member_strong: tuple[bool, ...]
    member_has_seed: tuple[bool, ...]
    overlaps: tuple[tuple[int, int, frozenset[Arc]], ...]


class PackingResult(NamedTuple):
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


class Lambda2Result(NamedTuple):
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
    inspected in full.  Only input that cannot be read as arcs raises: a
    seed pair that is not two distinct vertices of the host raises
    ``DigraphError``, and a member or arc that is not iterable, or an arc
    with an unhashable entry, ``TypeError``.  An arc that is not a pair of
    numbers, such as ``(0, 1, 2)``, ``(0,)`` or ``('a', 'b')``, leaves its
    member outside the host and not strong; a member holds the seed when
    both seed vertices occur among the entries of its arcs, whatever their
    length.  A frozenset of host arcs is read once: its successor and
    predecessor lists give its strongness and its ends.  Members are
    intersected pairwise only when their sizes add up to more than their union.
    """
    x, y = _validate_pair(d, cert.seed)
    host, n = d.arcs, d.n
    mem: list[frozenset[Arc]] = []
    in_host: list[bool] = []
    strong: list[bool] = []
    has_seed: list[bool] = []
    for member in cert.members:
        if isinstance(member, frozenset) and member <= host:
            arcs, inside = member, True
        else:
            arcs = frozenset(map(tuple, member))
            inside = arcs <= host
        mem.append(arcs)
        in_host.append(inside)
        if not arcs:
            ok, ends = False, ()
        elif inside:
            ok, ends = _strong_on_endpoints(arcs)
        else:
            # off the host an arc may be malformed or name no vertex of the host
            ends = set().union(*arcs)
            try:
                ok = all(len(arc) == 2 for arc in arcs) and all(0 <= w < n for w in ends)
            except TypeError:  # an entry that no vertex number compares with
                ok = False
            ok = ok and _strong_on_endpoints(arcs)[0]
        strong.append(ok)
        has_seed.append(x in ends and y in ends)
    overlaps: list[tuple[int, int, frozenset[Arc]]] = []
    if len(frozenset().union(*mem)) < sum(map(len, mem)):
        for i in range(len(mem)):
            for j in range(i + 1, len(mem)):
                shared = mem[i] & mem[j]
                if shared:
                    overlaps.append((i, j, shared))
    valid = all(in_host) and all(strong) and all(has_seed) and not overlaps
    return CertificateReport(valid, tuple(in_host), tuple(strong), tuple(has_seed), tuple(overlaps))


# --- arc tables and path enumeration ------------------------------------------


class _ArcTables:
    """Arcs as bits, built once per digraph and shared by the packers of all its pairs.

    A sweep builds one set for its pairs.  A factor's ``_FactorPackings``
    record builds one set and shares it between the factor's own ``λ₂``
    sweep and every packing the record searches later.

    ``adj[u]`` lists the out-arcs of ``u`` as ``(head, bit)`` with bit ``1 << i``
    for ``sorted_arcs[i]``, so each row is sorted by head and its bits are
    consecutive.  ``dist_to(t)`` gives every vertex's distance to ``t``,
    searched on first use, so a sweep runs one search per target however
    many pairs share it.  Not cached on the digraph, where it would outlive
    the sweep or record that built it.
    """

    def __init__(self, d: Digraph) -> None:
        adj: list[list[tuple[int, int]]] = [[] for _ in range(d.n)]
        for i, (u, v) in enumerate(d.sorted_arcs):
            adj[u].append((v, 1 << i))
        self.adj = tuple(map(tuple, adj))
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
    distances to ``t`` in D, with out-arcs tried in head order.  A search
    that started from every first arc (any but the one at ``start``'s
    length) and ran to its end skips the lengths with no path: the next
    length searched is the least ``depth + dist[head]`` over the arcs it
    pruned, and none is searched if it pruned none.  That search follows any
    longer simple path until it prunes one of its arcs, at the latest the
    arc at its own length, whose head is not ``t``; and the path is at least
    that arc's ``depth + dist[head]`` long.  The ticker counts one step per
    length started and per arc examined, and is written back before each
    path is handed out, since the packer ticks it too while this search is
    paused.
    """
    adj = tables.adj
    dist = tables.dist_to(t)
    if dist[s] is _INF:
        return
    n = len(adj)
    limit = ticker[1]
    on_path = [False] * n
    start_len, start_bit = start
    target_len = max(start_len, int(dist[s]))
    while target_len < n:
        ticks = ticker[0] + 1
        if ticks > limit:
            raise _BudgetExhausted
        first_arcs = adj[s] if target_len > start_len else [arc for arc in adj[s] if arc[1] > start_bit]
        on_path[s] = True
        # the open path: its vertices, the arc mask up to each, the out-arcs still to try at each
        verts, masks, arcs_left = [s], [0], [iter(first_arcs)]
        next_len = _INF
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
                else:
                    reach = depth + dist[head]
                    if reach <= target_len:
                        on_path[head] = True
                        verts.append(head)
                        masks.append(mask | bit)
                        arcs_left.append(iter(adj[head]))
                        break
                    if reach < next_len:
                        next_len = reach
            else:
                on_path[verts.pop()] = False
                masks.pop()
                arcs_left.pop()
        ticker[0] = ticks
        target_len = next_len if target_len > start_len else target_len + 1


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
    by all of them.  No path list outlives its node.

    Every class takes one arc from each of out(x), in(x), out(y) and in(y),
    so after j classes each seed count is its degree minus j and
    ``remaining`` is k minus j.  So the seed-degree test fails at a node
    exactly when it fails at the root, where ``feasible`` makes it once;
    and the failure memo (the least start key that failed) is keyed on
    ``used`` alone and emptied at each ``feasible`` call, since under
    another k the same ``used`` has another ``remaining``.  A node first
    applies the memo, and a node with no y->x path left fails at once.

    The flow bound (both local connectivities in the unused arcs are at
    least ``remaining``) is deferred: a node pays for its two flows only
    after its first child fails, so a node that succeeds on its first try
    runs no flow.  The deferral stays cheap: if a node is flow-infeasible
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
        self.tables = tables
        self.ticker = [0, budget if budget is not None else float("inf")]
        row = tables.adj[x]  # consecutive bits 2^i .. 2^j, which sum to 2^(j+1) - 2^i
        self.out_x = 2 * row[-1][1] - row[0][1] if row else 0
        self.fail_memo: dict[int, tuple[int, int]] = {}
        self.stack: list[int] = []
        self.best_partial: list[int] = []

    def masks_to_arcs(self, masks: Iterable[int]) -> tuple[frozenset[Arc], ...]:
        out = []
        for m in masks:
            member = set()
            while m:
                low = m & -m
                member.add(self.d.sorted_arcs[low.bit_length() - 1])
                m ^= low
            out.append(frozenset(member))
        return tuple(out)

    def feasible(self, k: int) -> list[int] | None:
        """The arc masks of a packing of exactly k classes, or None when impossible."""
        if k > _seed_degree(self.d, self.x, self.y):
            return None
        self.fail_memo = {}
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
        memo_start = self.fail_memo.get(used)
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
        self.fail_memo[used] = start  # below any stored key, or the memo would have hit
        return None


def _seed_degree(d: Digraph, x: int, y: int) -> int:
    """Fewest arcs at a seed on one side: no packing through x and y exceeds it."""
    return min(d.out_degree(x), d.in_degree(x), d.out_degree(y), d.in_degree(y))


def _seed_bounds(d: Digraph, x: int, y: int, floor: int = 0) -> tuple[int, int]:
    """The seed-degree bound and the flow bound ``min(degree, λ(x, y), λ(y, x))``.

    ``floor`` is a lower bound on ``λ_{x,y}(D)`` that the caller has proved.
    Each member of a packing holds an x->y and a y->x path, so
    ``λ(x, y) ≥ λ_{x,y}(D) ≥ floor`` and likewise ``λ(y, x)``; when the
    floor reaches the degree bound, the flow bound is the degree bound and
    no flow runs.  Otherwise both flows stop at the degree bound, above
    which they never matter, and only their values are read: no cut is built.
    """
    deg = _seed_degree(d, x, y)
    if deg <= floor:
        return deg, deg
    return deg, min(_unit_flow(d, x, y, deg)[0], _unit_flow(d, y, x, deg)[0])


def _exact(
    d: Digraph,
    tables: _ArcTables,
    x: int,
    y: int,
    cap: int | None = None,
    budget: int | None = None,
    floor: int = 0,
) -> PackingResult:
    """Largest feasible packing size, iterating k downward from the upper bound.

    With ``cap`` set the result value is min(true value, cap); callers use the
    cap only when the true value is already known to lie below it.  Each
    ``feasible(k)`` starts with an empty failure memo and every k above the
    value fails, so a cap at or above the value finds the uncapped packing,
    whose members each have one arc in each of out(x), in(x), out(y), in(y).

    ``floor`` is a lower bound on the pair's value that the caller has
    already proved (a factor's ``λ₂``, a sweep's bound at the pair, a
    symmetric digraph's flow value); it only spares the seed flows (see
    ``_seed_bounds``).  A sound floor leaves the upper bound as it was, so
    the packer makes the same ``feasible(k)`` calls in the same order and
    every field of the result is the one without it.  A value still to be
    checked is never a floor.  Under a sound floor ``feasible(1)`` succeeds
    (``ub ≥ 1`` means both seed paths exist); else ``RuntimeError`` is raised.
    """
    deg_bound, flow_bound = _seed_bounds(d, x, y, floor)
    ub = flow_bound if cap is None else min(flow_bound, cap)
    if ub == 0:
        return PackingResult(0, CertificateFamily(d.n, (x, y), ()), "unreachable", True, 0, 0)
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
    raise RuntimeError(f"pair {(x, y)} has no packing of size 1 to {ub}: the floor is unsound")


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


# the one-vertex digraph K₁: ``g □ K₁`` is ``g``, vertex for vertex
_POINT = Digraph(1, frozenset())


def _pair_orbit_representatives(g: Digraph, h: Digraph = _POINT) -> Iterator[tuple[int, int]]:
    """The least pair ``x < y`` of each orbit of seed pairs of ``G □ H`` under ``Aut(G) × Aut(H)``.

    Each factor's group is the one its ``pair_orbits`` table is taken
    under, and vertex ``r * m + c`` is ``(r, c)`` (H of order ``m``); with
    the default ``h``, the one-vertex ``_POINT``, these are the orbits of
    ``g`` itself.  The group acts one coordinate at a time, so the ordered
    pair ``((r1, c1), (r2, c2))`` has orbit ``(oG[r1, r2], oH[c1, c2])``,
    and the unordered pair the lesser of that and its reverse's.  Pairs are
    taken in lexicographic order and each one whose key has not been seen
    is yielded, so it is its orbit's least pair.  For fixed ``x`` and
    second row ``r2`` the G part of the key is fixed, so a block whose G
    part has met every H part is passed over whole.  ``(0, 1)``, always
    the first, is yielded before either table is read.
    """
    yield 0, 1
    g_orbits, h_orbits = g.pair_orbits, h.pair_orbits
    n, m = g.n, h.n
    back = [h_orbits[c::m] for c in range(m)]  # back[c1][c2] is oH[c2, c1]
    fwd = [h_orbits[c * m : (c + 1) * m] for c in range(m)]
    both = [list(map(min, f, b)) for f, b in zip(fwd, back)]
    # the number of H parts a G part can meet: any ordered H orbit, or an unordered one when
    # the G orbit holds both (r1, r2) and (r2, r1)
    n_fwd, n_both = len(set(h_orbits)), len({o for row in both for o in row})
    seen: dict[int, set[int]] = {}
    for x in range(n * m):
        r1, c1 = divmod(x, m)
        for r2 in range(r1, n):
            g_fwd, g_back = g_orbits[r1 * n + r2], g_orbits[r2 * n + r1]
            if g_fwd == g_back:
                key, row, full = g_fwd, both[c1], n_both
            elif g_fwd < g_back:
                key, row, full = g_fwd, fwd[c1], n_fwd
            else:
                key, row, full = g_back, back[c1], n_fwd
            met = seen.setdefault(key, set())
            if len(met) == full:
                continue
            for c2 in range(c1 + 1 if r2 == r1 else 0, m):
                if row[c2] not in met:
                    met.add(row[c2])
                    if x or r2 * m + c2 > 1:  # (0, 1) came first
                        yield x, r2 * m + c2


def lambda_2(d: Digraph, samples: int | None = None, seed: int | None = None) -> Lambda2Result:
    """Minimum seed-pair packing number over all pairs (or a seeded sample).

    The exhaustive sweep of a symmetric digraph (every arc has its reverse)
    runs no pair search.  There ``λ_S(D) = λ(x, y)`` for every pair
    ``S = {x, y}``: each member holds an x->y path, so ``λ_S ≤ λ(x, y)``;
    conversely, cancel the flow on opposite arc pairs of a maximum x->y
    flow and split it into paths.  The reversed paths are y->x paths of the
    same number, and no reversed arc carries flow, so path i with its
    reverse gives ``λ(x, y)`` arc-disjoint strong subgraphs through x and
    y.  Every minimum cut separates 0 from some v, and ``λ(0, v) = λ(v, 0)``,
    so ``λ₂(D) = λ(D)``, and the lexicographically least minimizing pair
    is ``(0, v)`` for the least v with ``λ(0, v) = λ(D)`` (see
    ``_flow_sweep``).  The witness is the first packing of that size the
    packer finds at that pair, the one ``_search_sweep`` reports.

    Otherwise (not symmetric, or ``samples`` given) the pairs are searched,
    see ``_search_sweep``, over the orbits of ``d``'s automorphisms, read
    from its cached ``pair_orbits`` table once the sweep goes past
    ``(0, 1)``: the bare sweep is the product sweep of ``d □ K₁``.
    ``constructions.product_lambda_2`` reads the factors' tables instead,
    the same ones their own sweeps cached.  Every sweep stops at the floor,
    1 when D is strong and 0 otherwise (see ``_search_sweep``).
    The returned witness is verified before return; a witness that fails
    raises ``RuntimeError``.  A ``seed`` without ``samples`` raises
    ``DigraphError``: only a sampled sweep draws pairs.
    """
    if seed is not None and samples is None:
        raise DigraphError("a seed needs samples")
    return _lambda_2(d, _ArcTables(d), samples, seed)


def _lambda_2(
    d: Digraph, tables: _ArcTables, samples: int | None = None, seed: int | None = None
) -> Lambda2Result:
    """``lambda_2`` on arc tables the caller built for ``d``, such as a factor record's own."""
    if samples is None and d.n >= 2 and is_symmetric(d):
        return _flow_sweep(d, tables)
    return _search_sweep(d, samples, seed, tables=tables)


def _floor(d: Digraph) -> int:
    """A lower bound on ``λ_S(D)`` for every pair S: 1 when D is strong (D is a member), else 0."""
    return 1 if is_strong(d) else 0


def _flow_sweep(d: Digraph, tables: _ArcTables) -> Lambda2Result:
    """``lambda_2`` of a symmetric digraph on two or more vertices, from ``λ`` and its least pair.

    ``λ`` is ``flow._cycle_value``'s, or 0 when D is not strong.  The target
    is the least v with ``λ(0, v) = λ``: 1 when ``δ⁺(0) = λ``, since
    ``λ(0, 1) <= δ⁺(0)``, else the first v whose flow capped at ``λ + 1``
    stops at ``λ``.  So ``λ_S(D)`` at that pair is the value (see
    ``lambda_2``), and the packing search there takes it as its proven
    floor and runs no seed flow when it reaches the seed degree.
    """
    value = _cycle_value(d, min(degrees(d)))[0] if is_strong(d) else 0
    target = 1
    if d.out_degree(0) != value:
        target = next(v for v in range(1, d.n) if _unit_flow(d, 0, v, value + 1)[0] == value)
    result = _exact(d, tables, 0, target, floor=value)
    if result.value != value or not verify_certificate(d, result.witness).valid:
        raise RuntimeError(f"lambda_2 witness for pair {(0, target)} does not verify at value {value}")
    return Lambda2Result(value, (0, target), result.witness, True)


def _sampled_pairs(n: int, samples: int, seed: int) -> list[tuple[int, int]]:
    """``samples`` pairs ``x < y`` (all if fewer), sorted: the draw from the x-major list of all
    pairs by ``random.Random(seed).sample``, which picks the same indices from ``range``."""
    total = n * (n - 1) // 2
    pairs = []
    for i in sorted(random.Random(seed).sample(range(total), min(samples, total))):
        j = total - 1 - i  # counted back from the last pair, (n - 2, n - 1)
        row = (isqrt(8 * j + 1) + 1) // 2  # x = n - 1 - row has row pairs, and j falls among them
        pairs.append((n - 1 - row, n - 1 - (j - row * (row - 1) // 2)))
    return pairs


def _search_sweep(
    d: Digraph,
    samples: int | None = None,
    seed: int | None = None,
    product: tuple[Digraph, Digraph, Callable[[int, int, int], int]] | None = None,
    tables: _ArcTables | None = None,
) -> Lambda2Result:
    """``lambda_2`` by packing search over pair-orbit representatives (or a seeded sample).

    The exhaustive sweep visits one pair per orbit of pairs under a group
    of automorphisms of ``d``: the least pair of each orbit, in
    lexicographic order, so ``(0, 1)`` first, drawn one at a time from
    ``_pair_orbit_representatives``.  ``λ_S(D) = λ_φ(S)(D)`` for every
    automorphism φ, so each skipped pair has the value of a smaller pair
    already swept, could never have lowered the running minimum, and the
    value, the lexicographically least minimizing pair and its witness are
    those of the sweep over all pairs.  That holds for any group of
    automorphisms.  A bare sweep reads ``d □ K₁``: the group the generator
    search finds for ``d`` (checked permutations, so a search cut short by
    its node budget only merges fewer pairs).  A product sweep reads
    ``G □ H`` and ``Aut(G) × Aut(H)`` from the factors' own tables, and
    runs no automorphism search on ``d``.  That group can be smaller than
    ``Aut(G □ H)``, which for ``G ≅ H`` also swaps the coordinates; the
    sweep then visits more pairs, with the same value, pair and witness.
    A sampled sweep visits the sampled pairs in lexicographic order and
    yields an upper bound, flagged inexact unless the sample holds every
    pair.

    Both sweeps follow one rule, read from a proven lower bound on each
    pair's value, ``lower(x, y, need)``:

    - the first pair is solved exactly, and the sweep stops once the
      running minimum is at most the floor (1 when D is strong, else 0): a
      strong D is itself a strong subgraph through every pair, so no later
      pair goes below it (nor is an orbit table built after ``(0, 1)``);
    - a later pair is skipped once the minimum is at most its bound, since
      only a strictly smaller value replaces the best pair.  Otherwise it
      is screened for feasibility at the minimum (a pair whose seed degree
      is below it fails at the root) and solved exactly, capped one below
      it (see ``_exact``), only when the screen fails;
    - every exact solve takes the pair's bound as its proven floor, so it
      runs no seed flow where the bound reaches the seed degree.

    So the value, the least minimizing pair and its witness are those of
    solving every visited pair.  ``lower`` is asked with ``need`` the
    minimum for the skip, and the seed degree, which no value exceeds, for
    a solve's floor: it must reach ``need`` when it can prove it, and need
    not go higher.  A bare or sampled sweep's bound is the floor.
    ``product`` is ``(G, H, lower)`` for ``d = G □ H``, with bounds from
    a lifting construction on the factors' packings (see
    ``constructions._lift_settled_sweep``), not from a search of ``d``.
    The returned witness is verified before return; a witness that fails
    raises ``RuntimeError``.  ``tables`` are ``d``'s arc tables when the
    caller has built them.
    """
    if d.n < 2:
        raise DigraphError("pair sweep needs at least two vertices")
    if samples is not None and samples < 1:
        raise DigraphError(f"samples must be at least 1, got {samples}")
    if samples is not None and seed is None:
        raise DigraphError("sampled sweep needs an explicit seed")
    floor = _floor(d)
    g, h, lower = product if product is not None else (d, _POINT, lambda x, y, need: floor)
    tables = tables or _ArcTables(d)
    if samples is None:
        pairs, exact = _pair_orbit_representatives(g, h), True
    else:
        pairs = _sampled_pairs(d.n, samples, seed)
        exact = len(pairs) == d.n * (d.n - 1) // 2
    minimum = _INF  # above every value: the first pair is solved, unscreened and uncapped
    for x, y in pairs:
        if minimum < _INF:
            if minimum <= lower(x, y, minimum) or _SeedPacker(d, tables, x, y).feasible(minimum) is not None:
                continue
        low = lower(x, y, _seed_degree(d, x, y))
        best, best_pair = _exact(d, tables, x, y, cap=minimum - 1, floor=low), (x, y)
        minimum = best.value
        if minimum <= floor:
            break
    if not verify_certificate(d, best.witness).valid:
        raise RuntimeError(f"lambda_2 witness for pair {best_pair} does not verify")
    return Lambda2Result(best.value, best_pair, best.witness, exact)


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
