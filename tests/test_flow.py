"""Max-flow based arc connectivity: local values, global minima, cut verification."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from strongarc import flow
from strongarc.digraph import Digraph, DigraphError, degrees, from_arc_list, is_strong
from strongarc.flow import LocalArcConnectivity, _unit_flow, arc_connectivity, max_flow_unit, verify_cut
from strongarc.generators import (
    bidirected_cycle,
    complete_digraph,
    directed_cycle,
    random_strong_digraph,
)
from strongarc.product import cartesian_product

from oracles import random_digraph, reference_unit_flow


def brute_arc_connectivity(d: Digraph) -> int:
    """Minimum out-arc count over all nonempty proper vertex subsets."""
    if not is_strong(d):
        return 0
    best = len(d.arcs)
    for size in range(1, d.n):
        for side in combinations(range(d.n), size):
            inside = set(side)
            out = sum(1 for u, v in d.arcs if u in inside and v not in inside)
            best = min(best, out)
    return best


def brute_local_value(d: Digraph, s: int, t: int) -> int:
    """Fewest arcs leaving a vertex set that holds s but not t."""
    others = [v for v in range(d.n) if v not in (s, t)]
    return min(
        sum(1 for u, v in d.arcs if u in side and v not in side)
        for size in range(len(others) + 1)
        for extra in combinations(others, size)
        for side in [{s, *extra}]
    )


def brute_max_arc_disjoint_paths(d: Digraph, s: int, t: int, target: int) -> bool:
    """Check whether target arc-disjoint s->t paths exist, by exhaustive packing."""

    def paths_from(arcs: frozenset, need: int) -> bool:
        if need == 0:
            return True
        # enumerate simple paths s->t within `arcs`, recurse on the remainder
        stack = [(s, (s,), frozenset())]
        while stack:
            node, trail, used = stack.pop()
            for u, v in arcs:
                if u != node or (u, v) in used or v in trail[:-1]:
                    continue
                if v == t:
                    if paths_from(arcs - used - {(u, v)}, need - 1):
                        return True
                elif v != s:
                    stack.append((v, trail + (v,), used | {(u, v)}))
        return False

    return paths_from(d.arcs, target)


def brute_min_cut(d: Digraph, s: int, t: int) -> frozenset:
    """Arcs leaving the smallest source side of a minimum s-t cut, by enumerating every side.

    Minimum-cut source sides are closed under intersection, so their
    intersection is the unique minimal one.
    """
    others = [v for v in range(d.n) if v not in (s, t)]
    best, sides = None, []
    for size in range(len(others) + 1):
        for extra in combinations(others, size):
            side = {s, *extra}
            out = frozenset((u, v) for u, v in d.arcs if u in side and v not in side)
            if best is None or len(out) < best:
                best, sides = len(out), [side]
            elif len(out) == best:
                sides.append(side)
    minimal = set.intersection(*sides)
    return frozenset((u, v) for u, v in d.arcs if u in minimal and v not in minimal)


class TestLocalFlow:
    def test_known_product_instance(self):
        p = cartesian_product(directed_cycle(3), bidirected_cycle(3))
        s, t = p.encode(0, 0), p.encode(1, 1)
        local = max_flow_unit(p.digraph, s, t)
        assert local.value == 3
        assert len(local.cut) == 3
        assert brute_max_arc_disjoint_paths(p.digraph, s, t, 3)

    def test_no_path(self):
        d = from_arc_list(3, [(1, 0), (2, 1)])
        local = max_flow_unit(d, 0, 2)
        assert local.value == 0 and local.cut == frozenset()

    def test_cut_separates(self):
        d = complete_digraph(4)
        local = max_flow_unit(d, 0, 3)
        assert local.value == 3
        stripped = Digraph(d.n, d.arcs - local.cut)
        assert max_flow_unit(stripped, 0, 3).value == 0


@st.composite
def digraphs(draw, max_order=7):
    """Any digraph on 2..max_order vertices; half get a Hamiltonian cycle, so strong ones come up often."""
    n = draw(st.integers(2, max_order))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = draw(st.lists(st.sampled_from(pairs), max_size=3 * n))
    if draw(st.booleans()):
        arcs += [(v, (v + 1) % n) for v in range(n)]
    return from_arc_list(n, arcs)


def closure_strong(n: int, arcs) -> bool:
    """Strongness by transitive closure (Warshall): every ordered pair joined by a path."""
    reach = [[u == v or (u, v) in arcs for v in range(n)] for u in range(n)]
    for k in range(n):
        for u in range(n):
            if reach[u][k]:
                reach[u] = [a or b for a, b in zip(reach[u], reach[k])]
    return all(all(row) for row in reach)


def _small_digraphs():
    return [random_digraph(2 + seed % 5, 12, seed) for seed in range(40)]


def bottleneck_digraph(k: int, links: int, seed: int) -> Digraph:
    """Two complete digraphs on k vertices joined by up to ``links`` random arcs each way.

    Arc connectivity is at most ``links`` while the minimum degree is
    ``k - 1``, so the minimum is not found from degrees alone.
    """
    rng = random.Random(seed)
    arcs = [(u + off, v + off) for off in (0, k) for u in range(k) for v in range(k) if u != v]
    arcs += [(rng.randrange(k), k + rng.randrange(k)) for _ in range(links)]
    arcs += [(k + rng.randrange(k), rng.randrange(k)) for _ in range(links)]
    d = from_arc_list(2 * k, arcs)
    perm = list(range(2 * k))
    rng.shuffle(perm)
    return from_arc_list(2 * k, [(perm[u], perm[v]) for u, v in d.arcs])


@st.composite
def products(draw):
    """Products of two ``digraphs`` on 2..3 vertices, so brute force stays cheap."""
    return cartesian_product(draw(digraphs(3)), draw(digraphs(3))).digraph


def reaches(arcs, s: int, t: int) -> bool:
    """Whether a path s -> t runs along ``arcs``, by a search over the arc set alone."""
    seen, stack = {s}, [s]
    while stack:
        u = stack.pop()
        for a, b in arcs:
            if a == u and b not in seen:
                seen.add(b)
                stack.append(b)
    return t in seen


def bi_dominates(d: Digraph, x: set[int]) -> bool:
    """Every vertex outside ``x`` has an in-neighbour and an out-neighbour in ``x``."""
    return all(set(d.in_adj[v]) & x and set(d.out_adj[v]) & x for v in set(range(d.n)) - x)


def plain_greedy_bi_dominating(d: Digraph) -> list[int]:
    """Vertices in order; each joins unless it already has an in-neighbour and an out-neighbour among those before."""
    x: list[int] = []
    for v in range(d.n):
        if not (set(d.in_adj[v]) & set(x) and set(d.out_adj[v]) & set(x)):
            x.append(v)
    return x


def greedy_bi_dominating(d: Digraph) -> list[int]:
    """The plain greedy set, then each member, last first, dropped when the set without it still bi-dominates."""
    x = set(plain_greedy_bi_dominating(d))
    for v in sorted(x, reverse=True):
        if bi_dominates(d, x - {v}):
            x.remove(v)
    return sorted(x)


def assert_witness_rule(d: Digraph) -> None:
    """``arc_connectivity`` against brute force, with its witness rule replayed by uncapped flows.

    When ``min(δ⁺, δ⁻) >= 2`` the links run around ``X[0] -> X[1] -> ... ->
    X[-1] -> X[0]`` for the greedy bi-dominating set X, none when ``|X| =
    1``.  The witness is the minimal cut of the last link whose local value
    went below the least so far, starting from ``min(δ⁺, δ⁻)``; if none did,
    the out-arcs of the least vertex of out-degree ``λ`` when ``δ⁺ = λ``, else
    the in-arcs of the least vertex of in-degree ``λ``.
    """
    report = arc_connectivity(d)
    assert report.value == brute_arc_connectivity(d)
    if not report.strong:
        assert report.min_cut == frozenset() and report.local_flows == 0
        return
    d_out, d_in = degrees(d)
    value, cut = min(d_out, d_in), None
    x = greedy_bi_dominating(d) if value >= 2 else []
    assert report.local_flows <= len(x)
    for u, w in zip(x, x[1:] + x[:1]) if len(x) > 1 else ():
        local = max_flow_unit(d, u, w)
        if local.value < value:
            value, cut = local.value, local.cut
    if cut is None and d_out == value:
        u = min(v for v in range(d.n) if len(d.out_adj[v]) == value)
        cut = frozenset((u, v) for v in d.out_adj[u])
    elif cut is None:
        u = min(v for v in range(d.n) if len(d.in_adj[v]) == value)
        cut = frozenset((v, u) for v in d.in_adj[u])
    assert report.value == value
    assert report.min_cut == cut and verify_cut(d, cut)


class TestFlowKernel:
    @pytest.mark.parametrize("d", _small_digraphs(), ids=repr)
    def test_value_and_cut_match_brute_force(self, d):
        for s, t in ((0, d.n - 1), (d.n - 1, 0), (0, 1)):
            local = max_flow_unit(d, s, t)
            assert brute_max_arc_disjoint_paths(d, s, t, local.value)
            assert not brute_max_arc_disjoint_paths(d, s, t, local.value + 1)
            assert local.cut == brute_min_cut(d, s, t)

    @pytest.mark.parametrize("seed", range(15))
    def test_every_pair_cut_separates(self, seed):
        d = random_strong_digraph(3 + seed % 4, 0.6, seed)
        reverse = Digraph(d.n, frozenset((v, u) for u, v in d.arcs))
        for s in range(d.n):
            for t in range(d.n):
                if s == t:
                    continue
                local = max_flow_unit(d, s, t)
                assert local.value == brute_local_value(d, s, t) == max_flow_unit(reverse, t, s).value
                assert len(local.cut) == local.value and local.cut <= d.arcs
                assert not reaches(d.arcs - local.cut, s, t)

    @pytest.mark.parametrize("d", _small_digraphs()[:20], ids=repr)
    def test_excluded_arcs_are_left_out(self, d):
        rng = random.Random(d.n * 1000 + len(d.arcs))
        for _ in range(5):
            mask = rng.getrandbits(len(d.arcs)) if d.arcs else 0
            kept = Digraph(d.n, d.arcs - {a for i, a in enumerate(d.sorted_arcs) if mask >> i & 1})
            for s, t in ((0, d.n - 1), (d.n - 1, 0)):
                assert _unit_flow(d, s, t, d.n, mask)[0] == max_flow_unit(kept, s, t).value

    @given(digraphs(), st.data())
    @settings(max_examples=300)
    def test_capped_value_matches_brute_force_without_excluded_arcs(self, d, data):
        s, t = data.draw(st.lists(st.integers(0, d.n - 1), min_size=2, max_size=2, unique=True))
        need = data.draw(st.integers(0, d.n))
        mask = data.draw(st.integers(0, (1 << len(d.arcs)) - 1))
        kept = Digraph(d.n, d.arcs - {a for i, a in enumerate(d.sorted_arcs) if mask >> i & 1})
        assert _unit_flow(d, s, t, need, mask)[0] == min(need, brute_local_value(kept, s, t))

    @pytest.mark.parametrize(
        "s,t,message",
        [(1, 1, "source and sink must differ"), (0, 3, r"terminals \(0, 3\) outside 0..2"), (-1, 2, "outside")],
    )
    def test_bad_terminals_rejected(self, s, t, message):
        with pytest.raises(DigraphError, match=message):
            max_flow_unit(directed_cycle(3), s, t)

    def test_cap_keyword_removed(self):
        with pytest.raises(TypeError):
            max_flow_unit(directed_cycle(3), 0, 1, cap=1)
        assert not hasattr(max_flow_unit(directed_cycle(3), 0, 1), "capped")
        assert "capped" not in LocalArcConnectivity._fields


def matches_reference_kernel(d: Digraph, s: int, t: int, need: int, excluded: int = 0) -> tuple[int, set[int]]:
    """Run both kernels and assert the same value and, below ``need``, the same labelled side.

    Returns the value and the vertices the last search labelled.
    """
    value, via = _unit_flow(d, s, t, need, excluded)
    ref_value, ref_via = reference_unit_flow(d, s, t, need, excluded)
    assert value == ref_value
    side = {v for v, e in enumerate(via) if e != -1}
    if value < need:
        assert side == {v for v, e in enumerate(ref_via) if e != -1}
    return value, side


class TestKernelAgainstReference:
    @pytest.mark.parametrize("seed", range(8))
    def test_products(self, seed):
        rng = random.Random(seed)
        g = random_strong_digraph(rng.randint(5, 10), rng.uniform(0.1, 0.4), seed)
        h = random_strong_digraph(rng.randint(5, 10), rng.uniform(0.1, 0.4), seed + 1000)
        d = cartesian_product(g, h).digraph
        for _ in range(6):
            s, t = rng.sample(range(d.n), 2)
            # about a quarter of the arcs left out
            mask = rng.getrandbits(len(d.arcs)) & rng.getrandbits(len(d.arcs))
            for excluded in (0, mask):
                value, _ = matches_reference_kernel(d, s, t, d.n, excluded)
                for need in range(value + 1):
                    matches_reference_kernel(d, s, t, need, excluded)

    @given(digraphs(), st.data())
    @settings(max_examples=300)
    def test_small_digraphs_with_excluded_arcs_at_every_need(self, d, data):
        s, t = data.draw(st.lists(st.integers(0, d.n - 1), min_size=2, max_size=2, unique=True))
        mask = data.draw(st.integers(0, (1 << len(d.arcs)) - 1))
        for need in range(d.n + 1):
            matches_reference_kernel(d, s, t, need, mask)

    def test_sink_side_runs_dry_first(self):
        # 0 fans out to 1, 2, 3, which outgrows the sink side {9}; every in-arc of 9 is
        # left out, so that side empties while 4..8 are still to be reached
        arcs = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8)]
        arcs += [(8, 9), (3, 9), (9, 0)]
        d = from_arc_list(10, arcs)
        excluded = sum(1 << i for i, (_, v) in enumerate(d.sorted_arcs) if v == 9)
        assert matches_reference_kernel(d, 0, 9, 1, excluded) == (0, set(range(9)))

    def test_source_side_runs_dry_first(self):
        # 0 reaches only 1, 2, 3, while 4, 5, 6 reach the sink 7 and arcs lead back to 0
        arcs = [(0, 1), (0, 2), (1, 3), (2, 3), (4, 7), (5, 7), (6, 7), (4, 0), (5, 1), (7, 6)]
        d = from_arc_list(8, arcs)
        assert matches_reference_kernel(d, 0, 7, 1) == (0, {0, 1, 2, 3})


class TestGlobalConnectivity:
    @pytest.mark.parametrize(
        "build,expected",
        [
            (lambda: directed_cycle(5), 1),
            (lambda: bidirected_cycle(4), 2),
            (lambda: complete_digraph(4), 3),
        ],
    )
    def test_known_families(self, build, expected):
        report = arc_connectivity(build())
        assert report.value == expected
        assert report.strong
        assert len(report.min_cut) == expected

    def test_single_vertex_rejected(self):
        with pytest.raises(DigraphError, match="needs at least two vertices"):
            arc_connectivity(Digraph(1, frozenset()))

    def test_non_strong_is_zero(self):
        report = arc_connectivity(from_arc_list(3, [(0, 1), (1, 2)]))
        assert report.value == 0 and not report.strong and report.local_flows == 0

    def test_degree_fields(self):
        d = from_arc_list(3, [(0, 1), (1, 2), (2, 0), (0, 2)])
        report = arc_connectivity(d)
        assert report.delta_out == 1 and report.delta_in == 1

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_brute_force_on_random_digraphs(self, seed):
        d = random_digraph(5, 12, seed)
        assert arc_connectivity(d).value == brute_arc_connectivity(d)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force_on_strong_digraphs(self, seed):
        d = random_strong_digraph(5, 0.3, seed)
        report = arc_connectivity(d)
        assert report.value == brute_arc_connectivity(d) >= 1
        assert verify_cut(d, report.min_cut)

    @pytest.mark.parametrize("seed", range(12))
    def test_minimum_below_degree(self, seed):
        d = bottleneck_digraph(4 + seed % 3, 1 + seed % 2, seed)
        report = arc_connectivity(d)
        assert report.value == brute_arc_connectivity(d) < min(report.delta_out, report.delta_in)
        assert verify_cut(d, report.min_cut)

    @pytest.mark.parametrize("seed", range(30))
    def test_value_is_least_pivot_pair_flow(self, seed):
        # every cut separates vertex 0 from some u one way or the other, so
        # lambda is the least of the 2(n - 1) pivot flows; products keep brute force out
        if seed % 3 == 0:
            d = bottleneck_digraph(3 + seed % 4, 1 + seed % 2, seed)
        else:
            d = random_strong_digraph(3 + seed % 5, 0.1 + (seed % 4) * 0.1, seed)
        if seed % 2:
            h = random_strong_digraph(2 + seed % 3, 0.3, seed + 100)
            d = cartesian_product(d, h).digraph
        report = arc_connectivity(d)
        pivot = min(max_flow_unit(d, s, t).value for u in range(1, d.n) for s, t in ((0, u), (u, 0)))
        assert report.strong and report.value == pivot <= min(report.delta_out, report.delta_in)
        assert len(report.min_cut) == report.value and verify_cut(d, report.min_cut)

    @given(digraphs(max_order=8))
    @settings(max_examples=300)
    def test_value_and_witness_match_brute_force(self, d):
        # up to order 8, one above test_witness_rule_on_digraphs
        assert arc_connectivity(d).value == brute_arc_connectivity(d)
        assert_witness_rule(d)

    @given(digraphs())
    @settings(max_examples=300)
    def test_witness_rule_on_digraphs(self, d):
        assert_witness_rule(d)

    @given(products())
    @settings(max_examples=60, deadline=None)
    def test_witness_rule_on_products(self, d):
        assert_witness_rule(d)

    # (k, links, seed) whose minimum sits below the degree bound, so the witness is the
    # cut of a cycle link that lowered the value
    @pytest.mark.parametrize(
        "k,links,seed",
        [(4, 1, 0), (5, 2, 1), (6, 1, 2), (4, 2, 15), (5, 2, 55), (6, 3, 55), (3, 2, 24), (3, 2, 13)],
    )
    def test_minimum_below_degree_bound(self, k, links, seed):
        d = bottleneck_digraph(k, links, seed)
        report = arc_connectivity(d)
        assert report.value == brute_arc_connectivity(d) < min(report.delta_out, report.delta_in)
        assert_witness_rule(d)

    @pytest.mark.parametrize(
        "blocks,links,lowering",
        [
            # K4s on 0..3, 4..7 and 8..11, so X = [0, 4, 8]: two arcs lead from the first
            # block to the second and one from the second to the third, so link 0->4
            # lowers 3 to 2 and link 4->8 lowers it to 1
            (
                [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]],
                [(1, 5), (2, 6), (5, 9), (9, 1), (10, 2)],
                [(0, 4), (4, 8)],
            ),
            # K4s on 0..3 and 4..7, so X = [0, 4]: three arcs lead to 4..7 and one back,
            # so the one minimum cut, around 4..7, is left only by the closing link 4->0
            ([[0, 1, 2, 3], [4, 5, 6, 7]], [(0, 5), (1, 6), (2, 7), (7, 3)], [(4, 0)]),
        ],
        ids=["two-lowerings", "closing-link"],
    )
    def test_witness_is_the_last_lowering_link(self, blocks, links, lowering):
        d = from_arc_list(sum(map(len, blocks)), [(u, v) for b in blocks for u in b for v in b if u != v] + links)
        x = greedy_bi_dominating(d)
        value, found = min(degrees(d)), []
        for u, w in zip(x, x[1:] + x[:1]):
            local = max_flow_unit(d, u, w)
            if local.value < value:
                value = local.value
                found.append((u, w))
        assert found == lowering
        assert arc_connectivity(d).min_cut == max_flow_unit(d, *lowering[-1]).cut
        assert_witness_rule(d)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_dominating_set_needs_both_neighbours(self, reverse):
        # K4s on 0..3 and 4..7, 0 -> every vertex of 4..7, and the one arc 4 -> 0 back,
        # a cut below the degrees: {0} gives every vertex an in-neighbour, so a set
        # built for in-neighbours alone would run no flow and report 3; the reversed
        # digraph does the same to a set built for out-neighbours alone
        arcs = [(u, v) for b in ([0, 1, 2, 3], [4, 5, 6, 7]) for u in b for v in b if u != v]
        arcs += [(0, 4), (0, 5), (0, 6), (0, 7), (4, 0)]
        d = from_arc_list(8, [(v, u) for u, v in arcs] if reverse else arcs)
        report = arc_connectivity(d)
        assert (report.value, min(report.delta_out, report.delta_in)) == (1, 3)
        assert flow._bi_dominating(d) == greedy_bi_dominating(d) == [0, 5]
        assert_witness_rule(d)

    @given(digraphs())
    @settings(max_examples=300)
    def test_dominating_set_has_both_neighbours_of_every_outsider(self, d):
        x = flow._bi_dominating(d)
        assert x == sorted(set(x)) == greedy_bi_dominating(d)
        for v in set(range(d.n)) - set(x):
            assert set(d.in_adj[v]) & set(x) and set(d.out_adj[v]) & set(x)
        assert set(x) <= set(plain_greedy_bi_dominating(d))
        assert not any(bi_dominates(d, set(x) - {v}) for v in x)

    def test_pruned_set_runs_fewer_link_flows_on_large_product(self):
        # the n = 600 product of `lambda rand:30:0.3:1 x rand:20:0.3:2`: the plain
        # greedy set has 133 members and ran 133 link flows, the pruned one 98
        d = cartesian_product(random_strong_digraph(30, 0.3, 1), random_strong_digraph(20, 0.3, 2)).digraph
        report = arc_connectivity(d)
        assert (report.value, report.delta_out, report.delta_in) == (6, 6, 7)
        assert len(plain_greedy_bi_dominating(d)) == 133
        assert report.local_flows <= len(flow._bi_dominating(d)) <= 98

    @pytest.mark.parametrize("seed", range(12))
    def test_local_flows_counts_kernel_runs(self, monkeypatch, seed):
        runs = []
        kernel = flow._unit_flow

        def counting_kernel(*args):
            runs.append(args)
            return kernel(*args)

        monkeypatch.setattr(flow, "_unit_flow", counting_kernel)
        # a minimum degree of 1 settles lambda = 1 with no flow; the bottleneck
        # digraphs (seed % 3 == 1) have minimum degree 3, so they run flows; in a
        # complete digraph (seed >= 9) vertex 0 alone is bi-dominating, so none runs
        if seed >= 9:
            d = complete_digraph(seed - 6)
        elif seed % 3 == 1:
            d = bottleneck_digraph(4, 1, seed)
        else:
            d = random_strong_digraph(8, 0.3 if seed % 3 == 0 else 0.5, seed)
        assert arc_connectivity(d).local_flows == len(runs)
        assert (len(runs) > 0) == (min(degrees(d)) >= 2 and len(greedy_bi_dominating(d)) >= 2)

    def test_unverified_witness_raises(self, monkeypatch):
        monkeypatch.setattr(flow, "verify_cut", lambda d, cut: False)
        with pytest.raises(RuntimeError):
            arc_connectivity(bidirected_cycle(4))


class TestVerifyCut:
    def test_accepts_genuine_cut(self):
        d = bidirected_cycle(4)
        assert verify_cut(d, [(0, 1), (0, 3)])

    def test_rejects_non_cut(self):
        d = complete_digraph(3)
        assert not verify_cut(d, [(0, 1)])

    def test_rejects_foreign_arcs(self):
        d = directed_cycle(3)
        with pytest.raises(DigraphError):
            verify_cut(d, [(0, 2)])

    @given(digraphs(), st.data())
    @settings(max_examples=300)
    def test_matches_strongness_after_deletion(self, d, data):
        cut = data.draw(st.sets(st.sampled_from(d.sorted_arcs))) if d.arcs else set()
        assert verify_cut(d, cut) == (not is_strong(Digraph(d.n, d.arcs - cut)))

    @given(digraphs(), st.data())
    @settings(max_examples=300)
    def test_strongness_and_cuts_match_transitive_closure(self, d, data):
        # is_strong and verify_cut share one search; this reference shares none of it
        cut = data.draw(st.sets(st.sampled_from(d.sorted_arcs))) if d.arcs else set()
        assert is_strong(d) == closure_strong(d.n, d.arcs)
        assert verify_cut(d, cut) == (not closure_strong(d.n, d.arcs - cut))
