"""Seed-pair strong-subgraph packing: exact search, oracles, certificates."""

import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from strongarc import digraph as digraph_module
from strongarc import flow as flow_module
from strongarc import packing
from strongarc.cli import parse_operand
from strongarc.digraph import (
    Digraph,
    DigraphError,
    _automorphism_generators,
    biorient,
    degrees,
    from_arc_list,
    is_strong,
)
from strongarc.flow import _bi_dominating, arc_connectivity, max_flow_unit
from strongarc.generators import (
    bidirected_cycle,
    complete_digraph,
    directed_cycle,
    random_strong_digraph,
)
from strongarc.packing import (
    CertificateFamily,
    CertificateReport,
    certificate_from_json,
    certificate_to_json,
    lambda_2,
    lambda_s_exact,
    _pair_orbit_representatives,
    _search_sweep,
    _seed_bounds,
    verify_certificate,
)
from strongarc.product import cartesian_product

from oracles import (
    OracleRefusal,
    every_pair_lambda_2,
    lambda_s_oracle_paths,
    lambda_s_oracle_subsets,
    random_digraph,
    reference_verify_certificate,
)


class TestExactSearch:
    def test_complete_triangle_pair(self):
        r = lambda_s_exact(complete_digraph(3), (0, 1))
        assert r.value == 2 and r.exact
        assert r.optimality == "degree-bound"
        assert [sorted(m) for m in r.witness.members] == [
            [(0, 1), (1, 0)],
            [(0, 2), (1, 2), (2, 0), (2, 1)],
        ]

    def test_witness_always_verifies(self):
        for seed in range(6):
            d = random_digraph(5, 12, seed)
            for pair in [(0, 1), (1, 3), (2, 4)]:
                r = lambda_s_exact(d, pair)
                report = verify_certificate(d, r.witness)
                assert report.valid
                assert len(r.witness.members) == r.value

    def test_zero_budget_brackets_the_value(self):
        # the root search node is the first step, so nothing is placed and the bracket is [0, seed degree]
        r = lambda_s_exact(complete_digraph(3), (0, 1), budget=0)
        assert (r.value, r.exact, r.lower, r.upper, r.optimality) == (0, False, 0, 2, "budget")
        assert r.witness.members == ()

    def test_unreachable_pair_is_zero(self):
        r = lambda_s_exact(from_arc_list(3, [(0, 1), (1, 2)]), (0, 2))
        assert r.value == 0 and r.optimality == "unreachable"
        assert r.witness.members == ()

    def test_pair_normalized(self):
        assert lambda_s_exact(complete_digraph(3), (1, 0)).witness.seed == (0, 1)

    def test_pair_validation(self):
        d = complete_digraph(3)
        with pytest.raises(DigraphError):
            lambda_s_exact(d, (0, 0))
        with pytest.raises(DigraphError):
            lambda_s_exact(d, (0, 3))
        with pytest.raises(DigraphError):
            lambda_s_exact(d, (0, 1, 2))

    def test_deep_path_does_not_recurse(self):
        d = directed_cycle(1200)
        r = lambda_s_exact(d, (0, 1100))
        assert r.value == 1 and len(r.witness.members[0]) == 1200
        assert verify_certificate(d, r.witness).valid

    def test_budget_interrupt_brackets_value(self):
        p = cartesian_product(complete_digraph(4), complete_digraph(4))
        r = lambda_s_exact(p.digraph, (0, 5), budget=50)
        assert not r.exact and r.optimality == "budget"
        assert (r.value, r.lower, r.upper) == (2, 2, 6)
        assert verify_certificate(p.digraph, r.witness).valid

    def test_budget_spent_at_a_path_length_start(self):
        # the root node takes the one step, so the first x->y path search stops as it starts its length
        r = lambda_s_exact(directed_cycle(5), (0, 2), budget=1)
        assert (r.value, r.lower, r.upper, r.exact, r.optimality) == (0, 0, 1, False, "budget")
        assert r.witness.members == ()

    def test_failure_memo_hit_saves_budget(self, monkeypatch):
        """One search node of this pair meets a ``used`` that failed before from no later start, so the
        memo ends it; without that hit the search needs more than 168 steps to close."""
        d = random_strong_digraph(8, 0.3, 13)
        hits = []
        rec = packing._SeedPacker._rec

        def counted_rec(self, used, remaining, start):
            memo_start = self.fail_memo.get(used)
            if remaining and memo_start is not None and memo_start <= start:
                hits.append(used)
            return rec(self, used, remaining, start)

        monkeypatch.setattr(packing._SeedPacker, "_rec", counted_rec)
        r = lambda_s_exact(d, (0, 2))
        assert len(hits) == 1
        assert (r.value, r.optimality) == (3, "degree-bound") and r.value == lambda_s_oracle_paths(d, (0, 2))
        monkeypatch.undo()
        r = lambda_s_exact(d, (0, 2), budget=168)
        assert (r.value, r.exact) == (3, True)
        r = lambda_s_exact(d, (0, 2), budget=167)
        assert (r.value, r.lower, r.upper, r.exact) == (2, 2, 3, False)

    def test_later_xy_paths_reuse_the_drawn_yx_paths(self):
        """The first 0 -> 1 path 0-2-3-1 meets both classes of the only packing, so it fails with
        every 1 -> 0 path; the next, 0-2-4-1, must be offered those same 1 -> 0 paths again."""
        arcs = [(0, 2), (2, 3), (3, 1), (2, 4), (4, 1), (0, 5), (5, 3), (1, 6), (6, 0), (1, 7), (7, 0)]
        d = from_arc_list(8, arcs)
        r = lambda_s_exact(d, (0, 1))
        assert r.value == 2 == lambda_s_oracle_paths(d, (0, 1))
        assert [sorted(m) for m in r.witness.members] == [
            [(0, 2), (1, 6), (2, 4), (4, 1), (6, 0)],
            [(0, 5), (1, 7), (3, 1), (5, 3), (7, 0)],
        ]

    def test_invalid_witness_raises(self, monkeypatch):
        def reject(d, cert):
            return CertificateReport(False, (), (), (), ())

        monkeypatch.setattr(packing, "verify_certificate", reject)
        with pytest.raises(RuntimeError):
            lambda_s_exact(complete_digraph(3), (0, 1))

    def test_flow_bound_stops_an_infeasible_search_early(self, monkeypatch):
        """Two K4 joined by one digon: the first descent uses the digon, and two flows end the search."""
        arcs = [(u, v) for block in (range(4), range(4, 8)) for u in block for v in block if u != v]
        d = from_arc_list(8, arcs + [(3, 4), (4, 3)])
        calls = {"nodes": 0, "flows": 0}
        rec, unit_flow = packing._SeedPacker._rec, packing._unit_flow

        def counted_rec(self, *args):
            calls["nodes"] += 1
            return rec(self, *args)

        def counted_flow(*args):
            calls["flows"] += 1
            return unit_flow(*args)

        monkeypatch.setattr(packing._SeedPacker, "_rec", counted_rec)
        monkeypatch.setattr(packing, "_unit_flow", counted_flow)
        assert packing._SeedPacker(d, packing._ArcTables(d), 0, 7).feasible(2) is None
        assert calls["nodes"] <= 2 and calls["flows"] <= 4

    @pytest.mark.parametrize("seed", range(12))
    def test_paths_come_shortest_first_then_lexicographic(self, seed):
        """All paths in (length, lexicographic) order; with ``avoid`` and ``start``, that list filtered."""

        def brute_force(d, n):
            bit = {arc: 1 << i for i, arc in enumerate(d.sorted_arcs)}
            walks = [(0,)]
            found = []
            while walks:
                walk = walks.pop()
                for v in range(n):
                    if (walk[-1], v) in d.arcs and v not in walk:
                        (found if v == n - 1 else walks).append(walk + (v,))
            found.sort(key=lambda walk: (len(walk), walk))
            return bit, [(walk, sum(bit[arc] for arc in zip(walk, walk[1:]))) for walk in found]

        rng = random.Random(seed)
        n = rng.randint(2, 6)
        d = random_digraph(n, rng.randint(n, 3 * n), rng.getrandbits(32))
        dense = random_digraph(6, 30, rng.getrandbits(32))
        for d, n in ((d, n), (dense, 6)):
            bit, found = brute_force(d, n)
            tables = packing._ArcTables(d)
            produced = list(packing._paths(tables, 0, n - 1, 0, (0, 0), [0, float("inf")]))
            assert produced == [mask for _, mask in found]
            first_bits = [0] + [bit[arc] for arc in d.sorted_arcs if arc[0] == 0]
            for _ in range(8):
                avoid = rng.getrandbits(len(bit)) & rng.getrandbits(len(bit))
                start = (rng.randint(0, n - 1), rng.choice(first_bits))
                kept = [
                    mask
                    for walk, mask in found
                    if mask & avoid == 0 and (len(walk) - 1, bit[walk[:2]]) > start
                ]
                assert list(packing._paths(tables, 0, n - 1, avoid, start, [0, float("inf")])) == kept

    def test_bidirected_cycle_sweep_skips_lengths_without_paths(self, monkeypatch):
        """A search pass bounds the next length with a path by its least pruned ``depth + dist``.

        Each pair of a bidirected cycle has one path each way round, so the
        lengths between are empty; the sampled sweep keeps its pair and
        witness and takes fewer ticker steps than the 5,161 it took when
        every length was searched.
        """
        tickers = {}
        paths = packing._paths

        def spy(tables, s, t, avoid, start, ticker):
            tickers[id(ticker)] = ticker
            return paths(tables, s, t, avoid, start, ticker)

        monkeypatch.setattr(packing, "_paths", spy)
        n = 60
        r = lambda_2(bidirected_cycle(n), samples=3, seed=1)

        def both_ways(walk):
            return frozenset(a for u, v in zip(walk, walk[1:]) for a in ((u, v), (v, u)))

        assert (r.value, r.pair, r.exact) == (2, (4, 50), False)
        assert r.witness.members == (both_ways([4, 3, 2, 1, 0, *range(n - 1, 49, -1)]), both_ways(range(4, 51)))
        assert sum(ticker[0] for ticker in tickers.values()) < 5161

    def test_path_search_keeps_ticks_taken_while_paused(self):
        ticker = [0, float("inf")]
        d = complete_digraph(5)
        paths = packing._paths(packing._ArcTables(d), 0, 4, 0, (0, 0), ticker)
        for idx in itertools.count():
            ticker[0] += 1000  # the packer's own steps between two requests
            before = ticker[0]
            if next(paths, None) is None:
                break
            assert ticker[0] > before
        assert idx == 16  # every simple 0 -> 4 path in K5

    @given(st.integers(0, 200))
    @settings(max_examples=40, deadline=None)
    def test_value_never_exceeds_cheap_upper_bound(self, seed):
        d = random_digraph(4, 9, seed)
        r = lambda_s_exact(d, (0, 1))
        assert r.value <= _seed_bounds(d, 0, 1)[1]


class TestLambdaTwo:
    def test_bidirected_five_cycle(self):
        r = lambda_2(bidirected_cycle(5))
        assert r.value == 2 and r.pair == (0, 1) and r.exact

    def test_directed_cycle_is_one(self):
        assert lambda_2(directed_cycle(6)).value == 1

    def test_exhaustive_matches_minimum_over_pairs(self):
        d = random_digraph(5, 14, 3)
        expected = min(
            lambda_s_exact(d, (x, y)).value for x in range(5) for y in range(x + 1, 5)
        )
        r = lambda_2(d)
        assert r.value == expected
        assert verify_certificate(d, r.witness).valid

    def test_sampled_mode_is_upper_bound(self):
        d = bidirected_cycle(6)
        full = lambda_2(d)
        samp = lambda_2(d, samples=4, seed=9)
        assert not samp.exact
        assert samp.value >= full.value

    def test_sampled_mode_requires_seed(self):
        with pytest.raises(DigraphError):
            lambda_2(bidirected_cycle(5), samples=3)

    @pytest.mark.parametrize("d", [bidirected_cycle(5), directed_cycle(5)], ids=["symmetric", "searched"])
    def test_seed_without_samples_rejected(self, d):
        with pytest.raises(DigraphError, match="a seed needs samples"):
            lambda_2(d, seed=1)

    @pytest.mark.parametrize("samples", [0, -2])
    def test_samples_below_one_rejected(self, samples):
        with pytest.raises(DigraphError, match="samples must be at least 1"):
            lambda_2(bidirected_cycle(5), samples=samples, seed=1)

    def test_sampled_mode_deterministic(self):
        d = random_digraph(6, 18, 1)
        a = lambda_2(d, samples=5, seed=42)
        b = lambda_2(d, samples=5, seed=42)
        assert a.value == b.value and a.pair == b.pair

    def test_sample_of_every_pair_is_exact(self):
        for d in (directed_cycle(3), bidirected_cycle(5), random_digraph(5, 14, 3)):
            total = d.n * (d.n - 1) // 2
            full = lambda_2(d)
            for samples, seed in ((total, 0), (total + 1, 4), (99, 1)):
                assert lambda_2(d, samples=samples, seed=seed) == full
            assert not lambda_2(d, samples=total - 1, seed=0).exact

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 12, 25, 39])
    def test_sampled_pairs_match_a_draw_from_the_pair_list(self, n):
        every_pair = [(x, y) for x in range(n) for y in range(x + 1, n)]
        for samples in (1, 3, 12, len(every_pair), len(every_pair) + 5):
            for seed in range(5):
                expected = sorted(random.Random(seed).sample(every_pair, min(samples, len(every_pair))))
                assert packing._sampled_pairs(n, samples, seed) == expected

    def test_sampled_pairs_never_build_the_pair_list(self):
        # the list of all 499,500 pairs at n = 1000 takes tens of MB
        tracemalloc.start()
        try:
            pairs = packing._sampled_pairs(1000, 3, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(pairs) == 3 and peak < 100_000


def _strong_with_degree_one_vertex(n, prob, seed, position):
    """A random strong digraph on n - 1 vertices plus one vertex with a single in- and out-arc,
    relabelled so that the added vertex is ``position``."""
    rng = random.Random(seed)
    core = random_strong_digraph(n - 1, prob, rng.getrandbits(32))
    arcs = set(core.arcs) | {(rng.randrange(n - 1), n - 1), (n - 1, rng.randrange(n - 1))}
    label = list(range(n - 1))
    label.insert(position, n - 1)  # vertex label[i] gets name i
    name = {old: new for new, old in enumerate(label)}
    return from_arc_list(n, [(name[u], name[v]) for u, v in arcs])


class TestStrongFloor:
    """A strong digraph is a member for every pair, so every exhaustive sweep may stop at value 1."""

    def test_non_strong_digraph_goes_below_the_first_pair(self):
        d = from_arc_list(3, [(0, 1), (1, 0), (1, 2)])
        assert lambda_s_exact(d, (0, 1)).value == 1
        r = lambda_2(d)
        assert (r.value, r.pair, r.exact) == (0, (0, 2), True)
        assert r == _search_sweep(d) == every_pair_lambda_2(d)

    def test_non_strong_symmetric_digraph_goes_below_the_first_pair(self):
        d = biorient(3, [(0, 1)])
        r = lambda_2(d)
        assert (r.value, r.pair) == (0, (0, 2))
        assert r == _search_sweep(d) == every_pair_lambda_2(d)

    @pytest.mark.parametrize(
        "spec",
        [f"cn:{n}" for n in range(3, 9)]
        + [f"btm:path:{n}" for n in range(2, 8)]
        + [f"btm:star:{n}" for n in range(3, 8)],
    )
    def test_value_one_classes_equal_every_pair_sweep(self, spec):
        d = parse_operand([spec])[0]
        r = lambda_2(d)
        assert (r.value, r.pair) == (1, (0, 1))
        assert r == _search_sweep(d) == every_pair_lambda_2(d)

    @given(st.integers(3, 7), st.sampled_from([0.0, 0.3, 0.6, 1.0]), st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=80, deadline=None)
    def test_degree_one_vertex_equals_every_pair_sweep(self, n, prob, seed, data):
        d = _strong_with_degree_one_vertex(n, prob, seed, data.draw(st.integers(0, n - 1)))
        assert is_strong(d)
        r = lambda_2(d)
        assert r.value == 1
        assert r == every_pair_lambda_2(d)

    def test_floor_exit_skips_orbit_search_and_flows(self, monkeypatch):
        def refuse(d):
            raise AssertionError("orbit search after the floor was reached")

        flows = []
        unit_flow = packing._unit_flow

        def logged_flow(d, s, t, *rest):
            flows.append((s, t))
            return unit_flow(d, s, t, *rest)

        monkeypatch.setattr(digraph_module, "_automorphism_generators", refuse)
        monkeypatch.setattr(packing, "_unit_flow", logged_flow)
        assert lambda_2(directed_cycle(7)).value == 1
        assert flows == []  # seed degree 1 is the floor, so (0, 1) runs no seed flow; one member needs none
        flows.clear()
        assert lambda_2(parse_operand(["btm:star:6"])[0]).value == 1
        # the star's centre 0 reaches leaf 1 by one path, and that is the floor, which spares (0, 1)'s seed flows
        assert flows == [(0, 1)]

    def test_sampled_sweep_takes_the_floor_exit(self, monkeypatch):
        """Every pair of a directed cycle has value 1, the floor, so a sampled sweep solves its least
        sampled pair, stops there, and returns what solving every sampled pair gives."""
        d = directed_cycle(6)
        every_pair = [(x, y) for x in range(6) for y in range(x + 1, 6)]
        searches = _logged_searches(monkeypatch)
        least = set()
        for seed in range(10):
            sample = random.Random(seed).sample(every_pair, 3)
            expected = every_pair_lambda_2(d, sample)
            searches.clear()
            r = lambda_2(d, samples=3, seed=seed)
            assert {pair for _, pair, _ in searches} == {min(sample)}
            assert (r.value, r.exact) == (1, False) and r == expected
            least.add(r.pair)
        assert least - {(0, 1)}

    @pytest.mark.parametrize("seed", range(8))
    def test_no_search_once_the_minimum_reaches_the_floor(self, monkeypatch, seed):
        # the degree-one vertex comes last, so the sweep starts in the denser core and reaches 1 later
        d = _strong_with_degree_one_vertex(7, 0.7, seed, 6)
        expected = every_pair_lambda_2(d)
        searches = _logged_searches(monkeypatch)
        r = _search_sweep(d)
        assert r == expected and r.value == 1
        solves = [i for i, (kind, _, value) in enumerate(searches) if kind == "solve" and value == 1]
        assert searches[solves[0] + 1 :] == []


def _logged_searches(monkeypatch):
    """Each screen and exact solve, in order: ("screen", pair, k) and ("solve", pair, value).

    A solve is logged when it returns, after the screens it made itself.
    """
    searches = []
    exact, feasible = packing._exact, packing._SeedPacker.feasible

    def logged_exact(d, tables, x, y, *args, **kwargs):
        result = exact(d, tables, x, y, *args, **kwargs)
        searches.append(("solve", (x, y), result.value))
        return result

    def logged_feasible(self, k):
        searches.append(("screen", (self.x, self.y), k))
        return feasible(self, k)

    monkeypatch.setattr(packing, "_exact", logged_exact)
    monkeypatch.setattr(packing._SeedPacker, "feasible", logged_feasible)
    return searches


def _orbit_instances():
    """Digraphs with and without symmetry: random, random products, class products."""
    out = []
    for seed in range(14):
        rng = random.Random(seed)
        n = rng.randint(2, 7)
        out.append((f"random {seed}", random_digraph(n, rng.randint(n, 3 * n), rng.getrandbits(32))))
    for seed in range(10):
        rng = random.Random(100 + seed)
        g = random_strong_digraph(rng.randint(2, 4), rng.random() * 0.5, rng.getrandbits(32))
        h = random_strong_digraph(rng.randint(2, 4), rng.random() * 0.5, rng.getrandbits(32))
        out.append((f"random product {seed}", cartesian_product(g, h).digraph))
    for spec in [
        "cn:3 x cn:4",
        "cn:4 x bcm:3",
        "bcm:4 x btm:star:4",
        "btm:path:3 x bkm:3",
        "bkm:3 x btm:path:4",
        "btm:star:4 x btm:star:4",
        "bkm:2 x cn:5",
    ]:
        out.append((spec, parse_operand(spec.split())[0]))
    return out


ORBIT_INSTANCES = _orbit_instances()
SMALL_INSTANCES = [(name, d) for name, d in ORBIT_INSTANCES if d.n <= 7]


def _automorphisms(d):
    """Every automorphism of ``d``, by trying every permutation."""
    arcs = d.arcs
    return [p for p in itertools.permutations(range(d.n)) if all((p[u], p[v]) in arcs for u, v in arcs)]


def _brute_force_pair_orbits(d):
    """Pair orbits under the full automorphism group, by trying every permutation."""
    group = _automorphisms(d)
    orbits = {
        (x, y): min(tuple(sorted((p[x], p[y]))) for p in group)
        for x in range(d.n)
        for y in range(x + 1, d.n)
    }
    return sorted(set(orbits.values()))


# factors of order <= 4 with trivial, transitive and intransitive automorphism groups
FACTORS = [
    (spec, parse_operand([spec])[0])
    for spec in ("bkm:2", "cn:3", "cn:4", "bcm:4", "bkm:4", "btm:star:4", "btm:path:4")
] + [("rigid:4", random_strong_digraph(4, 0.3, 0)), ("rigid:3", random_strong_digraph(3, 0.3, 0))]
FACTOR_PAIRS = [(g, h) for g in FACTORS for h in FACTORS]


class TestPairOrbits:
    @pytest.mark.parametrize("name, d", ORBIT_INSTANCES, ids=[name for name, _ in ORBIT_INSTANCES])
    def test_orbit_sweep_equals_all_pairs_sweep(self, name, d):
        every_pair = every_pair_lambda_2(d)
        r = _search_sweep(d)
        assert r.exact
        assert every_pair == r
        assert lambda_2(d) == r

    @pytest.mark.parametrize("name, d", ORBIT_INSTANCES, ids=[name for name, _ in ORBIT_INSTANCES])
    def test_generators_are_automorphisms(self, name, d):
        for p in _automorphism_generators(d):
            assert sorted(p) == list(range(d.n))
            assert p != tuple(range(d.n))
            assert frozenset((p[u], p[v]) for u, v in d.arcs) == d.arcs

    def test_only_checked_permutations_are_kept(self, monkeypatch):
        """A refinement blind to the arcs makes every leaf look alike; the arc check must sort them."""

        def blind(d, colour):
            order = sorted(set(colour))
            rank = {c: i for i, c in enumerate(order)}
            return [rank[c] for c in colour], [(i,) for i in range(len(order))]

        monkeypatch.setattr(digraph_module, "_refine", blind)
        for name, d in SMALL_INSTANCES:
            d = Digraph(d.n, d.arcs)  # no orbit table cached under the real refinement
            for p in _automorphism_generators(d):
                assert frozenset((p[u], p[v]) for u, v in d.arcs) == d.arcs, name
            every_pair = every_pair_lambda_2(d)
            r = _search_sweep(d)
            assert (r.value, r.pair, r.witness) == (every_pair.value, every_pair.pair, every_pair.witness)

    @pytest.mark.parametrize("name, d", SMALL_INSTANCES, ids=[name for name, _ in SMALL_INSTANCES])
    def test_orbits_match_full_automorphism_group(self, name, d):
        assert list(_pair_orbit_representatives(d)) == _brute_force_pair_orbits(d)

    @pytest.mark.parametrize(
        "spec, count", [("cn:5", 2), ("bkm:6 x bkm:6", 2), ("bcm:6 x bcm:6", 9)]
    )
    def test_known_pair_orbit_counts(self, spec, count):
        assert len(list(_pair_orbit_representatives(parse_operand(spec.split())[0]))) == count

    @pytest.mark.parametrize(
        "g, h", FACTOR_PAIRS, ids=[f"{g[0]} x {h[0]}" for g, h in FACTOR_PAIRS]
    )
    def test_factor_key_splits_product_pairs_into_factor_group_orbits(self, g, h):
        (_, g), (_, h) = g, h
        n, m = g.n, h.n
        og, oh = g.pair_orbits, h.pair_orbits

        def key(x, y):
            (r1, c1), (r2, c2) = divmod(x, m), divmod(y, m)
            return min((og[r1 * n + r2], oh[c1 * m + c2]), (og[r2 * n + r1], oh[c2 * m + c1]))

        group = [(p, q) for p in _automorphisms(g) for q in _automorphisms(h)]

        def image(p, q, v):
            r, c = divmod(v, m)
            return p[r] * m + q[c]

        pairs = [(x, y) for x in range(n * m) for y in range(x + 1, n * m)]
        by_key, by_orbit = {}, {}
        for x, y in pairs:
            by_key.setdefault(key(x, y), set()).add((x, y))
            least = min(tuple(sorted((image(p, q, x), image(p, q, y)))) for p, q in group)
            by_orbit.setdefault(least, set()).add((x, y))
        assert sorted(map(sorted, by_key.values())) == sorted(map(sorted, by_orbit.values()))
        assert list(_pair_orbit_representatives(g, h)) == sorted(by_orbit)

    def test_first_pair_reads_no_orbit_table(self):
        g, h = random_strong_digraph(5, 0.3, 1), bidirected_cycle(4)
        assert next(_pair_orbit_representatives(g, h)) == (0, 1)
        assert "pair_orbits" not in g.__dict__ and "pair_orbits" not in h.__dict__

    def test_first_representatives_build_no_list(self):
        # the product's 79,800 pairs are nearly all representatives: their list takes MBs
        g, h = (parse_operand([spec])[0] for spec in ("rand:20:0.3:1", "rand:20:0.3:2"))
        assert g.pair_orbits and h.pair_orbits  # both tables built before the count starts
        tracemalloc.start()
        try:
            first = list(itertools.islice(_pair_orbit_representatives(g, h), 10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first == list(_pair_orbit_representatives(g, h))[:10] and peak < 1_000_000

    def test_rigid_digraph_keeps_every_pair(self):
        d = from_arc_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (1, 3)])
        assert len(_brute_force_pair_orbits(d)) == 10
        assert _automorphism_generators(d) == []
        assert len(list(_pair_orbit_representatives(d))) == 10

    @pytest.mark.parametrize("budget", [0, 1, 3])
    def test_exhausted_budget_keeps_result(self, monkeypatch, budget):
        cases = [d for _, d in ORBIT_INSTANCES[-7:]]
        full = [_search_sweep(d) for d in cases]
        monkeypatch.setattr(digraph_module, "_AUTOMORPHISM_NODE_BUDGET", budget)
        # fresh copies: the swept digraphs keep the orbit tables of the full budget
        for d, expected in zip([Digraph(d.n, d.arcs) for d in cases], full):
            if budget == 0:
                assert _automorphism_generators(d) == []
                assert len(list(_pair_orbit_representatives(d))) == d.n * (d.n - 1) // 2
            r = _search_sweep(d)
            assert (r.value, r.pair, r.witness) == (expected.value, expected.pair, expected.witness)

    def test_invalid_witness_raises(self, monkeypatch):
        def reject(d, cert):
            return CertificateReport(False, (), (), (), ())

        monkeypatch.setattr(packing, "verify_certificate", reject)
        with pytest.raises(RuntimeError):
            lambda_2(bidirected_cycle(4))
        with pytest.raises(RuntimeError):
            _search_sweep(bidirected_cycle(4))
        with pytest.raises(RuntimeError):
            lambda_2(directed_cycle(4))


def _random_symmetric_digraph(n, density, seed):
    """Biorientation of a random graph on ``n`` vertices; often not connected."""
    rng = random.Random(seed)
    return biorient(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < density])


def _digon_components(n, seed):
    """Disjoint digons on shuffled vertices, with one vertex left alone when ``n`` is odd."""
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    return biorient(n, [(order[i], order[i + 1]) for i in range(0, n - 1, 2)])


SYMMETRIC_DENSITIES = st.sampled_from([0.0, 0.2, 0.4, 0.6, 0.9, 1.0])
SYMMETRIC_SIZES = st.tuples(st.integers(2, 8), SYMMETRIC_DENSITIES, st.integers(0, 2**32 - 1))
LARGER_SYMMETRIC_SIZES = st.tuples(st.integers(9, 14), SYMMETRIC_DENSITIES, st.integers(0, 2**32 - 1))


class TestSymmetricRoute:
    """On symmetric digraphs ``lambda_2`` takes local flows; the search sweep is the reference."""

    @given(st.one_of(SYMMETRIC_SIZES, LARGER_SYMMETRIC_SIZES))
    @settings(max_examples=120, deadline=None)
    def test_flow_route_equals_search_sweep(self, size):
        d = _random_symmetric_digraph(*size)
        assert lambda_2(d) == _search_sweep(d)

    def test_flow_route_equals_search_sweep_seeded(self):
        for seed in range(210):
            d = _random_symmetric_digraph(2 + seed % 7, (seed % 10) / 9, seed)
            assert lambda_2(d) == _search_sweep(d), seed

    def test_flow_route_equals_search_sweep_larger_seeded(self):
        for seed in range(90):
            d = _random_symmetric_digraph(9 + seed % 6, 0.3 + (seed % 8) / 10, seed)
            assert lambda_2(d) == _search_sweep(d), seed

    @pytest.mark.parametrize(
        "n, edges, delta",
        [
            # two bidirected K4 joined by one digon: the link 0 -> 4 of X = [0, 4] lowers λ to 1 < δ
            (8, [*itertools.combinations(range(4), 2), *itertools.combinations(range(4, 8), 2), (2, 5)], 3),
            # a bidirected K4 with a pendant vertex: λ = δ = 1, below δ⁺(0) = 3
            (5, [*itertools.combinations(range(4), 2), (3, 4)], 1),
        ],
    )
    def test_least_pair_beyond_first_vertex(self, n, edges, delta):
        d = biorient(n, edges)
        assert min(degrees(d)) == delta and arc_connectivity(d).value == 1 < d.out_degree(0)
        r = lambda_2(d)
        assert (r.value, r.pair) == (1, (0, 4))
        assert r == _search_sweep(d)

    def test_kernel_calls_before_search_stay_within_bi_dominating_set(self, monkeypatch):
        """``λ`` comes from the Schnorr cycle over X, not from one flow to each of the other 143 vertices."""
        d = parse_operand("bcm:12 x bcm:12".split())[0]
        calls, before_search = [], []
        for module in (flow_module, packing):
            def counted(*args, _real=module._unit_flow):
                calls.append(args[1:3])
                return _real(*args)

            monkeypatch.setattr(module, "_unit_flow", counted)
        real_exact = packing._exact

        def logged_exact(*args, **kwargs):
            before_search.append(len(calls))
            return real_exact(*args, **kwargs)

        monkeypatch.setattr(packing, "_exact", logged_exact)
        r = lambda_2(d)
        assert (r.value, r.pair) == (4, (0, 1))
        assert len(before_search) == 1 and before_search[0] <= len(_bi_dominating(d))

    @given(SYMMETRIC_SIZES)
    @settings(max_examples=30, deadline=None)
    def test_pair_packing_equals_local_flow(self, size):
        d = _random_symmetric_digraph(*size)
        for x, y in itertools.combinations(range(d.n), 2):
            assert lambda_s_exact(d, (x, y)).value == max_flow_unit(d, x, y).value

    @pytest.mark.parametrize("n", range(2, 9))
    def test_digon_components(self, n):
        for seed in range(4):
            d = _digon_components(n, seed)
            r = lambda_2(d)
            assert r == _search_sweep(d)
            assert r.value == (1 if n == 2 else 0)
            for x, y in itertools.combinations(range(n), 2):
                assert lambda_s_exact(d, (x, y)).value == max_flow_unit(d, x, y).value

    @pytest.mark.parametrize(
        "spec, pair", [("btm:star:5 x bkm:3", (0, 3)), ("btm:star:6 x btm:path:4", (0, 4))]
    )
    def test_least_pair_need_not_be_first(self, spec, pair):
        d = parse_operand(spec.split())[0]
        r = lambda_2(d)
        assert r.pair == pair
        assert r == _search_sweep(d)

    def test_single_vertex_rejected(self):
        with pytest.raises(DigraphError):
            lambda_2(from_arc_list(1, []))

    def test_witness_value_mismatch_raises(self, monkeypatch):
        real = packing._exact

        def short(*args, **kwargs):
            r = real(*args, **kwargs)
            return packing.PackingResult(r.value - 1, r.witness, r.optimality, r.exact, r.lower, r.upper)

        monkeypatch.setattr(packing, "_exact", short)
        with pytest.raises(RuntimeError):
            lambda_2(complete_digraph(4))


class TestProvenFloor:
    """A proven floor on ``λ_S`` changes no field of ``_exact`` and spares only its two seed flows."""

    @given(st.integers(2, 7), st.booleans(), st.floats(0, 0.7), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_floor_changes_nothing_but_the_seed_flows(self, n, strong, prob, seed):
        d = random_strong_digraph(n, prob, seed) if strong else random_digraph(n, 3 * n, seed)
        tables = packing._ArcTables(d)
        least = lambda_2(d).value
        flows = []
        unit_flow = packing._unit_flow

        def logged_flow(d, s, t, *rest):
            flows.append((s, t, *rest))
            return unit_flow(d, s, t, *rest)

        def run(x, y, **kwargs):
            flows.clear()
            return packing._exact(d, tables, x, y, **kwargs), list(flows)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(packing, "_unit_flow", logged_flow)
            for x, y in itertools.combinations(range(n), 2):
                deg = packing._seed_degree(d, x, y)
                value = run(x, y)[0].value
                for cap in (None, value, max(value - 1, 0)):
                    plain, plain_flows = run(x, y, cap=cap)
                    for floor in {0, packing._floor(d), least, value}:
                        floored, floored_flows = run(x, y, cap=cap, floor=floor)
                        assert floored == plain, (x, y, cap, floor)
                        if floor >= deg:
                            # the seed bounds run both seed flows first; the search's own flows stay
                            assert floored_flows == plain_flows[2 if deg else 0 :]
                            flows.clear()
                            assert packing._seed_bounds(d, x, y, floor) == (deg, deg) and flows == []
                        else:
                            assert floored_flows == plain_flows

    def test_unsound_floor_raises(self):
        # two digons, no path between them: a floor at the seed degree 1 or above skips the seed
        # flows and leaves ub = 1, where feasible(1) fails at the pair (0, 2)
        d = from_arc_list(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        tables = packing._ArcTables(d)
        with pytest.raises(RuntimeError, match=r"pair \(0, 2\) has no packing of size 1 to 1"):
            packing._exact(d, tables, 0, 2, floor=3)
        assert packing._exact(d, tables, 0, 2).optimality == "unreachable"


class TestScreenPackerReuse:
    def test_exact_after_failed_screen_is_unchanged(self):
        """After a failed screen one above the value, ``_exact`` capped at the value finds the uncapped packing."""
        for seed in range(160):
            rng = random.Random(seed)
            d = random_strong_digraph(rng.randint(4, 7), rng.random() * 0.6, rng.getrandbits(32))
            tables = packing._ArcTables(d)
            for x, y in itertools.combinations(range(d.n), 2):
                fresh = packing._exact(d, tables, x, y)
                assert packing._SeedPacker(d, tables, x, y).feasible(fresh.value + 1) is None
                capped = packing._exact(d, tables, x, y, cap=fresh.value)
                assert (capped.value, capped.witness) == (fresh.value, fresh.witness)


class TestSeedArcInvariant:
    """Every class takes one arc from each of out(x), in(x), out(y) and in(y)."""

    def test_each_witness_member_has_one_arc_at_each_seed_side(self):
        members = 0
        for seed in range(400):
            rng = random.Random(seed)
            d = random_strong_digraph(rng.randint(2, 7), rng.random() * 0.7, rng.getrandbits(32))
            tables = packing._ArcTables(d)
            for x, y in itertools.combinations(range(d.n), 2):
                for member in packing._exact(d, tables, x, y).witness.members:
                    tails = [u for u, _ in member]
                    heads = [v for _, v in member]
                    assert (tails.count(x), heads.count(x), tails.count(y), heads.count(y)) == (1, 1, 1, 1)
                    members += 1
        assert members > 5000

    @pytest.mark.parametrize("seed", range(3))
    def test_seed_out_mask_read_from_its_row(self, seed):
        """``out_x`` is the mask of x's out-arcs, an empty row included."""
        rng = random.Random(seed)
        for _ in range(40):
            n = rng.randint(2, 9)
            d = random_digraph(n, rng.randint(0, 3 * n), rng.getrandbits(32))
            tables = packing._ArcTables(d)
            for x in range(n):
                mask = sum(1 << i for i, (u, _) in enumerate(d.sorted_arcs) if u == x)
                assert packing._SeedPacker(d, tables, x, (x + 1) % n).out_x == mask

    def test_feasible_above_the_seed_degree_makes_no_search_node(self, monkeypatch):
        nodes = []
        rec = packing._SeedPacker._rec

        def counted_rec(self, *args):
            nodes.append(args)
            return rec(self, *args)

        monkeypatch.setattr(packing._SeedPacker, "_rec", counted_rec)
        for d in (complete_digraph(4), bidirected_cycle(5), random_strong_digraph(6, 0.4, 3)):
            tables = packing._ArcTables(d)
            for x, y in itertools.combinations(range(d.n), 2):
                assert packing._SeedPacker(d, tables, x, y).feasible(packing._seed_degree(d, x, y) + 1) is None
        assert nodes == []
        packing._SeedPacker(d, tables, 0, 1).feasible(1)
        assert nodes

    def test_each_feasible_call_starts_with_an_empty_memo(self, monkeypatch):
        """A failure under one k is keyed on ``used`` alone, so it must not reach a search under another k."""
        root_memos = []
        rec = packing._SeedPacker._rec

        def root_rec(self, used, *args):
            if used == 0:
                root_memos.append(dict(self.fail_memo))
            return rec(self, used, *args)

        monkeypatch.setattr(packing._SeedPacker, "_rec", root_rec)
        failures_kept = 0
        for seed in range(60):
            rng = random.Random(seed)
            d = random_strong_digraph(rng.randint(4, 7), rng.random() * 0.6, rng.getrandbits(32))
            tables = packing._ArcTables(d)
            for x, y in itertools.combinations(range(d.n), 2):
                value = packing._exact(d, tables, x, y).value
                packer = packing._SeedPacker(d, tables, x, y)
                assert packer.feasible(value + 1) is None
                failures_kept += bool(packer.fail_memo)
                assert packer.feasible(value) is not None
        assert failures_kept > 0 and root_memos and not any(root_memos)


class TestOracles:
    def test_triple_seed_subsets_oracle(self):
        assert lambda_s_oracle_subsets(complete_digraph(3), (0, 1, 2)) == 2

    def test_oracle_refusal_on_large_instances(self):
        k4 = complete_digraph(4)
        with pytest.raises(OracleRefusal):
            lambda_s_oracle_subsets(k4, (0, 1), max_arcs=5)
        with pytest.raises(OracleRefusal):
            lambda_s_oracle_paths(k4, (0, 1), path_cap=2)

    def test_zero_on_unreachable(self):
        d = from_arc_list(3, [(0, 1), (1, 2)])
        assert lambda_s_oracle_subsets(d, (0, 2)) == 0
        assert lambda_s_oracle_paths(d, (0, 2)) == 0

    @pytest.mark.parametrize("seed", range(15))
    def test_three_routes_agree(self, seed):
        rng = random.Random(seed)
        d = random_digraph(rng.randint(3, 5), 12, rng.getrandbits(32))
        x = rng.randrange(d.n)
        y = rng.randrange(d.n - 1)
        if y >= x:
            y += 1
        _assert_three_routes_agree(d, (x, y))

    @given(st.integers(2, 5), st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=40, deadline=None)
    def test_exact_equals_both_oracles(self, n, seed, data):
        d = random_digraph(n, 14, seed)
        pair = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        _assert_three_routes_agree(d, pair)


def _assert_three_routes_agree(d, pair):
    exact = lambda_s_exact(d, pair).value
    assert exact == lambda_s_oracle_subsets(d, pair)
    assert exact == lambda_s_oracle_paths(d, pair)


@st.composite
def certificate_cases(draw):
    """A digraph of order at most 8 and a family of 0-5 members to verify in it.

    Members mix host arcs, off-host pairs, negative and out-of-range
    endpoints, cycles (strong wherever the host holds them), empty, repeated
    and overlapping members, as frozensets, sets, tuples or lists of tuple or
    list arcs.  The seed is usually a pair of distinct vertices of the digraph.
    """
    n = draw(st.integers(2, 8))
    vertex = st.integers(0, n - 1)
    if draw(st.booleans()):
        d = complete_digraph(n)
    else:
        d = from_arc_list(n, draw(st.sets(st.tuples(vertex, vertex).filter(lambda a: a[0] != a[1]), max_size=24)))
    if draw(st.integers(0, 9)):
        seed = tuple(draw(st.lists(vertex, min_size=2, max_size=2, unique=True)))
    else:  # possibly equal, negative or past n: both checks must raise
        seed = draw(st.tuples(st.integers(-1, n), st.integers(-1, n)))
    loose = st.tuples(st.integers(-2, n + 1), st.integers(-2, n + 1))
    arc = st.sampled_from(d.sorted_arcs) | loose if d.arcs else loose
    members: list[list] = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["arcs", "cycle", "repeat", "overlap"] if members else ["arcs", "cycle"]))
        if kind == "cycle":
            ring = draw(st.lists(vertex, min_size=2, max_size=n, unique=True))
            arcs = list(zip(ring, ring[1:] + ring[:1]))
        else:
            arcs = draw(st.lists(arc, max_size=8))
            if kind != "arcs":
                earlier = draw(st.sampled_from(members))
                arcs = list(earlier) if kind == "repeat" else earlier[: len(earlier) // 2 + 1] + arcs
        members.append(arcs)
    shaped = []
    for arcs in members:
        form = draw(st.sampled_from([frozenset, set, tuple, list, "lists"]))
        shaped.append([list(a) for a in arcs] if form == "lists" else form(arcs))
    return d, CertificateFamily(n, seed, tuple(shaped))


class TestCertificates:
    def build(self, members, seed=(0, 1), n=3, origin="search"):
        return CertificateFamily(n, seed, tuple(frozenset(m) for m in members), origin)

    def test_valid_family(self):
        d = complete_digraph(3)
        cert = self.build([[(0, 1), (1, 0)], [(0, 2), (2, 1), (1, 2), (2, 0)]])
        report = verify_certificate(d, cert)
        assert report.valid and all(report.member_in_host)
        assert all(report.member_strong) and all(report.member_has_seed)
        assert report.overlaps == ()

    def test_foreign_arc_flagged(self):
        d = from_arc_list(3, [(0, 1), (1, 0)])
        report = verify_certificate(d, self.build([[(0, 1), (1, 0), (2, 0)]]))
        assert not report.valid and report.member_in_host == (False,)

    def test_non_strong_member_flagged(self):
        d = complete_digraph(3)
        report = verify_certificate(d, self.build([[(0, 1), (1, 2)]]))
        assert not report.valid and report.member_strong == (False,)

    def test_negative_endpoint_is_reported_not_raised(self):
        d = from_arc_list(3, [(0, 1), (1, 0)])
        report = verify_certificate(d, self.build([[(0, 1), (1, -1), (-1, 0)]]))
        assert not report.valid
        assert report.member_in_host == (False,) and report.member_strong == (False,)

    def test_strongness_reported_off_host_and_out_of_range(self):
        d = from_arc_list(3, [(0, 1), (1, 0)])
        report = verify_certificate(d, self.build([[(0, 2), (2, 1), (1, 0)], [(0, 1), (1, 5), (5, 0)]]))
        assert report.member_in_host == (False, False)
        assert report.member_strong == (True, False)

    @pytest.mark.parametrize("seed", [(1, 1), (0, 3), (-1, 0)])
    def test_seed_pair_outside_the_host_raises(self, seed):
        with pytest.raises(DigraphError):
            verify_certificate(complete_digraph(3), self.build([[(0, 1), (1, 0)]], seed=seed))

    def test_member_missing_seed_flagged(self):
        d = complete_digraph(3)
        report = verify_certificate(d, self.build([[(1, 2), (2, 1)]]))
        assert not report.valid and report.member_has_seed == (False,)

    def test_overlap_reported_with_shared_arcs(self):
        d = complete_digraph(3)
        member = [(0, 1), (1, 0)]
        report = verify_certificate(d, self.build([member, member]))
        assert not report.valid
        assert report.overlaps == ((0, 1, frozenset(member)),)

    @pytest.mark.parametrize(
        "member,has_seed",
        [([(0, 1, 2), (1, 0)], True), ([(0,)], False), ([("a", "b")], False)],
        ids=["three-entry-arc", "one-entry-arc", "non-numeric-arc"],
    )
    def test_malformed_member_is_reported_not_raised(self, member, has_seed):
        # the reference raises on each of these; the seed test reads every entry of every arc
        d, cert = complete_digraph(3), CertificateFamily(3, (0, 1), (member, [(0, 2), (2, 1), (1, 2), (2, 0)]))
        with pytest.raises((TypeError, ValueError)):
            reference_verify_certificate(d, cert)
        report = verify_certificate(d, cert)
        assert report == CertificateReport(False, (False, True), (False, True), (has_seed, True), ())

    @given(certificate_cases())
    @settings(max_examples=400, deadline=None)
    def test_equals_the_reference(self, case):
        d, cert = case
        try:
            expected = reference_verify_certificate(d, cert)
        except DigraphError:
            with pytest.raises(DigraphError):
                verify_certificate(d, cert)
            return
        assert verify_certificate(d, cert) == expected

    def test_json_round_trip(self):
        r = lambda_s_exact(complete_digraph(3), (0, 1))
        restored = certificate_from_json(certificate_to_json(r.witness))
        assert restored == r.witness

    def test_json_rejects_garbage(self):
        with pytest.raises(DigraphError):
            certificate_from_json("{not json")
        with pytest.raises(DigraphError):
            certificate_from_json('{"n": 3}')


class TestUpperBound:
    def test_bound_is_degree_and_flow_limited(self):
        d = complete_digraph(4)
        assert _seed_bounds(d, 0, 1)[1] == 3

    def test_strong_member_requires_seed_degrees(self):
        # seed vertex 0 has a single out-arc, so at most one member can use it
        d = from_arc_list(4, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2), (3, 0)])
        assert _seed_bounds(d, 0, 1)[1] == 1
