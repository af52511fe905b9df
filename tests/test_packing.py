"""Seed-pair strong-subgraph packing: exact search, oracles, certificates."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from strongarc import digraph as digraph_module
from strongarc import packing
from strongarc.cli import parse_operand
from strongarc.digraph import DigraphError, _automorphism_generators, from_arc_list, is_strong
from strongarc.generators import (
    bidirected_cycle,
    complete_digraph,
    directed_cycle,
    random_digraph,
    random_strong_digraph,
)
from strongarc.packing import (
    CertificateFamily,
    CertificateReport,
    OracleRefusal,
    certificate_from_json,
    certificate_to_json,
    lambda_2,
    lambda_s_exact,
    lambda_s_oracle_paths,
    lambda_s_oracle_subsets,
    _pair_orbit_representatives,
    lambda_s_upper_bound,
    verify_certificate,
)
from strongarc.product import cartesian_product


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
        assert r.value <= lambda_s_upper_bound(d, (0, 1))


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

    @pytest.mark.parametrize("samples", [0, -2])
    def test_samples_below_one_rejected(self, samples):
        with pytest.raises(DigraphError, match="samples must be at least 1"):
            lambda_2(bidirected_cycle(5), samples=samples, seed=1)

    def test_sampled_mode_deterministic(self):
        d = random_digraph(6, 18, 1)
        a = lambda_2(d, samples=5, seed=42)
        b = lambda_2(d, samples=5, seed=42)
        assert a.value == b.value and a.pair == b.pair


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


def _brute_force_pair_orbits(d):
    """Pair orbits under the full automorphism group, by trying every permutation."""
    arcs = d.arcs
    group = [
        p for p in itertools.permutations(range(d.n)) if all((p[u], p[v]) in arcs for u, v in arcs)
    ]
    orbits = {
        (x, y): min(tuple(sorted((p[x], p[y]))) for p in group)
        for x in range(d.n)
        for y in range(x + 1, d.n)
    }
    return sorted(set(orbits.values()))


class TestPairOrbits:
    @pytest.mark.parametrize("name, d", ORBIT_INSTANCES, ids=[name for name, _ in ORBIT_INSTANCES])
    def test_orbit_sweep_equals_all_pairs_sweep(self, name, d):
        every_pair = lambda_2(d, samples=d.n * (d.n - 1) // 2, seed=0)
        r = lambda_2(d)
        assert r.exact
        assert (r.value, r.pair, r.witness) == (every_pair.value, every_pair.pair, every_pair.witness)

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
            for p in _automorphism_generators(d):
                assert frozenset((p[u], p[v]) for u, v in d.arcs) == d.arcs, name
            every_pair = lambda_2(d, samples=d.n * (d.n - 1) // 2, seed=0)
            r = lambda_2(d)
            assert (r.value, r.pair, r.witness) == (every_pair.value, every_pair.pair, every_pair.witness)

    @pytest.mark.parametrize("name, d", SMALL_INSTANCES, ids=[name for name, _ in SMALL_INSTANCES])
    def test_orbits_match_full_automorphism_group(self, name, d):
        assert _pair_orbit_representatives(d) == _brute_force_pair_orbits(d)

    @pytest.mark.parametrize(
        "spec, count", [("cn:5", 2), ("bkm:6 x bkm:6", 2), ("bcm:6 x bcm:6", 9)]
    )
    def test_known_pair_orbit_counts(self, spec, count):
        assert len(_pair_orbit_representatives(parse_operand(spec.split())[0])) == count

    def test_rigid_digraph_keeps_every_pair(self):
        d = from_arc_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (1, 3)])
        assert len(_brute_force_pair_orbits(d)) == 10
        assert _automorphism_generators(d) == []
        assert len(_pair_orbit_representatives(d)) == 10

    @pytest.mark.parametrize("budget", [0, 1, 3])
    def test_exhausted_budget_keeps_result(self, monkeypatch, budget):
        cases = [d for _, d in ORBIT_INSTANCES[-7:]]
        full = [lambda_2(d) for d in cases]
        monkeypatch.setattr(digraph_module, "_AUTOMORPHISM_NODE_BUDGET", budget)
        for d, expected in zip(cases, full):
            if budget == 0:
                assert _automorphism_generators(d) == []
                assert len(_pair_orbit_representatives(d)) == d.n * (d.n - 1) // 2
            r = lambda_2(d)
            assert (r.value, r.pair, r.witness) == (expected.value, expected.pair, expected.witness)

    def test_invalid_witness_raises(self, monkeypatch):
        def reject(d, cert):
            return CertificateReport(False, (), (), (), ())

        monkeypatch.setattr(packing, "verify_certificate", reject)
        with pytest.raises(RuntimeError):
            lambda_2(bidirected_cycle(4))


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
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_exact_equals_both_oracles(self, n, seed, data):
        d = random_digraph(n, 14, seed)
        pair = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        _assert_three_routes_agree(d, pair)


def _assert_three_routes_agree(d, pair):
    exact = lambda_s_exact(d, pair).value
    assert exact == lambda_s_oracle_subsets(d, pair)
    assert exact == lambda_s_oracle_paths(d, pair)


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

    def test_strongness_reported_off_host_and_out_of_range(self):
        d = from_arc_list(3, [(0, 1), (1, 0)])
        report = verify_certificate(d, self.build([[(0, 2), (2, 1), (1, 0)], [(0, 1), (1, 5), (5, 0)]]))
        assert report.member_in_host == (False, False)
        assert report.member_strong == (True, False)

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
        assert lambda_s_upper_bound(d, (0, 1)) == 3

    def test_strong_member_requires_seed_degrees(self):
        # seed vertex 0 has a single out-arc, so at most one member can use it
        d = from_arc_list(4, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2), (3, 0)])
        assert lambda_s_upper_bound(d, (0, 1)) == 1
