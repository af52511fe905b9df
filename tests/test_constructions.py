"""Product connectivity formulas, closed-form certificate families, lifting, hunts."""

import hashlib
import random
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from strongarc import constructions, packing
from strongarc import digraph as digraph_module
from strongarc.constructions import (
    CLASS_TOKENS,
    ConstructionError,
    HuntHit,
    all_connected_graphs,
    check_bounds,
    check_product_formula,
    check_symmetric_identity,
    class_digraph,
    class_table_value,
    cycle_bicycle_family,
    cycle_complete_family,
    cycle_cycle_family,
    cycle_tree_family,
    hunt_tightness,
    lift_certificates,
    product_lambda_2,
    product_lambda_formula,
)
from strongarc.cli import parse_class_spec
from strongarc.digraph import (
    Digraph,
    DigraphError,
    _automorphism_generators,
    biorient,
    from_arc_list,
    is_strong,
    is_symmetric,
)
from strongarc.flow import arc_connectivity
from strongarc.generators import (
    TREE_KINDS,
    TreeShape,
    bidirected_cycle,
    complete_digraph,
    directed_cycle,
    random_strong_digraph,
)
from strongarc.packing import _search_sweep, certificate_to_json, lambda_2, verify_certificate
from strongarc.product import cartesian_product

from oracles import reference_verify_certificate

GOLDEN = Path(__file__).parent / "golden"

# Bidirected K_{2,3} with parts {0, 3} and {1, 2, 4}: its pair-packing number
# is 2 but the pair (0, 3) packs 3 members, so factor families can have spares.
K23 = biorient(5, ((0, 1), (0, 2), (0, 4), (1, 3), (2, 3), (3, 4)))

# a strong digraph of order 4 whose only automorphism is the identity
RIGID = random_strong_digraph(4, 0.3, 0)

AUTOMORPHIC_FACTORS = [f"cn:{n}" for n in range(3, 7)] + [f"bcm:{n}" for n in range(3, 6)]
AUTOMORPHIC_FACTORS += [f"bkm:{n}" for n in range(2, 5)] + ["btm:star:4", "btm:star:5"]


class TestFormula:
    def test_cycle_square_breakdown(self):
        b = product_lambda_formula(directed_cycle(3), directed_cycle(3))
        assert b.value == 2
        assert (b.lambda_g, b.lambda_h) == (1, 1)
        assert (b.term_g_scaled, b.term_h_scaled, b.term_out, b.term_in) == (3, 3, 2, 2)
        assert b.argmin == ("out-degrees", "in-degrees")

    def test_scaled_term_wins_for_complete_factors(self):
        b = product_lambda_formula(complete_digraph(4), directed_cycle(5))
        # min(3*5, 1*4, 3+1, 3+1) = 4
        assert b.value == 4 and b.argmin == ("h-scaled", "out-degrees", "in-degrees")

    def test_rejects_non_strong_factor(self):
        with pytest.raises(DigraphError):
            product_lambda_formula(from_arc_list(3, [(0, 1), (1, 2)]), directed_cycle(3))

    def test_rejects_trivial_factor(self):
        with pytest.raises(DigraphError):
            product_lambda_formula(from_arc_list(1, []), directed_cycle(3))

    @pytest.mark.parametrize(
        "build",
        [product_lambda_formula, lambda g, h: lift_certificates(g, h, (0, 0), (1, 1))],
        ids=["formula", "lift"],
    )
    @pytest.mark.parametrize(
        "weak,message",
        [
            (from_arc_list(1, []), "must have at least 2 vertices, got 1"),
            (from_arc_list(3, [(0, 1), (1, 2)]), "must be strong"),
            (from_arc_list(4, [(0, 1), (1, 0), (2, 3), (3, 2)]), "must be strong"),
        ],
        ids=["trivial", "path", "two-digons"],
    )
    def test_rejection_names_the_factor(self, build, weak, message):
        # strongness comes from the factor's lambda (formula) or lambda_2 (lift), both 0 exactly when not strong
        with pytest.raises(DigraphError, match=f"^first factor {message}$"):
            build(weak, directed_cycle(3))
        with pytest.raises(DigraphError, match=f"^second factor {message}$"):
            build(directed_cycle(3), weak)

    @pytest.mark.parametrize("seed", range(10))
    def test_formula_matches_flow_on_random_products(self, seed):
        rng = random.Random(seed)
        g = random_strong_digraph(rng.randint(2, 5), 0.3, rng.getrandbits(32))
        h = random_strong_digraph(rng.randint(2, 5), 0.3, rng.getrandbits(32))
        result = check_product_formula(g, h)
        assert result.holds and result.cut_ok
        assert result.computed == result.formula.value


class TestUndirectedFormula:
    # Xu and Yang's edge-connectivity formula is the four-term formula on biorientations

    def test_triangle_times_square(self):
        u = product_lambda_formula(
            biorient(3, ((0, 1), (0, 2), (1, 2))), biorient(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
        )
        # min(2*4, 2*3, 2+2, 2+2) = 4: the out- and in-degree terms are both Xu-Yang's degree term
        assert u.value == 4 and u.argmin == ("out-degrees", "in-degrees")

    def test_rejects_disconnected(self):
        with pytest.raises(DigraphError, match="^first factor must be strong$"):
            product_lambda_formula(biorient(3, ((0, 1),)), biorient(2, ((0, 1),)))


class TestSymmetricIdentity:
    def test_triangle_times_path(self):
        triangle, path = biorient(3, ((0, 1), (0, 2), (1, 2))), biorient(3, ((0, 1), (1, 2)))
        check = check_symmetric_identity(triangle, path, arc_connectivity(triangle), arc_connectivity(path))
        assert check.holds
        assert check.formula_value == check.observed_lambda2 == 3

    def test_two_flows_per_product(self, monkeypatch):
        # one arc_connectivity per graph of the catalogue: checking its 25 products runs no more
        calls = []
        real = constructions.arc_connectivity
        monkeypatch.setattr(constructions, "arc_connectivity", lambda d: calls.append(d) or real(d))
        catalog = [biorient(n, edges) for n in (2, 3) for edges in all_connected_graphs(n)]
        reports = [constructions.arc_connectivity(b) for b in catalog]
        for bg, lambda_g in zip(catalog, reports):
            for bh, lambda_h in zip(catalog, reports):
                assert check_symmetric_identity(bg, bh, lambda_g, lambda_h).holds
        assert len(catalog) ** 2 == 25 and len(calls) == 5

    def test_disconnected_graph_is_rejected(self):
        edge, pair = biorient(2, ((0, 1),)), biorient(2, ())
        with pytest.raises(DigraphError, match="second factor must be strong"):
            check_symmetric_identity(edge, pair, arc_connectivity(edge), arc_connectivity(pair))

    def test_single_graph_identity(self):
        # the pair-packing number of a biorientation equals the graph's edge connectivity
        for edges, n in [
            (((0, 1), (1, 2), (2, 0)), 3),
            (((0, 1), (1, 2), (2, 3), (3, 0), (0, 2)), 4),
        ]:
            b = biorient(n, edges)
            assert lambda_2(b).value == arc_connectivity(b).value


class TestAllConnectedGraphs:
    @pytest.mark.parametrize("n,count", [(2, 1), (3, 4), (4, 38)])
    def test_counts_match_known_sequence(self, n, count):
        graphs = all_connected_graphs(n)
        assert len(graphs) == count
        assert all(is_strong(biorient(n, edges)) for edges in graphs)

    def test_no_duplicates(self):
        graphs = all_connected_graphs(4)
        assert len(set(graphs)) == len(graphs)

    def test_order_zero_rejected(self):
        with pytest.raises(DigraphError, match="order must be positive, got 0"):
            all_connected_graphs(0)


class TestBounds:
    def test_cycle_square(self):
        r = check_bounds(directed_cycle(3), directed_cycle(3))
        assert (r.lower, r.observed, r.upper) == (1, 2, 2)
        assert r.sandwich_ok and r.upper_tight and not r.lower_tight

    def test_complete_square(self):
        r = check_bounds(complete_digraph(3), complete_digraph(3))
        assert (r.lower, r.observed, r.upper) == (3, 4, 4)
        assert r.sandwich_ok

    @pytest.mark.parametrize("g,h", [(directed_cycle(3), K23), (complete_digraph(3), directed_cycle(4))])
    def test_pair_and_witness_are_the_products_lambda2(self, g, h):
        r = check_bounds(g, h)
        prod = cartesian_product(g, h).digraph
        best = lambda_2(prod)
        assert (r.observed, r.pair, r.witness) == (best.value, best.pair, best.witness)
        assert verify_certificate(prod, r.witness).valid and len(r.witness.members) == r.observed


def _random_factor_pair(seed, max_order):
    """Two random strong factors of order 2 to ``max_order``, drawn like `check bounds` draws them."""
    rng = random.Random(seed)
    return tuple(
        random_strong_digraph(rng.randint(2, max_order), rng.random() * 0.5, rng.getrandbits(32))
        for _ in range(2)
    )


def _bare_bounds(g, h):
    """``check_bounds`` as it reads with ``lambda_2`` on the bare product, no pair skipped."""
    upper = product_lambda_formula(g, h).value
    g2, h2 = lambda_2(g).value, lambda_2(h).value
    product = lambda_2(cartesian_product(g, h).digraph)
    lower = g2 + h2 - 1
    return constructions.BoundsReport(
        lower=lower,
        upper=upper,
        lambda2_g=g2,
        lambda2_h=h2,
        observed=product.value,
        lower_tight=product.value == lower,
        upper_tight=product.value == upper,
        sandwich_ok=lower <= product.value <= upper,
        pair=product.pair,
        witness=product.witness,
    )


class TestLiftSettledSweep:
    """The product sweep skips pairs by the stronger lift's bound; each gate is checked against the long way."""

    def test_drop_test_counts_the_lifted_members(self):
        # every seed pair, in both orders, of random factor pairs of order 2-5
        drops = settled = 0
        for seed in range(12):
            g, h = _random_factor_pair(seed, 5)
            g_fams = constructions._FactorPackings("first factor", g)
            h_fams = constructions._FactorPackings("second factor", h)
            g2, h2 = g_fams.least, h_fams.least
            p = cartesian_product(g, h)
            for x in range(p.digraph.n):
                for y in range(p.digraph.n):
                    if x == y:
                        continue
                    (r1, c1), (r2, c2) = p.decode(x), p.decode(y)
                    general = r1 != r2 and c1 != c2
                    dropped = general and constructions._drop_layout(g_fams, h_fams, r1, c1, r2, c2)
                    _, fam = lift_certificates(g, h, (r1, c1), (r2, c2))
                    assert len(fam.members) == g2 + h2 - dropped, (seed, x, y)
                    drops += dropped
                    settled += general and not dropped
        assert drops > 0 and settled > 0

    def test_seeded_packing_is_the_one_a_search_finds(self, monkeypatch):
        """The record's packing at λ₂'s pair equals a fresh ``_factor_family`` search, on all three routes.

        The record builds its arc tables once: its ``λ₂`` sweep and its later searches share them.
        """
        built = []
        init = packing._ArcTables.__init__

        def counted_init(self, d):
            built.append(d)
            init(self, d)

        monkeypatch.setattr(packing._ArcTables, "__init__", counted_init)
        routes = set()
        factors = [bidirected_cycle(5), complete_digraph(4), K23, directed_cycle(4)]
        factors += [random_strong_digraph(2 + seed % 5, 0.1 * (seed % 7), seed) for seed in range(60)]
        for d in factors:
            built.clear()
            fams = constructions._FactorPackings("factor", d)
            (pair, seeded), = fams._found.items()
            for a in range(d.n):
                for b in range(a + 1, d.n):
                    fams.at(a, b)
            assert built == [d]
            fresh = constructions._factor_family(d, packing._ArcTables(d), pair, fams.least)
            assert seeded == fresh and len(seeded) == fams.least
            routes.add("flow" if is_symmetric(d) else "search" if pair == (0, 1) else "capped")
        assert routes == {"flow", "search", "capped"}

    def test_lift_bound_is_the_floor_of_the_first_solve(self, monkeypatch):
        # λ₂(cn:3) = 1, and (0, 1) shares row 0, so the lift gives it 2 members, its seed degree
        g = directed_cycle(3)
        d = cartesian_product(g, g).digraph
        seed_flows = []
        unit_flow = packing._unit_flow

        def logged_flow(flow_d, s, t, need, *excluded):
            if flow_d == d and not excluded:  # a seed flow; the packer's own flows exclude used arcs
                seed_flows.append((s, t))
            return unit_flow(flow_d, s, t, need, *excluded)

        monkeypatch.setattr(packing, "_unit_flow", logged_flow)
        r = product_lambda_2(g, g)
        assert (r.value, r.pair) == (2, (0, 1)) and packing._seed_degree(d, 0, 1) == 2
        assert (0, 1) not in seed_flows and (1, 0) not in seed_flows

    @given(st.integers(2, 5), st.integers(2, 5), st.floats(0, 0.6), st.floats(0, 0.6), st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_product_sweep_equals_the_orbit_sweep(self, n, m, p_g, p_h, seed):
        g = random_strong_digraph(n, p_g, seed)
        h = random_strong_digraph(m, p_h, seed + 1)
        assert product_lambda_2(g, h) == _search_sweep(cartesian_product(g, h).digraph)

    @pytest.mark.parametrize("spec", AUTOMORPHIC_FACTORS)
    def test_product_sweep_equals_the_orbit_sweep_with_automorphisms(self, spec):
        # against a rigid factor, in both orders, and against itself, where Aut(G □ G) also
        # swaps the coordinates and so is larger than the factor group the sweep uses
        g = parse_class_spec(spec)
        assert _automorphism_generators(g) and not _automorphism_generators(RIGID)
        for left, right in [(g, RIGID), (RIGID, g), (g, g)]:
            assert product_lambda_2(left, right) == _search_sweep(cartesian_product(left, right).digraph)
        swept = list(packing._pair_orbit_representatives(g, g))
        assert len(swept) > len(list(packing._pair_orbit_representatives(cartesian_product(g, g).digraph)))

    @staticmethod
    def _logged_searches(monkeypatch):
        """The order of each digraph the generator search runs on, after ``K₁``'s table is built."""
        packing._POINT.pair_orbits  # a bare sweep's second factor, searched once per process
        searched = []
        generators = digraph_module._automorphism_generators
        monkeypatch.setattr(digraph_module, "_automorphism_generators", lambda d: searched.append(d.n) or generators(d))
        return searched

    def test_product_sweep_takes_its_orbits_from_the_factors(self, monkeypatch):
        searched = self._logged_searches(monkeypatch)
        for g, h in [(directed_cycle(5), bidirected_cycle(4)), (directed_cycle(4), directed_cycle(4)), (RIGID, K23)]:
            g, h = Digraph(g.n, g.arcs), Digraph(h.n, h.arcs)  # no table cached by an earlier test
            searched.clear()
            product_lambda_2(g, h)
            assert sorted(searched) == sorted([g.n, h.n])  # one table per factor, past the floor exit
            assert g.n * h.n not in searched
        # a lift reads no orbit table
        searched.clear()
        lift_certificates(directed_cycle(5), bidirected_cycle(4), (0, 0), (1, 2))
        assert searched == []
        # no product of strong factors is known to have λ₂ = 1, the floor, so the floor is
        # raised to make the product sweep take its exit at (0, 1)
        monkeypatch.setattr(packing, "_floor", lambda d: d.n)
        assert product_lambda_2(directed_cycle(5), bidirected_cycle(4)).pair == (0, 1)
        assert searched == []

    def test_factor_sweep_and_product_sweep_share_one_orbit_table(self, monkeypatch):
        # λ₂(cn:3 □ cn:3) = 2 is above the floor, so the factor's own sweep builds its table
        g, h = cartesian_product(directed_cycle(3), directed_cycle(3)).digraph, directed_cycle(4)
        assert not is_symmetric(g) and lambda_2(Digraph(g.n, g.arcs)).value == 2
        searched = self._logged_searches(monkeypatch)
        product_lambda_2(g, h)
        assert searched.count(g.n) == 1 and g.n * h.n not in searched

    @pytest.mark.parametrize("seed", range(10))
    def test_check_bounds_equals_the_bare_product_reference(self, seed):
        g, h = _random_factor_pair(seed, 6)
        assert check_bounds(g, h) == _bare_bounds(g, h)

    def test_non_strong_factor_takes_the_bare_product(self):
        path = from_arc_list(3, [(0, 1), (1, 2)])
        cycle = directed_cycle(3)
        assert product_lambda_2(path, cycle) == lambda_2(cartesian_product(path, cycle).digraph)

    # seeds 0-5 and 7 draw products whose λ₂ is λ₂(G) + λ₂(H); on seeds 24, 152 and 178 it is one
    # more, so only the whole factor packings settle pairs once the running minimum is found
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 7, 24, 152, 178])
    def test_product_sweep_equals_the_bare_sweep_on_larger_factors(self, seed):
        rng = random.Random(seed)
        g, h = (random_strong_digraph(rng.randint(8, 12), rng.random() * 0.5, rng.getrandbits(32)) for _ in range(2))
        assert product_lambda_2(g, h) == lambda_2(cartesian_product(g, h).digraph)


def _stronger_lift_factor_pairs():
    """60 random factor pairs of order 2-6, every ordered pair of the classes at order 3-5 (trees
    are paths) with a `cn` factor, and one rare second factor: its whole packing at (4, 1) has
    λ₂ + 1 = 2 members, and the second one, not the first, leaves 4 only towards 1.  The other
    class products are symmetric, and the product sweep takes their flow route, not the lift."""
    for seed in range(60):
        yield f"rand#{seed}", *_random_factor_pair(seed, 6)
    classes = [(f"{cls}:{n}", class_digraph(cls, n)) for cls in CLASS_TOKENS for n in range(3, 6)]
    for (g_token, g), (h_token, h) in ((a, b) for a in classes for b in classes):
        if "cn" in (g_token[:2], h_token[:2]):
            yield f"{g_token} x {h_token}", g, h
    rng = random.Random(881)
    yield "cn:3 x rand7#881", directed_cycle(3), random_strong_digraph(rng.randint(2, 7), rng.random() * 0.7, rng.getrandbits(32))


class TestStrongerLift:
    """The stronger lift behind the product sweep's bound ``L``: distinct bridge rows, whole factor packings."""

    @pytest.fixture(autouse=True)
    def _verified_as_the_reference_verifies(self, monkeypatch):
        # every family these tests build is sealed through constructions.verify_certificate:
        # its report must equal the reference's, field by field
        def checked(d, fam):
            report = verify_certificate(d, fam)
            assert report == reference_verify_certificate(d, fam)
            return report

        monkeypatch.setattr(constructions, "verify_certificate", checked)

    @staticmethod
    def _lift(g, h, x_pos, y_pos):
        g_fams, h_fams = constructions._FactorPackings("first factor", g), constructions._FactorPackings("second factor", h)
        p, fam = constructions._sealed_lift(g_fams, h_fams, x_pos, y_pos, True)
        assert verify_certificate(p.digraph, fam).valid
        return fam, constructions._lift_size(g_fams, h_fams, *x_pos, *y_pos)

    @pytest.mark.parametrize("g,h", [pytest.param(g, h, id=label) for label, g, h in _stronger_lift_factor_pairs()])
    def test_every_seed_pair_gets_exactly_L_members(self, g, h):
        # the family is sealed: it passes verify_certificate with exactly L members, or it raises.
        # On products of order at most 25, L is also checked against the exact value: a search
        # capped at L finds L members only where the pair's value is at least L
        g_fams, h_fams = constructions._FactorPackings("first factor", g), constructions._FactorPackings("second factor", h)
        bound = g_fams.least + h_fams.least
        p = cartesian_product(g, h)
        tables = packing._ArcTables(p.digraph) if p.digraph.n <= 25 else None
        for x in range(p.digraph.n):
            for y in range(x + 1, p.digraph.n):
                (r1, c1), (r2, c2) = x_pos, y_pos = p.decode(x), p.decode(y)
                size = len(constructions._sealed_lift(g_fams, h_fams, x_pos, y_pos, True)[1].members)
                assert size >= constructions._lift_size(g_fams, h_fams, r1, c1, r2, c2), (x, y)
                # the sweep's lazy reading: it reaches need where L does, and never exceeds L
                for need in range(bound + 3):
                    assert min(size, need) <= constructions._lift_bound(g_fams, h_fams, r1, c1, r2, c2, need) <= size
                if tables is not None:
                    assert packing._exact(p.digraph, tables, x, y, cap=size).value == size, (x, y)

    def test_distinct_rows_free_a_forced_member(self):
        # the triangle's one member leaves 0 only for 1, but holds 2: bridged there, nothing collides,
        # so the drop layout of lift_certificates keeps all of λ₂(G) + λ₂(H) = 3 members
        fam, size = self._lift(directed_cycle(3), bidirected_cycle(4), (0, 0), (1, 2))
        assert (len(fam.members), size) == (3, 2)

    def test_stuck_side_needs_the_digon(self):
        # K₂'s one member is the digon itself, with no vertex off the seed lines: stuck
        k2, triangle = complete_digraph(2), directed_cycle(3)
        fams = constructions._FactorPackings("factor", k2)
        assert fams.forced(0, 1) and fams.stuck(0, 1)
        assert not any(constructions._FactorPackings("factor", triangle).stuck(a, b) for a in range(3) for b in range(3) if a != b)
        # facing the stuck K₂, the triangle keeps its forced out-neighbour row, and the two swap halves
        assert len(self._lift(k2, triangle, (0, 0), (1, 1))[0].members) == 2
        # the triangle holds no arc 1 -> 0, so it is not forced, has no spare, and one member goes
        assert len(self._lift(k2, triangle, (0, 1), (1, 0))[0].members) == 1

    def test_whole_packings_lift_past_the_lambda_2_members(self):
        # K23 packs 3 members at (0, 3) although λ₂(K23) = 2: every one of them is lifted
        fam, size = self._lift(K23, directed_cycle(3), (0, 0), (3, 0))
        assert (len(fam.members), size) == (4, 3)
        fam, size = self._lift(directed_cycle(3), K23, (0, 0), (1, 3))
        assert (len(fam.members), size) == (4, 3)

    def test_lift_bound_searches_only_beside_a_digon(self):
        # read through the records' packing memos: below the sum the bound searches nothing, and at
        # the sum a memo grows only for seeds in distinct rows and columns where G or H holds the
        # digon on its seed lines; the factor searched need not be the one with the digon
        def digon(d, a, b):
            return d.has_arc(a, b) and d.has_arc(b, a)

        growths = off_digon = 0
        for g, h in (_random_factor_pair(seed, 6) for seed in range(30)):
            g_fams, h_fams = constructions._FactorPackings("first factor", g), constructions._FactorPackings("second factor", h)
            bound = g_fams.least + h_fams.least
            p = cartesian_product(g, h)
            for x in range(p.digraph.n):
                for y in range(p.digraph.n):
                    if x == y:
                        continue
                    (r1, c1), (r2, c2) = p.decode(x), p.decode(y)
                    before = len(g_fams._found), len(h_fams._found)
                    assert constructions._lift_bound(g_fams, h_fams, r1, c1, r2, c2, bound - 1) == bound - 1
                    assert (len(g_fams._found), len(h_fams._found)) == before
                    constructions._lift_bound(g_fams, h_fams, r1, c1, r2, c2, bound)
                    g_grew, h_grew = len(g_fams._found) > before[0], len(h_fams._found) > before[1]
                    if g_grew or h_grew:
                        assert r1 != r2 and c1 != c2, (x, y)
                        assert digon(g, r1, r2) or digon(h, c1, c2), (x, y)
                        growths += 1
                        off_digon += (g_grew and not digon(g, r1, r2)) or (h_grew and not digon(h, c1, c2))
        assert growths > 0 and off_digon > 0
        # K₂ is stuck at (0, 1), so C₅'s packing at {1, 3} is searched, though C₅ holds neither arc
        g_fams, h_fams = (constructions._FactorPackings("factor", d) for d in (complete_digraph(2), directed_cycle(5)))
        constructions._lift_bound(g_fams, h_fams, 0, 1, 1, 3, 2)
        assert (1, 3) in h_fams._found


class TestClassTable:
    def test_full_grid(self):
        n, m = 4, 5
        grid = [[class_table_value(a, b, n, m) for b in CLASS_TOKENS] for a in CLASS_TOKENS]
        assert grid == [[2, 3, 2, 5], [3, 4, 3, 6], [2, 3, 2, 5], [4, 5, 4, 7]]

    def test_symmetry(self):
        for a in CLASS_TOKENS:
            for b in CLASS_TOKENS:
                assert class_table_value(a, b, 4, 5) == class_table_value(b, a, 5, 4)

    def test_order_minimum_enforced(self):
        with pytest.raises(DigraphError):
            class_table_value("cn", "bkm", 2, 3)
        with pytest.raises(DigraphError):
            class_table_value("bkm", "bcm", 3, 2)
        with pytest.raises(DigraphError):
            class_table_value("xyz", "cn", 3, 3)

    def test_entries_match_search_for_small_orders(self):
        for a in CLASS_TOKENS:
            for b in CLASS_TOKENS:
                n = max(3, 3)
                m = 3
                p = cartesian_product(class_digraph(a, n), class_digraph(b, m))
                assert lambda_2(p.digraph).value == class_table_value(a, b, n, m)

    def test_every_entry_is_the_sum_of_the_factor_values(self):
        """λ₂(G) + λ₂(H) by search on each class digraph, both tree shapes included, orders up to 6."""
        factors = [(cls, n, None) for cls in CLASS_TOKENS for n in range(constructions._CLASS_MIN[cls], 7)]
        factors += [("btm", n, TreeShape("star", n)) for n in range(3, 7)]
        own = {(cls, n, shape): lambda_2(class_digraph(cls, n, tree=shape)).value for cls, n, shape in factors}
        for (a, n, shape_a), value_a in own.items():
            for (b, m, shape_b), value_b in own.items():
                assert class_table_value(a, b, n, m) == value_a + value_b, (a, n, shape_a, b, m, shape_b)

    def test_tree_entry_ignores_shape(self):
        for shape in [TreeShape("path", 4), TreeShape("star", 4), TreeShape("random", 4, seed=5)]:
            p = cartesian_product(class_digraph("btm", 4, tree=shape), directed_cycle(3))
            assert lambda_2(p.digraph).value == class_table_value("btm", "cn", 4, 3)

    def test_class_digraph_shapes(self):
        assert class_digraph("cn", 4).arcs == directed_cycle(4).arcs
        assert class_digraph("bkm", 3).arcs == complete_digraph(3).arcs
        with pytest.raises(DigraphError):
            class_digraph("btm", 4, tree=TreeShape("path", 5))

    @pytest.mark.parametrize(
        "cls,order,message", [("xyz", 3, "unknown class 'xyz'"), ("cn", 2, "class 'cn' needs order >= 3, got 2")]
    )
    def test_class_digraph_rejects_bad_class_or_order(self, cls, order, message):
        with pytest.raises(DigraphError, match=message):
            class_digraph(cls, order)


def assert_family(p, fam, expected_size, origins=("construction",)):
    assert len(fam.members) == expected_size
    assert fam.origin in origins
    assert verify_certificate(p.digraph, fam).valid


class TestClosedFormFamilies:
    def test_cycle_cycle_figure_instance(self):
        p, fam = cycle_cycle_family(4, 4, (0, 0), (1, 1))
        assert_family(p, fam, 2)
        e = p.encode
        first = {
            (e(0, 0), e(0, 1)), (e(0, 1), e(1, 1)), (e(1, 1), e(1, 2)), (e(1, 2), e(1, 3)),
            (e(1, 3), e(2, 3)), (e(2, 3), e(3, 3)), (e(3, 3), e(0, 3)), (e(0, 3), e(0, 0)),
        }
        second = {
            (e(0, 0), e(1, 0)), (e(1, 0), e(1, 1)), (e(1, 1), e(2, 1)), (e(2, 1), e(2, 2)),
            (e(2, 2), e(2, 3)), (e(2, 3), e(2, 0)), (e(2, 0), e(3, 0)), (e(3, 0), e(0, 0)),
        }
        assert set(fam.members[0]) == first
        assert set(fam.members[1]) == second

    @pytest.mark.parametrize(
        "build,col",
        [
            (lambda y: cycle_cycle_family(4, 5, (0, 0), y), "cn"),
            (lambda y: cycle_bicycle_family(4, 5, (0, 0), y), "bcm"),
            (lambda y: cycle_tree_family(4, TreeShape("path", 5), (0, 0), y), "btm"),
            (lambda y: cycle_complete_family(4, 5, (0, 0), y), "bkm"),
        ],
    )
    def test_aligned_seeds_search_from_the_proven_floor(self, monkeypatch, build, col):
        # the family size is λ₂(G) + λ₂(H), which seeds on one line are proven to reach;
        # here it is also the seed degree, so the fallback search runs no seed flow
        seed_flows = []
        unit_flow = packing._unit_flow

        def logged_flow(d, s, t, need, *excluded):
            if not excluded:  # a seed flow; the packer's own flows exclude used arcs
                seed_flows.append((s, t))
            return unit_flow(d, s, t, need, *excluded)

        monkeypatch.setattr(packing, "_unit_flow", logged_flow)
        for y in [(0, 2), (2, 0)]:
            p, fam = build(y)
            assert_family(p, fam, class_table_value("cn", col, 4, 5), origins=("solver",))
        assert seed_flows == []

    @pytest.mark.parametrize("n,m", [(3, 3), (3, 5), (4, 4), (5, 3)])
    def test_cycle_cycle_general_positions(self, n, m):
        for r2 in range(1, n):
            for c2 in range(1, m):
                p, fam = cycle_cycle_family(n, m, (0, 0), (r2, c2))
                assert_family(p, fam, 2)

    def test_cycle_cycle_aligned_seeds_fall_back_to_search(self):
        p, fam = cycle_cycle_family(4, 4, (0, 0), (0, 2))
        assert_family(p, fam, 2, origins=("solver",))
        p, fam = cycle_cycle_family(4, 4, (0, 0), (2, 0))
        assert_family(p, fam, 2, origins=("solver",))

    @pytest.mark.parametrize("n,m", [(3, 3), (3, 4), (4, 5), (5, 3)])
    def test_cycle_bicycle_general_positions(self, n, m):
        for r2 in range(1, n):
            for c2 in range(1, m):
                p, fam = cycle_bicycle_family(n, m, (0, 0), (r2, c2))
                assert_family(p, fam, 3)

    @pytest.mark.parametrize(
        "shape",
        [TreeShape("path", 4), TreeShape("star", 4), TreeShape("random", 5, seed=3)],
    )
    def test_cycle_tree_general_positions(self, shape):
        n = 4
        for r2 in range(1, n):
            for c2 in range(1, shape.order):
                p, fam = cycle_tree_family(n, shape, (0, 0), (r2, c2))
                assert_family(p, fam, 2)

    @pytest.mark.parametrize("n,m", [(3, 2), (3, 3), (4, 4), (5, 3)])
    def test_cycle_complete_general_positions(self, n, m):
        for r2 in range(1, n):
            for c2 in range(1, m):
                p, fam = cycle_complete_family(n, m, (0, 0), (r2, c2))
                assert_family(p, fam, m)

    def test_family_sizes_are_the_packing_numbers(self):
        cases = [
            (cycle_cycle_family(3, 4, (0, 0), (1, 1)), 2),
            (cycle_bicycle_family(3, 4, (0, 0), (1, 1)), 3),
            (cycle_complete_family(3, 4, (0, 0), (1, 1)), 4),
        ]
        for (p, fam), size in cases:
            assert len(fam.members) == size
            assert lambda_2(p.digraph).value == size

    def test_rejects_identical_seeds(self):
        with pytest.raises(DigraphError):
            cycle_cycle_family(3, 3, (1, 1), (1, 1))

    def test_rejects_undersized_factors(self):
        with pytest.raises(DigraphError):
            cycle_cycle_family(2, 3, (0, 0), (1, 1))
        with pytest.raises(DigraphError):
            cycle_complete_family(3, 1, (0, 0), (1, 0))

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: cycle_bicycle_family(3, 2, (0, 0), (1, 1)), "cycle factors need order >= 3, got 3 and 2$"),
            (lambda: cycle_tree_family(2, TreeShape("path", 3), (0, 0), (1, 1)), "cycle factor needs order >= 3, got 2$"),
            (lambda: cycle_complete_family(2, 3, (0, 0), (1, 1)), "cycle factor needs order >= 3, got 2$"),
            (lambda: cycle_complete_family(3, 1, (0, 0), (1, 0)), "complete factor needs order >= 2, got 1$"),
        ],
    )
    def test_undersized_factor_messages(self, build, message):
        with pytest.raises(DigraphError, match=message):
            build()

    @pytest.mark.parametrize("n,m", [(1, 4), (4, 1)])
    def test_cycle_cycle_checks_orders_before_building(self, n, m):
        # an order-1 cycle cannot even be built, so the family's own message must come first
        with pytest.raises(DigraphError, match=f"cycle factors need order >= 3, got {n} and {m}$"):
            cycle_cycle_family(n, m, (0, 0), (0, 1))


class TestLift:
    def check(self, g, h, x_pos, y_pos, expected_size):
        p, fam = lift_certificates(g, h, x_pos, y_pos)
        assert fam.origin == "lift"
        assert verify_certificate(p.digraph, fam).valid
        lower = lambda_2(g).value + lambda_2(h).value - 1
        assert len(fam.members) >= lower
        assert len(fam.members) == expected_size
        return fam

    def test_same_row_gets_full_size(self):
        self.check(directed_cycle(3), directed_cycle(3), (0, 0), (0, 1), 2)

    @pytest.mark.parametrize("route", ["_lift_same_line", "_lift_general"])
    def test_one_member_short_of_the_trusted_count_raises(self, monkeypatch, route):
        # a family one short of λ₂(G) + λ₂(H) still verifies and still meets the paper's lower bound;
        # the product sweep trusts the full count at these layouts, so the lift must refuse it
        build = getattr(constructions, route)
        monkeypatch.setattr(constructions, route, lambda *args: build(*args)[1:])
        y_pos = (0, 1) if route == "_lift_same_line" else (1, 1)
        with pytest.raises(ConstructionError, match="built 1 members, expected 2"):
            lift_certificates(directed_cycle(3), directed_cycle(3), (0, 0), y_pos)

    def test_factor_family_short_of_need_raises(self):
        d = directed_cycle(3)
        with pytest.raises(ConstructionError, match="gave 1 members, expected >= 2"):
            constructions._factor_family(d, packing._ArcTables(d), (0, 1), 2)

    @pytest.mark.parametrize(
        "members, message",
        [
            ((frozenset({(1, 2), (2, 1)}),), "member has no arc leaving vertex 0"),
            ((frozenset({(0, 1), (1, 0)}),) * 2, r"branch vertices at 0 are not distinct: \[1, 1\]"),
        ],
        ids=["no-out-arc", "shared-branch"],
    )
    def test_bad_branch_members_raise(self, members, message):
        with pytest.raises(ConstructionError, match=message):
            constructions._choose_branches(members, 0, avoid=None)

    def test_same_column_gets_full_size(self):
        self.check(directed_cycle(3), directed_cycle(3), (0, 0), (1, 0), 2)

    def test_general_position_both_factors_forced(self):
        # both directed triangles must branch through the opposite seed line;
        # the swap repair still yields the full two members
        self.check(directed_cycle(3), directed_cycle(3), (0, 0), (1, 1), 2)

    def test_one_factor_forced_drops_one_member(self):
        # the triangle is forced and the bidirected square has no spare member
        self.check(directed_cycle(3), bidirected_cycle(4), (0, 0), (1, 2), 2)

    def test_second_factor_forced_drops_one_member(self):
        # the mirror of the case above: the triangle is now the second factor
        self.check(bidirected_cycle(4), directed_cycle(3), (0, 0), (2, 1), 2)

    def test_one_factor_forced_with_spare_member(self):
        # K23 packs 3 members for the pair (0, 3) although its minimum is 2,
        # so a spare member absorbs the collision and the size stays full
        self.check(directed_cycle(3), K23, (0, 0), (1, 3), 3)
        self.check(K23, directed_cycle(3), (0, 0), (3, 1), 3)

    def test_unforced_general_position(self):
        self.check(complete_digraph(3), complete_digraph(3), (0, 0), (1, 1), 4)

    def test_exhaustive_seed_sweep_on_cycle_square(self):
        g = h = directed_cycle(3)
        p = cartesian_product(g, h)
        sizes = []
        for x in range(p.digraph.n):
            for y in range(x + 1, p.digraph.n):
                _, fam = lift_certificates(g, h, p.decode(x), p.decode(y))
                assert verify_certificate(p.digraph, fam).valid
                sizes.append(len(fam.members))
        assert min(sizes) >= 1  # lower bound for two directed cycles
        assert sorted(set(sizes)) == [1, 2]

    @pytest.mark.parametrize("seed", range(8))
    def test_random_factors(self, seed):
        rng = random.Random(seed)
        g = random_strong_digraph(rng.randint(2, 4), 0.3, rng.getrandbits(32))
        h = random_strong_digraph(rng.randint(2, 4), 0.3, rng.getrandbits(32))
        p = cartesian_product(g, h)
        pairs = [(x, y) for x in range(p.digraph.n) for y in range(x + 1, p.digraph.n)]
        for x, y in rng.sample(pairs, min(6, len(pairs))):
            _, fam = lift_certificates(g, h, p.decode(x), p.decode(y))
            assert verify_certificate(p.digraph, fam).valid
            assert len(fam.members) >= lambda_2(g).value + lambda_2(h).value - 1

    @pytest.mark.parametrize("seed", range(4))
    def test_swapping_factors_mirrors_the_family(self, seed):
        # both factors' roles go through one routine per layout, so lifting
        # H x G at the transposed seeds gives the transposed members
        rng = random.Random(seed)
        g = random_strong_digraph(rng.randint(2, 4), rng.random() * 0.6, rng.getrandbits(32))
        h = random_strong_digraph(rng.randint(2, 4), rng.random() * 0.6, rng.getrandbits(32))
        p = cartesian_product(g, h)
        for x in range(p.digraph.n):
            for y in range(x + 1, p.digraph.n):
                x_pos, y_pos = p.decode(x), p.decode(y)
                _, fam = lift_certificates(g, h, x_pos, y_pos)
                q, swapped = lift_certificates(h, g, x_pos[::-1], y_pos[::-1])
                back = {v: p.encode(*q.decode(v)[::-1]) for v in range(q.digraph.n)}
                expected = sorted(sorted(member) for member in fam.members)
                got = sorted(sorted((back[u], back[v]) for u, v in member) for member in swapped.members)
                assert got == expected

    def test_rejects_non_strong_factor(self):
        with pytest.raises(DigraphError):
            lift_certificates(from_arc_list(3, [(0, 1), (1, 2)]), directed_cycle(3), (0, 0), (1, 1))


# The four lifted products of the certify benchmark and the lifted product of
# the CLI goldens, as (class, order, tree shape) per factor.
LIFT_DIGEST_PRODUCTS = (
    (("cn", 5, None), ("btm", 6, "star")),
    (("bkm", 3, None), ("bcm", 6, None)),
    (("bcm", 4, None), ("bkm", 4, None)),
    (("cn", 4, None), ("cn", 6, None)),
    (("cn", 3, None), ("bcm", 4, None)),
)


def _class_token(cls, order, shape):
    return f"{cls}:{shape}:{order}" if shape else f"{cls}:{order}"


def _lift_digest_factor_pairs():
    for (cg, n, sg), (ch, m, sh) in LIFT_DIGEST_PRODUCTS:
        g = class_digraph(cg, n, TreeShape(sg, n) if sg else None)
        h = class_digraph(ch, m, TreeShape(sh, m) if sh else None)
        yield f"{_class_token(cg, n, sg)} x {_class_token(ch, m, sh)}", g, h
    rng = random.Random(1)
    for k in range(21):
        g = random_strong_digraph(rng.randint(2, 4), rng.random() * 0.6, rng.getrandbits(32))
        h = random_strong_digraph(rng.randint(2, 4), rng.random() * 0.6, rng.getrandbits(32))
        yield f"rand#{k}", g, h


def lift_digest_lines():
    """One line per lifted family: label, seed positions, sha256 prefix of its JSON."""
    lines = []
    for label, g, h in _lift_digest_factor_pairs():
        p = cartesian_product(g, h)
        for x in range(p.digraph.n):
            for y in range(x + 1, p.digraph.n):
                (r1, c1), (r2, c2) = p.decode(x), p.decode(y)
                _, fam = lift_certificates(g, h, (r1, c1), (r2, c2))
                digest = hashlib.sha256(certificate_to_json(fam).encode()).hexdigest()[:16]
                lines.append(f"{label} {r1},{c1}:{r2},{c2} {digest}")
    return lines


class TestLiftDigests:
    """Every lifted family, byte for byte, against digests recorded before lifting
    was folded into one routine per seed layout.  The random factor pairs reach
    every layout: same row, same column, no member forced, both forced, and one
    side forced with and without a spare member.  To re-record after a deliberate
    change to the families: write ``"\\n".join(lift_digest_lines()) + "\\n"`` to
    ``tests/golden/lift_digests.txt``."""

    def test_lifted_families_match_recorded_digests(self):
        recorded = (GOLDEN / "lift_digests.txt").read_text(encoding="utf-8").splitlines()
        assert lift_digest_lines() == recorded


def _closed_form_digest_families():
    for n, m in ((3, 3), (4, 3), (4, 4), (4, 5), (5, 4), (5, 5)):
        yield f"p51 cn:{n} x cn:{m}", partial(cycle_cycle_family, n, m), n, m
    for n, m in ((3, 3), (3, 4), (3, 6), (4, 5), (5, 3)):
        yield f"p52 cn:{n} x bcm:{m}", partial(cycle_bicycle_family, n, m), n, m
    for n, m in ((3, 2), (3, 4), (4, 3), (4, 4)):
        yield f"p54 cn:{n} x bkm:{m}", partial(cycle_complete_family, n, m), n, m
    for kind in TREE_KINDS:
        shape = TreeShape(kind, 5, seed=3 if kind == "random" else None)
        yield f"p53 cn:3 x btm:{kind}:5", partial(cycle_tree_family, 3, shape), 3, 5


def closed_form_digest_lines():
    """One line per closed-form family at an ordered seed pair in general position:
    label, seed positions, sha256 prefix of its JSON."""
    lines = []
    for label, build, n, m in _closed_form_digest_families():
        positions = [(r, c) for r in range(n) for c in range(m)]
        for r1, c1 in positions:
            for r2, c2 in positions:
                if r1 != r2 and c1 != c2:
                    _, fam = build((r1, c1), (r2, c2))
                    digest = hashlib.sha256(certificate_to_json(fam).encode()).hexdigest()[:16]
                    lines.append(f"{label} {r1},{c1}:{r2},{c2} {digest}")
    return lines


class TestClosedFormDigests:
    """Every closed-form family at every ordered seed pair in general position on
    small factors, byte for byte, against digests recorded before the families
    were built from shared member routines.  The grid holds the diagonally
    adjacent layouts of ``p51`` with ``n >= 4``, both donor sides of ``p52`` and
    all four tree kinds of ``p53``.  To re-record after a deliberate change to
    the families: write ``"\\n".join(closed_form_digest_lines()) + "\\n"`` to
    ``tests/golden/closed_form_digests.txt``."""

    def test_closed_form_families_match_recorded_digests(self):
        recorded = (GOLDEN / "closed_form_digests.txt").read_text(encoding="utf-8").splitlines()
        assert closed_form_digest_lines() == recorded


class TestHunt:
    def test_deterministic(self):
        assert hunt_tightness(12, 3, 0.25, 5) == hunt_tightness(12, 3, 0.25, 5)

    @pytest.mark.parametrize("prob", [1.5, -0.1])
    def test_extra_arc_prob_checked_before_any_trial(self, prob):
        with pytest.raises(DigraphError, match=f"got {prob}$"):
            hunt_tightness(20, 4, prob, 0)

    def test_zero_trials(self):
        report = hunt_tightness(0, 4, 0.25, 0)
        assert report.trials == 0 and report.sandwich_ok
        assert report.gap_counts == () and report.hits == ()

    def test_sandwich_holds_and_gaps_tally(self):
        report = hunt_tightness(15, 3, 0.25, 1)
        assert report.sandwich_ok
        assert sum(count for _, count in report.gap_counts) == 15
        assert all(gap >= 0 for gap, _ in report.gap_counts)
        for hit in report.hits:
            assert hit.bounds.observed == hit.bounds.lower

    def test_tally_and_hits_come_from_check_bounds(self, monkeypatch):
        # random small products never meet the lower bound, so every third report is made to
        reports = []

        def recording(g, h):
            r = check_bounds(g, h)
            if len(reports) % 3 == 0:
                r = r._replace(lower=r.observed)
            reports.append((g, h, r))
            return r

        monkeypatch.setattr(constructions, "check_bounds", recording)
        report = hunt_tightness(15, 3, 0.25, 1)
        gaps = [r.observed - r.lower for _, _, r in reports]
        assert report.gap_counts == tuple(sorted((gap, gaps.count(gap)) for gap in set(gaps)))
        assert report.sandwich_ok == all(r.sandwich_ok for _, _, r in reports)
        expected = [
            HuntHit(trial, g, h, r)
            for trial, (g, h, r) in enumerate(reports)
            if r.observed == r.lower
        ]
        assert len(expected) == 5 and list(report.hits) == expected
