"""Core digraph type: construction, strongness, serialization, DOT, automorphism search."""

import pytest
from hypothesis import given, settings, strategies as st

from strongarc import digraph as digraph_module
from strongarc.digraph import (
    Digraph,
    DigraphError,
    _automorphism_generators,
    _strong_on_endpoints,
    biorient,
    degrees,
    dumps_digraph,
    from_arc_list,
    is_strong,
    is_symmetric,
    loads_digraph,
    read_digraph,
    to_dot,
)

from oracles import strong_by_closure


def small_digraphs(max_n: int = 6):
    """Hypothesis strategy for arbitrary simple digraphs."""

    def build(n: int, picks: list[int]) -> Digraph:
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        return from_arc_list(n, [pairs[i % len(pairs)] for i in picks] if pairs else [])

    return st.integers(2, max_n).flatmap(
        lambda n: st.builds(build, st.just(n), st.lists(st.integers(0, 100), max_size=20))
    )


class TestConstruction:
    def test_rejects_loop(self):
        with pytest.raises(DigraphError):
            from_arc_list(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(DigraphError):
            from_arc_list(2, [(0, 2)])

    def test_rejects_empty_order(self):
        with pytest.raises(DigraphError):
            from_arc_list(0, [])

    def test_deduplicates(self):
        d = from_arc_list(3, [(0, 1), (0, 1), (1, 2)])
        assert len(d.arcs) == 2

    def test_adjacency_sorted(self):
        d = from_arc_list(4, [(0, 3), (0, 1), (0, 2)])
        assert d.out_adj[0] == (1, 2, 3)
        assert d.in_adj[3] == (0,)
        assert d.sorted_arcs == ((0, 1), (0, 2), (0, 3))

    @given(small_digraphs(8))
    @settings(max_examples=200)
    def test_rows_and_flow_network_match_per_row_sorted_definitions(self, d):
        # the definitions the one-pass rows replace: each row collected from the
        # arc set in any order, then sorted; edge 2i is sorted arc i, 2i + 1 its reverse
        arcs = sorted(d.arcs)
        assert d.out_adj == tuple(tuple(sorted(v for u, v in d.arcs if u == w)) for w in range(d.n))
        assert d.in_adj == tuple(tuple(sorted(u for u, v in d.arcs if v == w)) for w in range(d.n))
        head = tuple(w for u, v in arcs for w in (v, u))
        edges = tuple(
            tuple(sorted([2 * i + end for i, a in enumerate(arcs) for end in (0, 1) if a[end] == w]))
            for w in range(d.n)
        )
        assert d.flow_network == (head, edges)
        counts = [sum(1 for a in d.arcs if a[end] == w) for end in (0, 1) for w in range(d.n)]
        assert degrees(d) == (min(counts[: d.n]), min(counts[d.n :]))

    def test_degrees(self):
        d = from_arc_list(3, [(0, 1), (1, 2), (2, 0), (0, 2)])
        assert d.out_degree(0) == 2 and d.in_degree(0) == 1
        assert degrees(d) == (1, 1)

    def test_equal_and_hashed_by_value(self):
        arcs = [(0, 1), (1, 2), (2, 0)]
        a, b = from_arc_list(3, arcs), Digraph(3, frozenset(arcs))
        assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != from_arc_list(4, arcs) and a != from_arc_list(3, arcs[:2])
        assert a != (3, frozenset(arcs)) and (3, frozenset(arcs)) != a

    def test_fields_are_read_only(self):
        d = from_arc_list(3, [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(AttributeError):
            d.n = 4
        with pytest.raises(AttributeError):
            d.out_adj = ()
        with pytest.raises(AttributeError):
            del d.arcs
        assert d.n == 3 and len(d.arcs) == 3

    def test_views_are_cached(self):
        d = from_arc_list(3, [(0, 1), (1, 2), (2, 0)])
        assert d.out_adj is d.out_adj and d.flow_network is d.flow_network


class TestStrongness:
    def test_cycle_is_strong(self):
        assert is_strong(from_arc_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))

    def test_path_is_not_strong(self):
        assert not is_strong(from_arc_list(3, [(0, 1), (1, 2)]))

    def test_single_vertex_is_strong(self):
        assert is_strong(Digraph(1, frozenset()))

    def test_disconnected_not_strong(self):
        assert not is_strong(from_arc_list(4, [(0, 1), (1, 0), (2, 3), (3, 2)]))


class TestBiorient:
    def test_doubles_each_edge(self):
        d = biorient(3, [(0, 1), (1, 2)])
        assert d.arcs == frozenset({(0, 1), (1, 0), (1, 2), (2, 1)})

    def test_rejects_repeated_edge(self):
        with pytest.raises(DigraphError):
            biorient(3, [(0, 1), (1, 0)])

    def test_rejects_loop_edge(self):
        with pytest.raises(DigraphError):
            biorient(3, [(2, 2)])


class TestSymmetry:
    def test_biorientation_is_symmetric(self):
        assert is_symmetric(biorient(5, [(0, 1), (1, 2), (3, 4)]))
        assert is_symmetric(Digraph(3, frozenset()))

    def test_one_way_arc_breaks_symmetry(self):
        assert not is_symmetric(from_arc_list(3, [(0, 1), (1, 0), (1, 2)]))

    @given(small_digraphs())
    def test_symmetric_iff_equal_to_reverse(self, d):
        assert is_symmetric(d) == (frozenset((v, u) for u, v in d.arcs) == d.arcs)


def _strong_after_remap(arcs):
    """Strongness by the definition: relabel the endpoints 0..k-1, then ``is_strong``."""
    remap = {old: new for new, old in enumerate(sorted({w for arc in arcs for w in arc}))}
    return is_strong(Digraph(len(remap), frozenset((remap[u], remap[v]) for u, v in arcs)))


@st.composite
def labelled_arc_sets(draw):
    """Non-empty arc sets on a few labels from 0..70, so vertex masks can pass 64 bits."""
    labels = draw(st.lists(st.integers(0, 70), min_size=2, max_size=8, unique=True))
    arc = st.tuples(st.sampled_from(labels), st.sampled_from(labels)).filter(lambda a: a[0] != a[1])
    arcs = draw(st.lists(arc, min_size=1, max_size=16))
    if draw(st.booleans()):  # a cycle through every label, so strong sets come up often
        arcs += zip(labels, labels[1:] + labels[:1])
    return frozenset(arcs)


class TestStrongOnEndpoints:
    def test_labels_past_64_bits(self):
        assert _strong_on_endpoints({(3, 70), (70, 3)})[0]
        assert _strong_on_endpoints({(64, 65), (65, 69), (69, 64), (69, 65)})[0]
        assert not _strong_on_endpoints({(3, 70), (70, 65)})[0]
        assert not _strong_on_endpoints({(0, 1), (1, 0), (66, 67), (67, 66)})[0]

    def test_reaching_every_endpoint_one_way_is_not_enough(self):
        # every endpoint is a tail and a head and 0 reaches all of them, but 1 and 2
        # never reach 0; then the reverse, where 0 is reached from all but reaches few
        assert not _strong_on_endpoints({(0, 1), (1, 2), (2, 1), (3, 0), (0, 3)})[0]
        assert not _strong_on_endpoints({(1, 0), (2, 1), (1, 2), (0, 3), (3, 0)})[0]

    @given(labelled_arc_sets())
    @settings(max_examples=300)
    def test_equals_remapped_is_strong(self, arcs):
        strong, ends = _strong_on_endpoints(arcs)
        assert strong == _strong_after_remap(arcs) == strong_by_closure(arcs)
        assert set(ends) == set().union(*arcs)


class TestSerialization:
    def test_round_trip_plain(self):
        d = from_arc_list(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        assert loads_digraph(dumps_digraph(d)) == d

    def test_old_product_header_loads_as_comment(self):
        d = from_arc_list(6, [(0, 3), (3, 0), (1, 4), (4, 1)])
        assert loads_digraph("# product n=2 m=3\n" + dumps_digraph(d)) == d

    def test_file_round_trip(self, tmp_path):
        d = from_arc_list(3, [(0, 1), (1, 2), (2, 0)])
        path = tmp_path / "triangle.dg"
        path.write_text(dumps_digraph(d))
        assert read_digraph(str(path)) == d

    def test_malformed_text(self):
        with pytest.raises(DigraphError):
            loads_digraph("n 3\n0 1 junk extra\n")
        with pytest.raises(DigraphError):
            loads_digraph("0 1\n")  # missing order line
        with pytest.raises(DigraphError, match="missing 'n <order>' line"):
            loads_digraph("# a comment and a blank line only\n\n")

    @given(small_digraphs())
    def test_round_trip_property(self, d):
        assert loads_digraph(dumps_digraph(d)) == d


class TestDot:
    def test_plain_dot_lists_all_arcs(self):
        d = from_arc_list(3, [(0, 1), (1, 2), (2, 0)])
        text = to_dot(d)
        assert text.startswith("digraph") and text.count("->") == 3

    def test_member_arcs_colored_distinctly(self):
        d = biorient(3, [(0, 1), (1, 2), (0, 2)])
        text = to_dot(d, member_arcs=[{(0, 1), (1, 0)}, {(0, 2), (2, 0)}])
        colored = [line for line in text.splitlines() if "color=" in line]
        assert len(colored) == 4
        assert len({line.split("color=")[1] for line in colored}) == 2


class TestAutomorphismSearch:
    # two directed 3-cycles and a directed 6-cycle: every vertex has one out- and one in-neighbour,
    # so refinement alone splits nothing, and a leaf search that maps a 3-cycle vertex into the
    # 6-cycle reaches a colouring whose signature differs from the first path's
    CYCLES = from_arc_list(
        12, [(b + i, b + (i + 1) % 3) for b in (0, 3) for i in range(3)] + [(6 + i, 6 + (i + 1) % 6) for i in range(6)]
    )

    def test_signature_mismatch_prunes_the_leaf_search(self, monkeypatch):
        calls = []
        refine = digraph_module._refine
        monkeypatch.setattr(digraph_module, "_refine", lambda d, colour: calls.append(1) or refine(d, colour))
        generators = _automorphism_generators(self.CYCLES)
        assert generators and len(calls) == 25  # 187 without the prune
        for p in generators:
            assert frozenset((p[u], p[v]) for u, v in self.CYCLES.arcs) == self.CYCLES.arcs

    def test_pruned_search_merges_every_orbit_within_a_small_budget(self, monkeypatch):
        monkeypatch.setattr(digraph_module, "_AUTOMORPHISM_NODE_BUDGET", 20)
        d = Digraph(self.CYCLES.n, self.CYCLES.arcs)  # no orbit table cached under the full budget
        orbits = d.pair_orbits
        cells = {}
        for v in range(d.n):
            cells.setdefault(orbits[v * d.n + v], []).append(v)
        # without the prune the budget runs out first and leaves 5 vertex orbits
        assert sorted(cells.values()) == [list(range(6)), list(range(6, 12))]
