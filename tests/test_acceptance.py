"""Acceptance gate: one test per headline claim, each printing a PASS/FAIL line.

Every test draws its instances deterministically (explicit seeds), checks the
exact integer statements, and reports one line of the form

    ACCEPTANCE <k> <name>: PASS (<elapsed>s, budget <limit>s)

directly to the terminal even under output capture.
"""

import random
import time

from strongarc.constructions import (
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
    lift_certificates,
)
from strongarc.digraph import biorient
from strongarc.flow import arc_connectivity
from strongarc.generators import (
    TreeShape,
    directed_cycle,
    random_connected_graph,
    random_strong_digraph,
)
from strongarc.packing import (
    lambda_2,
    lambda_s_exact,
    verify_certificate,
)
from strongarc.product import cartesian_product

from oracles import lambda_s_oracle_paths, lambda_s_oracle_subsets, random_digraph


def report(capsys, index, name, failures, elapsed, budget):
    status = "PASS" if not failures else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE {index} {name}: {status} ({elapsed:.1f}s, budget {budget}s)")
    assert not failures, f"{len(failures)} failing case(s); first: {failures[0]}"
    assert elapsed < budget, f"took {elapsed:.1f}s, budget {budget}s"


def table_sides(max_order):
    """Every class instance used by the exact-value table, with tree shapes."""
    sides = []
    for n in range(3, max_order + 1):
        sides.append(("cn", n, None))
        sides.append(("bcm", n, None))
    sides.append(("btm", 2, TreeShape("path", 2)))
    for n in range(3, max_order + 1):
        sides.append(("btm", n, TreeShape("path", n)))
        sides.append(("btm", n, TreeShape("star", n)))
    for n in range(2, max_order + 1):
        sides.append(("bkm", n, None))
    return sides


def random_strong_pair(rng, max_order):
    g = random_strong_digraph(rng.randint(2, max_order), rng.random() * 0.5, rng.getrandbits(32))
    h = random_strong_digraph(rng.randint(2, max_order), rng.random() * 0.5, rng.getrandbits(32))
    return g, h


def test_01_class_product_table(capsys):
    """Exhaustive pair-packing value of every class product matches the table."""
    start = time.monotonic()
    failures = []
    sides = table_sides(4)
    for cls_a, n, tree_a in sides:
        for cls_b, m, tree_b in sides:
            expected = class_table_value(cls_a, cls_b, n, m)
            g = class_digraph(cls_a, n, tree=tree_a)
            h = class_digraph(cls_b, m, tree=tree_b)
            observed = lambda_2(cartesian_product(g, h).digraph).value
            if observed != expected:
                failures.append(f"{cls_a}:{n} x {cls_b}:{m} expected {expected} got {observed}")
    assert len(sides) ** 2 == 144
    report(capsys, 1, "class-product exact-value table", failures, time.monotonic() - start, 600)


def test_02_product_connectivity_formula(capsys):
    """Arc connectivity of 50 random products equals the four-term formula."""
    start = time.monotonic()
    failures = []
    for seed in range(1, 51):
        rng = random.Random(seed)
        g, h = random_strong_pair(rng, 6)
        result = check_product_formula(g, h)
        if not result.holds:
            failures.append(
                f"seed {seed}: formula {result.formula.value} computed {result.computed} "
                f"cut_ok {result.cut_ok}"
            )
    report(capsys, 2, "product connectivity formula", failures, time.monotonic() - start, 60)


def test_03_sandwich_bounds(capsys):
    """100 random products stay between the lifting lower bound and the formula."""
    start = time.monotonic()
    failures = []
    for seed in range(1, 101):
        rng = random.Random(1000 + seed)
        g, h = random_strong_pair(rng, 4)
        r = check_bounds(g, h)
        if not r.sandwich_ok:
            failures.append(f"seed {seed}: {r.lower} <= {r.observed} <= {r.upper} fails")
    report(capsys, 3, "sandwich bounds", failures, time.monotonic() - start, 900)


def test_04_closed_form_families(capsys):
    """Closed-form families have the advertised cardinality at all general positions."""
    start = time.monotonic()
    failures = []
    builders = [
        ("cycle x cycle", lambda n, m, x, y: cycle_cycle_family(n, m, x, y), lambda n, m: 2),
        ("cycle x bicycle", lambda n, m, x, y: cycle_bicycle_family(n, m, x, y), lambda n, m: 3),
        (
            "cycle x tree",
            lambda n, m, x, y: cycle_tree_family(n, TreeShape("path", m), x, y),
            lambda n, m: 2,
        ),
        ("cycle x complete", lambda n, m, x, y: cycle_complete_family(n, m, x, y), lambda n, m: m),
    ]
    for n in (3, 4, 5):
        for m in (3, 4, 5):
            for name, build, size in builders:
                for r2 in range(1, n):
                    for c2 in range(1, m):
                        p, fam = build(n, m, (0, 0), (r2, c2))
                        label = f"{name} ({n},{m}) seeds (0,0):({r2},{c2})"
                        if len(fam.members) != size(n, m):
                            failures.append(f"{label}: {len(fam.members)} members")
                        elif not verify_certificate(p.digraph, fam).valid:
                            failures.append(f"{label}: family failed verification")
    report(capsys, 4, "closed-form certificate families", failures, time.monotonic() - start, 60)


def test_05_lifted_families(capsys):
    """Lifted families reach the additive lower bound for random and exhaustive seeds."""
    start = time.monotonic()
    failures = []

    def run(g, h, positions, label):
        lower = lambda_2(g).value + lambda_2(h).value - 1
        for x_pos, y_pos in positions:
            p, fam = lift_certificates(g, h, x_pos, y_pos)
            tag = f"{label} seeds {x_pos}:{y_pos}"
            if len(fam.members) < lower:
                failures.append(f"{tag}: {len(fam.members)} members < lower {lower}")
            elif not verify_certificate(p.digraph, fam).valid:
                failures.append(f"{tag}: family failed verification")

    for trial in range(1, 31):
        rng = random.Random(2000 + trial)
        g, h = random_strong_pair(rng, 4)
        p = cartesian_product(g, h)
        pairs = [(x, y) for x in range(p.digraph.n) for y in range(x + 1, p.digraph.n)]
        sample = rng.sample(pairs, min(12, len(pairs)))
        run(g, h, [(p.decode(x), p.decode(y)) for x, y in sample], f"trial {trial}")

    g = h = directed_cycle(3)
    p = cartesian_product(g, h)
    every = [
        (p.decode(x), p.decode(y)) for x in range(9) for y in range(x + 1, 9)
    ]
    run(g, h, every, "3x3 exhaustive")
    report(capsys, 5, "lifted certificate families", failures, time.monotonic() - start, 300)


def test_06_oracle_equivalence(capsys):
    """Search, path-packing oracle and subset oracle agree on 200 small digraphs."""
    start = time.monotonic()
    failures = []
    for trial in range(1, 201):
        rng = random.Random(3000 + trial)
        n = rng.randint(3, 5)
        d = random_digraph(n, 14, rng.getrandbits(32))
        for _ in range(5):
            x, y = rng.sample(range(n), 2)
            exact = lambda_s_exact(d, (x, y)).value
            paths = lambda_s_oracle_paths(d, (x, y))
            subsets = lambda_s_oracle_subsets(d, (x, y))
            if not exact == paths == subsets:
                failures.append(
                    f"trial {trial} pair ({x},{y}): exact {exact} paths {paths} subsets {subsets}"
                )
    report(capsys, 6, "oracle equivalence", failures, time.monotonic() - start, 300)


def test_07_symmetric_identities(capsys):
    """Biorientation identities: single graphs and all products of order <= 3."""
    start = time.monotonic()
    failures = []
    for trial in range(1, 51):
        rng = random.Random(4000 + trial)
        n = rng.randint(2, 7)
        edges = random_connected_graph(n, rng.random() * 0.4, rng.getrandbits(32))
        b = biorient(n, edges)
        lam = arc_connectivity(b).value
        l2 = lambda_2(b).value
        if l2 != lam:
            failures.append(f"trial {trial}: lambda2 {l2} != lambda {lam} on {n} vertices")

    catalog = [(edges, biorient(n, edges)) for n in (2, 3) for edges in all_connected_graphs(n)]
    reports = [arc_connectivity(b) for _, b in catalog]
    for (edges_g, bg), lambda_g in zip(catalog, reports):
        for (edges_h, bh), lambda_h in zip(catalog, reports):
            check = check_symmetric_identity(bg, bh, lambda_g, lambda_h)
            if not check.holds:
                failures.append(
                    f"factors {edges_g} and {edges_h}: formula {check.formula_value} "
                    f"observed {check.observed_lambda2}"
                )
    assert len(catalog) == 5
    report(capsys, 7, "biorientation identities", failures, time.monotonic() - start, 600)
