"""Command-line front end: connectivity values, checkers, certificate builders.

Digraph operands are class tokens (``cn:5``, ``bcm:4``, ``btm:path:4``,
``btm:random:5:11``, ``bkm:3``, ``rand:4:0.3:7``, ``file:graph.dg``) or a
product expression ``A x B``.  Exit codes: 0 success, 1 a checked property
failed, 2 usage or parse error.  Every randomized command takes an explicit
seed, so all output is reproducible.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from .constructions import (
    CLASS_TOKENS,
    ConstructionError,
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
    HuntConfig,
    _validate_trials,
    hunt_tightness,
    lift_certificates,
)
from .digraph import (
    Digraph,
    DigraphError,
    biorient,
    dumps_digraph,
    from_arc_list,
    read_digraph,
    to_dot,
)
from .flow import arc_connectivity, verify_cut
from .generators import (
    TreeShape,
    bidirected_cycle,
    bidirected_tree,
    complete_digraph,
    directed_cycle,
    random_connected_graph,
    random_strong_digraph,
)
from .packing import certificate_from_json, certificate_to_json, lambda_2
from .product import cartesian_product


class UsageError(ValueError):
    """Bad operand or flag combination; maps to exit code 2."""


# ---------------------------------------------------------------------------
# Operand parsing
# ---------------------------------------------------------------------------


def parse_class_spec(token: str) -> Digraph:
    """Instantiate a digraph from one class token."""
    head, _, rest = token.partition(":")
    try:
        if head == "cn":
            return directed_cycle(int(rest))
        if head == "bcm":
            return bidirected_cycle(int(rest))
        if head == "bkm":
            return complete_digraph(int(rest))
        if head == "btm":
            fields = rest.split(":")
            if len(fields) == 2:
                shape = TreeShape(fields[0], int(fields[1]))
            elif len(fields) == 3 and fields[0] == "random":
                shape = TreeShape("random", int(fields[1]), int(fields[2]))
            else:
                raise UsageError(f"bad tree token {token!r}, expected btm:<shape>:<m>")
            return bidirected_tree(shape)
        if head == "rand":
            fields = rest.split(":")
            if len(fields) != 3:
                raise UsageError(f"bad random token {token!r}, expected rand:<n>:<p>:<seed>")
            return random_strong_digraph(int(fields[0]), float(fields[1]), int(fields[2]))
        if head == "file":
            if not rest:
                raise UsageError(f"bad file token {token!r}, expected file:<path>")
            return read_digraph(rest)[0]
    except (ValueError, OSError, DigraphError) as exc:
        raise UsageError(f"cannot parse operand {token!r}: {exc}") from exc
    raise UsageError(f"unknown class token {token!r}")


def parse_operand(tokens: list[str]) -> tuple[Digraph, tuple[int, int] | None]:
    """One class token, or ``A x B`` for a Cartesian product.

    Returns the digraph together with the product dimensions when the operand
    is a product expression.
    """
    if not tokens:
        raise UsageError("missing digraph operand")
    if "x" in tokens:
        split = tokens.index("x")
        left, right = tokens[:split], tokens[split + 1 :]
        if len(left) != 1 or len(right) != 1 or "x" in right:
            raise UsageError(f"bad product expression {' '.join(tokens)!r}, expected 'A x B'")
        prod = cartesian_product(parse_class_spec(left[0]), parse_class_spec(right[0]))
        return prod.digraph, (prod.g_order, prod.h_order)
    if len(tokens) != 1:
        raise UsageError(f"expected one operand or 'A x B', got {tokens!r}")
    return parse_class_spec(tokens[0]), None


def parse_seed_positions(text: str) -> tuple[tuple[int, int], tuple[int, int]]:
    """Parse ``r1,c1:r2,c2`` into two coordinate pairs."""
    try:
        first, second = text.split(":")
        r1, c1 = (int(t) for t in first.split(","))
        r2, c2 = (int(t) for t in second.split(","))
    except ValueError as exc:
        raise UsageError(f"bad seed positions {text!r}, expected 'r1,c1:r2,c2'") from exc
    return (r1, c1), (r2, c2)


def _format_arcs(arcs) -> str:
    return " ".join(f"{u}->{v}" for u, v in sorted(arcs))


def _write_or_print(text: str, path: str | None) -> None:
    if path is None:
        print(text, end="" if text.endswith("\n") else "\n")
    else:
        Path(path).write_text(text, encoding="utf-8")
        print(f"wrote {path}")


# ---------------------------------------------------------------------------
# lambda / lambda2
# ---------------------------------------------------------------------------


def _cmd_lambda(args: argparse.Namespace) -> int:
    d, _ = parse_operand(args.spec)
    report = arc_connectivity(d)
    if len(report.min_cut) != report.value or not verify_cut(d, report.min_cut):
        print(f"error: min cut {_format_arcs(report.min_cut)} does not verify", file=sys.stderr)
        return 1
    if not report.strong:
        print("warning: digraph is not strong")
    print(f"lambda: {report.value}")
    print(f"delta_out: {report.delta_out}")
    print(f"delta_in: {report.delta_in}")
    print(f"min_cut: {_format_arcs(report.min_cut)}")
    return 0


def _cmd_lambda2(args: argparse.Namespace) -> int:
    d, _ = parse_operand(args.spec)
    if args.samples is not None and args.seed is None:
        raise UsageError("--samples needs an explicit --seed")
    result = lambda_2(d, samples=args.samples, seed=args.seed)
    if not result.exact:
        print("mode: sampled pairs, value is an upper bound")
    print(f"lambda2: {result.value}")
    print(f"pair: {result.pair[0]} {result.pair[1]}")
    print(f"members: {len(result.witness.members)}")
    for i, member in enumerate(result.witness.members):
        print(f"member {i}: {_format_arcs(member)}")
    if args.cert_out is not None:
        Path(args.cert_out).write_text(certificate_to_json(result.witness), encoding="utf-8")
        print(f"wrote {args.cert_out}")
    return 0


# ---------------------------------------------------------------------------
# check targets
# ---------------------------------------------------------------------------


def _dump_bundle(**named: Digraph) -> None:
    for name, d in named.items():
        print(f"--- {name} ---")
        print(dumps_digraph(d), end="")


def _random_factor(rng: random.Random, max_order: int) -> Digraph:
    return random_strong_digraph(
        rng.randint(2, max_order), rng.random() * 0.5, rng.getrandbits(32)
    )


def _check_thm31(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    failures = 0
    for trial in range(args.trials):
        g = _random_factor(rng, args.max_order)
        h = _random_factor(rng, args.max_order)
        res = check_product_formula(g, h)
        status = "PASS" if res.holds else "FAIL"
        print(
            f"[{trial}] orders {g.n}x{h.n}: formula={res.formula.value} "
            f"computed={res.computed} cut_ok={res.cut_ok} {status}"
        )
        if not res.holds:
            failures += 1
            _dump_bundle(g=g, h=h)
    print(f"checked {args.trials} products: {failures} failure(s)")
    return 1 if failures else 0


def _check_bounds(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    failures = 0
    for trial in range(args.trials):
        g = _random_factor(rng, args.max_order)
        h = _random_factor(rng, args.max_order)
        rep = check_bounds(g, h)
        status = "PASS" if rep.sandwich_ok else "FAIL"
        print(
            f"[{trial}] orders {g.n}x{h.n}: "
            f"{rep.lower} <= {rep.observed} <= {rep.upper} {status}"
        )
        if not rep.sandwich_ok:
            failures += 1
            _dump_bundle(g=g, h=h)
    print(f"checked {args.trials} products: {failures} failure(s)")
    return 1 if failures else 0


def _table_sides(max_order: int) -> list[tuple[str, str, int, Digraph]]:
    sides: list[tuple[str, str, int, Digraph]] = []
    for order in range(3, max_order + 1):
        sides.append((f"cn:{order}", "cn", order, class_digraph("cn", order)))
    for order in range(3, max_order + 1):
        sides.append((f"bcm:{order}", "bcm", order, class_digraph("bcm", order)))
    for order in range(2, max_order + 1):
        shapes = ["path"] if order == 2 else ["path", "star"]
        for kind in shapes:
            label = f"btm:{kind}:{order}"
            sides.append((label, "btm", order, class_digraph("btm", order, TreeShape(kind, order))))
    for order in range(2, max_order + 1):
        sides.append((f"bkm:{order}", "bkm", order, class_digraph("bkm", order)))
    return sides


def _check_table1(args: argparse.Namespace) -> int:
    if args.max < 3:
        raise UsageError(f"--max must be at least 3, got {args.max}")
    sides = _table_sides(args.max)
    failures = 0
    for label_g, cls_g, n, g in sides:
        for label_h, cls_h, m, h in sides:
            expected = class_table_value(cls_g, cls_h, n, m)
            observed = lambda_2(cartesian_product(g, h).digraph).value
            status = "PASS" if observed == expected else "FAIL"
            print(f"{label_g} x {label_h}: expected={expected} observed={observed} {status}")
            if observed != expected:
                failures += 1
                _dump_bundle(g=g, h=h)
    print(f"checked {len(sides) ** 2} table entries: {failures} failure(s)")
    return 1 if failures else 0


def _check_eq2(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    failures = 0
    for trial in range(args.trials):
        n = rng.randint(2, args.max_order)
        edges = random_connected_graph(n, rng.random() * 0.5, rng.getrandbits(32))
        bg = biorient(n, edges)
        lam = arc_connectivity(bg).value
        l2 = lambda_2(bg).value
        status = "PASS" if lam == l2 else "FAIL"
        print(f"[{trial}] single graph n={n}: lambda={lam} lambda2={l2} {status}")
        if lam != l2:
            failures += 1
            _dump_bundle(graph=bg)
    product_cap = min(args.max_order, 3)
    catalog = {n: all_connected_graphs(n) for n in range(2, product_cap + 1)}
    count = 0
    for n_g, graphs_g in catalog.items():
        for n_h, graphs_h in catalog.items():
            for edges_g in graphs_g:
                for edges_h in graphs_h:
                    res = check_symmetric_identity(n_g, edges_g, n_h, edges_h)
                    count += 1
                    if not res.holds:
                        failures += 1
                        print(
                            f"product n={n_g} edges={edges_g} by n={n_h} edges={edges_h}: "
                            f"undirected={res.undirected_value} directed={res.directed_value} "
                            f"observed={res.observed_lambda2} FAIL"
                        )
    print(f"checked {count} bidirected products: all orders <= {product_cap}")
    print(f"checked {args.trials + count} identities: {failures} failure(s)")
    return 1 if failures else 0


_CHECK_HANDLERS = {
    "thm31": _check_thm31,
    "bounds": _check_bounds,
    "table1": _check_table1,
    "eq2": _check_eq2,
}


def _cmd_check(args: argparse.Namespace) -> int:
    if args.target != "table1":
        _validate_trials(args.trials, args.max_order)
    return _CHECK_HANDLERS[args.target](args)


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


def _cmd_construct(args: argparse.Namespace) -> int:
    x_pos, y_pos = parse_seed_positions(args.positions)
    if args.family == "lift":
        g = parse_class_spec(args.g)
        h = parse_class_spec(args.h)
        prod, fam = lift_certificates(g, h, x_pos, y_pos)
    elif args.family == "p51":
        prod, fam = cycle_cycle_family(args.n, args.m, x_pos, y_pos)
    elif args.family == "p52":
        prod, fam = cycle_bicycle_family(args.n, args.m, x_pos, y_pos)
    elif args.family == "p53":
        shape_seed = getattr(args, "shape_seed", None)
        shape = TreeShape(args.shape, args.m, shape_seed)
        prod, fam = cycle_tree_family(args.n, shape, x_pos, y_pos)
    else:
        prod, fam = cycle_complete_family(args.n, args.m, x_pos, y_pos)
    print(f"product order: {prod.digraph.n} ({prod.g_order} x {prod.h_order})")
    print(f"seed: {fam.seed[0]} {fam.seed[1]}")
    print(f"members: {len(fam.members)}")
    print(f"origin: {fam.origin}")
    payload = certificate_to_json(fam)
    if args.out is not None:
        Path(args.out).write_text(payload, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(payload, end="" if payload.endswith("\n") else "\n")
    return 0


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def _cmd_export(args: argparse.Namespace) -> int:
    if args.dot == args.json:
        raise UsageError("choose exactly one of --dot or --json")
    cert = None
    if args.cert is not None:
        try:
            cert = certificate_from_json(Path(args.cert).read_text(encoding="utf-8"))
        except (OSError, DigraphError) as exc:
            raise UsageError(f"cannot load certificate {args.cert!r}: {exc}") from exc
    dims = None
    if args.spec:
        d, dims = parse_operand(args.spec)
        if cert is not None and cert.n != d.n:
            raise UsageError(
                f"certificate is over {cert.n} vertices but the digraph has {d.n}"
            )
    elif cert is not None:
        arcs = sorted(set().union(*cert.members)) if cert.members else []
        d = from_arc_list(cert.n, arcs)
    else:
        raise UsageError("nothing to export: give a digraph operand or --cert")
    if args.dot:
        text = to_dot(d, member_arcs=cert.members if cert is not None else ())
    else:
        obj: dict = {"n": d.n, "arcs": [list(a) for a in d.sorted_arcs]}
        if dims is not None:
            obj["product"] = list(dims)
        if cert is not None:
            obj["certificate"] = json.loads(certificate_to_json(cert))
        text = json.dumps(obj, indent=2) + "\n"
    _write_or_print(text, args.output)
    return 0


# ---------------------------------------------------------------------------
# hunt
# ---------------------------------------------------------------------------


def _cmd_hunt(args: argparse.Namespace) -> int:
    report = hunt_tightness(
        HuntConfig(
            trials=args.trials, max_order=args.max_order, extra_arc_prob=args.density, seed=args.seed
        )
    )
    print(f"trials: {report.trials}")
    for gap, count in report.gap_counts:
        print(f"gap {gap}: {count}")
    print(f"hits: {len(report.hits)}")
    if args.out is not None and report.hits:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for hit in report.hits:
            stem = out_dir / f"hit{hit.trial:04d}"
            Path(f"{stem}_g.dg").write_text(dumps_digraph(hit.g), encoding="utf-8")
            Path(f"{stem}_h.dg").write_text(dumps_digraph(hit.h), encoding="utf-8")
            Path(f"{stem}_cert.json").write_text(certificate_to_json(hit.witness), encoding="utf-8")
            print(f"wrote {stem}_g.dg {stem}_h.dg {stem}_cert.json")
    if not report.sandwich_ok:
        print("FAIL: a trial escaped the sandwich bounds")
        return 1
    return 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strongarc",
        description="Strong-subgraph packing and connectivity of digraph products.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_lambda = sub.add_parser("lambda", help="arc-strong connectivity with witness cut")
    p_lambda.add_argument("spec", nargs="+", help="class token or 'A x B'")
    p_lambda.set_defaults(handler=_cmd_lambda)

    p_lambda2 = sub.add_parser("lambda2", help="pair strong-subgraph packing number")
    p_lambda2.add_argument("spec", nargs="+", help="class token or 'A x B'")
    p_lambda2.add_argument("--samples", type=int, default=None, help="sample this many seed pairs instead of all")
    p_lambda2.add_argument("--seed", type=int, default=None, help="rng seed for --samples")
    p_lambda2.add_argument("--cert-out", dest="cert_out", default=None, help="write the witness family as JSON")
    p_lambda2.set_defaults(handler=_cmd_lambda2)

    p_check = sub.add_parser("check", help="run a property checker")
    check_sub = p_check.add_subparsers(dest="target", required=True)
    c_thm = check_sub.add_parser("thm31", help="four-term product connectivity formula vs flow")
    c_thm.add_argument("--trials", type=int, default=50)
    c_thm.add_argument("--max-order", dest="max_order", type=int, default=6)
    c_thm.add_argument("--seed", type=int, required=True)
    c_bounds = check_sub.add_parser("bounds", help="sandwich bounds on the product packing number")
    c_bounds.add_argument("--trials", type=int, default=100)
    c_bounds.add_argument("--max-order", dest="max_order", type=int, default=4)
    c_bounds.add_argument("--seed", type=int, required=True)
    c_table = check_sub.add_parser("table1", help="closed-form class table vs search")
    c_table.add_argument("--max", type=int, default=4, help="largest factor order to test")
    c_eq2 = check_sub.add_parser("eq2", help="bidirected packing identity, single graphs and products")
    c_eq2.add_argument("--trials", type=int, default=50)
    c_eq2.add_argument("--max-order", dest="max_order", type=int, default=7)
    c_eq2.add_argument("--seed", type=int, required=True)
    p_check.set_defaults(handler=_cmd_check)

    p_construct = sub.add_parser("construct", help="build a verified certificate family")
    con_sub = p_construct.add_subparsers(dest="family", required=True)
    descriptions = {
        "p51": "directed cycle x directed cycle (2 members)",
        "p52": "directed cycle x bidirected cycle (3 members)",
        "p53": "directed cycle x bidirected tree (2 members)",
        "p54": "directed cycle x bidirected complete (m members)",
    }
    for token, help_text in descriptions.items():
        c_fam = con_sub.add_parser(token, help=help_text)
        c_fam.add_argument("-n", type=int, required=True, help="first factor order")
        c_fam.add_argument("-m", type=int, required=True, help="second factor order")
        c_fam.add_argument("-S", dest="positions", required=True, help="seed positions r1,c1:r2,c2")
        c_fam.add_argument("--out", default=None, help="write certificate JSON here")
        if token == "p53":
            c_fam.add_argument("--shape", default="path", help="tree shape: path, star, caterpillar, random")
            c_fam.add_argument("--shape-seed", dest="shape_seed", type=int, default=None)
    c_lift = con_sub.add_parser("lift", help="lift factor families to any product seed pair")
    c_lift.add_argument("--g", required=True, help="first factor class token")
    c_lift.add_argument("--h", required=True, help="second factor class token")
    c_lift.add_argument("-S", dest="positions", required=True, help="seed positions r1,c1:r2,c2")
    c_lift.add_argument("--out", default=None, help="write certificate JSON here")
    p_construct.set_defaults(handler=_cmd_construct)

    p_export = sub.add_parser("export", help="emit DOT or JSON, optionally overlaying a certificate")
    p_export.add_argument("spec", nargs="*", help="class token or 'A x B'")
    p_export.add_argument("--dot", action="store_true", help="Graphviz output")
    p_export.add_argument("--json", action="store_true", help="JSON output")
    p_export.add_argument("--cert", default=None, help="certificate JSON to overlay")
    p_export.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    p_export.set_defaults(handler=_cmd_export)

    p_hunt = sub.add_parser("hunt", help="random products probing the packing lower bound")
    p_hunt.add_argument("--trials", type=int, default=100)
    p_hunt.add_argument("--max-order", dest="max_order", type=int, default=4)
    p_hunt.add_argument("--seed", type=int, required=True)
    p_hunt.add_argument(
        "--density", type=float, default=HuntConfig.extra_arc_prob,
        help="largest extra-arc probability of the random factors (default %(default)s)",
    )
    p_hunt.add_argument("--out", default=None, help="directory for zero-gap witness files")
    p_hunt.set_defaults(handler=_cmd_hunt)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DigraphError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConstructionError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
