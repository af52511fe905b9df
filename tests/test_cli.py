"""Command line interface: operand parsing, subcommands, exit codes, file output."""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import strongarc
from strongarc import cli, constructions, flow, packing
from strongarc.constructions import (
    BoundsReport,
    HuntHit,
    HuntReport,
    class_table_value,
    lift_certificates,
)
from strongarc.digraph import dumps_digraph, from_arc_list, loads_digraph
from strongarc.flow import arc_connectivity
from strongarc.generators import bidirected_cycle, directed_cycle
from strongarc.packing import certificate_from_json

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# two complete digraphs on 0..3 and 4..7, three arcs into 4..7 and the one arc 7 -> 3
# back: the Schnorr cycle's closing link 4 -> 0 lowers lambda from the degree bound 3 to 1
TWO_K4 = from_arc_list(
    8, [(u, v) for b in (range(4), range(4, 8)) for u in b for v in b if u != v] + [(0, 5), (1, 6), (2, 7), (7, 3)]
)


def two_k4_operand(tmp_path) -> str:
    path = tmp_path / "two_k4.dg"
    path.write_text(dumps_digraph(TWO_K4))
    return f"file:{path}"


class TestOperandParsing:
    @pytest.mark.parametrize(
        "token,order,arcs",
        [
            ("cn:5", 5, 5),
            ("bcm:4", 4, 8),
            ("bkm:3", 3, 6),
            ("btm:path:4", 4, 6),
            ("btm:star:4", 4, 6),
            ("btm:random:5:7", 5, 8),
            ("rand:4:0.3:7", 4, None),
        ],
    )
    def test_class_tokens(self, token, order, arcs):
        d = cli.parse_class_spec(token)
        assert d.n == order
        if arcs is not None:
            assert len(d.arcs) == arcs

    def test_file_token(self, tmp_path):
        path = tmp_path / "g.dg"
        path.write_text(dumps_digraph(directed_cycle(4)))
        d = cli.parse_class_spec(f"file:{path}")
        assert d.arcs == directed_cycle(4).arcs

    @pytest.mark.parametrize(
        "token",
        ["cn:1", "bcm:2", "bkm:zzz", "btm:random:4", "rand:4:0.3", "bogus:3", "file:/no/such"],
    )
    def test_bad_tokens_raise_usage_error(self, token):
        with pytest.raises(cli.UsageError):
            cli.parse_class_spec(token)

    @pytest.mark.parametrize(
        "token,message",
        [("btm:path", "bad tree token 'btm:path'"), ("file:", "bad file token 'file:'")],
    )
    def test_bad_token_messages(self, token, message):
        with pytest.raises(cli.UsageError, match=message):
            cli.parse_class_spec(token)

    def test_product_operand(self):
        d, factors = cli.parse_operand(["cn:3", "x", "bcm:3"])
        assert d.n == 9 and factors == (directed_cycle(3), bidirected_cycle(3))

    def test_single_operand(self):
        d, factors = cli.parse_operand(["bkm:3"])
        assert d.n == 3 and factors is None

    @pytest.mark.parametrize("tokens", [[], ["cn:3", "cn:3"], ["cn:3", "x"]])
    def test_malformed_operands(self, tokens):
        with pytest.raises(cli.UsageError):
            cli.parse_operand(tokens)

    def test_seed_positions(self):
        assert cli.parse_seed_positions("0,0:1,2") == ((0, 0), (1, 2))
        with pytest.raises(cli.UsageError):
            cli.parse_seed_positions("0,0")
        with pytest.raises(cli.UsageError):
            cli.parse_seed_positions("0:1")


class TestLambdaCommand:
    def test_directed_cycle(self, capsys):
        code, out, _ = run(capsys, ["lambda", "cn:5"])
        assert code == 0
        assert "lambda: 1" in out and "min_cut: 0->1" in out

    def test_complete(self, capsys):
        code, out, _ = run(capsys, ["lambda", "bkm:4"])
        assert code == 0 and "lambda: 3" in out

    def test_product_operand(self, capsys):
        code, out, _ = run(capsys, ["lambda", "cn:3", "x", "cn:3"])
        assert code == 0 and "lambda: 2" in out

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["lambda", "file:missing.dg"])
        assert code == 2 and "missing.dg" in err

    def test_non_strong_input_warns_and_reports_zero(self, capsys, tmp_path):
        path = tmp_path / "weak.dg"
        path.write_text(dumps_digraph(from_arc_list(3, [(0, 1), (1, 2)])))
        code, out, _ = run(capsys, ["lambda", f"file:{path}"])
        assert code == 0
        assert "warning: digraph is not strong" in out
        assert "lambda: 0" in out

    @pytest.mark.parametrize(
        "cut",
        [frozenset({(7, 3), (0, 1)}), frozenset({(0, 1)}), frozenset({(0, 7)})],
        ids=["wrong-size", "not-a-cut", "foreign-arc"],
    )
    def test_unverified_cut_fails(self, capsys, monkeypatch, tmp_path, cut):
        # the bad cut enters as the cut of the link that lowered lambda, so
        # arc_connectivity's check rejects it before any output
        monkeypatch.setattr(flow, "_cut_from_labels", lambda d, via: cut)
        code, out, err = run(capsys, ["lambda", two_k4_operand(tmp_path)])
        assert code == 1 and out == ""
        assert "does not verify" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "operand,flows,cut", [("bkm:4", 0, "0->1 0->2 0->3"), ("two-k4", 2, "7->3")], ids=["bkm4", "two-k4"]
    )
    def test_prints_witness_from_its_own_flows(self, capsys, monkeypatch, tmp_path, operand, flows, cut):
        if operand == "two-k4":
            operand = two_k4_operand(tmp_path)
        report = flow.arc_connectivity(cli.parse_operand([operand])[0])
        runs = []
        kernel = flow._unit_flow

        def counting_kernel(*args):
            runs.append(args)
            return kernel(*args)

        monkeypatch.setattr(flow, "_unit_flow", counting_kernel)
        code, out, _ = run(capsys, ["lambda", operand])
        assert code == 0
        assert len(runs) == report.local_flows == flows
        assert f"min_cut: {cli._format_arcs(report.min_cut)}\n" in out
        assert f"min_cut: {cut}\n" in out


class TestLambdaTwoCommand:
    @pytest.mark.parametrize(
        "argv,value",
        [
            (["lambda2", "cn:3", "x", "cn:3"], 2),
            (["lambda2", "bkm:3", "x", "bkm:4"], 5),
            (["lambda2", "bcm:4"], 2),
        ],
    )
    def test_known_values(self, capsys, argv, value):
        code, out, _ = run(capsys, argv)
        assert code == 0 and f"lambda2: {value}" in out
        assert "upper bound" not in out

    @pytest.mark.parametrize("spec", [["cn:3", "x", "cn:3"], ["bkm:3", "x", "bkm:3"]], ids=["search", "flow"])
    def test_unverified_witness_fails(self, capsys, monkeypatch, spec):
        real = packing.verify_certificate
        monkeypatch.setattr(
            packing, "verify_certificate", lambda d, fam: real(d, fam)._replace(valid=False)
        )
        code, out, err = run(capsys, ["lambda2", *spec])
        assert code == 1 and out == ""
        assert "does not verify" in err and "Traceback" not in err

    def test_member_lines_listed(self, capsys):
        code, out, _ = run(capsys, ["lambda2", "cn:3", "x", "cn:3"])
        assert code == 0
        assert "members: 2" in out and "member 0:" in out and "member 1:" in out

    def test_sampled_mode_labeled(self, capsys):
        code, out, _ = run(capsys, ["lambda2", "bcm:5", "--samples", "3", "--seed", "7"])
        assert code == 0 and "upper bound" in out

    def test_sample_of_every_pair_is_not_labeled(self, capsys):
        code, out, _ = run(capsys, ["lambda2", "cn:3", "x", "cn:3", "--samples", "99", "--seed", "1"])
        assert code == 0 and "upper bound" not in out
        assert out == run(capsys, ["lambda2", "cn:3", "x", "cn:3"])[1]

    def test_samples_require_seed(self, capsys):
        code, _, err = run(capsys, ["lambda2", "bcm:5", "--samples", "3"])
        assert code == 2 and "seed" in err

    @pytest.mark.parametrize("spec", [["cn:4"], ["cn:3", "x", "cn:3"]])
    def test_seed_requires_samples(self, capsys, spec):
        code, out, err = run(capsys, ["lambda2", *spec, "--seed", "3"])
        assert code == 2 and out == ""
        assert err == "error: --seed needs --samples\n"

    @pytest.mark.parametrize("samples", ["0", "-2"])
    def test_samples_below_one_is_usage_error(self, capsys, samples):
        code, out, err = run(capsys, ["lambda2", "cn:4", "--samples", samples, "--seed", "1"])
        assert code == 2 and out == ""
        assert err == f"error: samples must be at least 1, got {samples}\n"

    def test_cert_out_round_trips(self, capsys, tmp_path):
        path = tmp_path / "wit.json"
        code, out, _ = run(capsys, ["lambda2", "bcm:4", "--cert-out", str(path)])
        assert code == 0 and f"wrote {path}" in out
        cert = certificate_from_json(path.read_text(encoding="utf-8"))
        assert cert.n == 4 and len(cert.members) == 2

    def test_deterministic_sampling(self, capsys):
        argv = ["lambda2", "rand:5:0.4:3", "--samples", "4", "--seed", "11"]
        _, out_a, _ = run(capsys, argv)
        _, out_b, _ = run(capsys, argv)
        assert out_a == out_b

    def test_torus_runs_in_bounded_memory(self):
        """Seeds 0 and 1 of a directed 20 x 20 torus have far more simple paths than fit in 1 GB."""

        def limit_address_space():  # runs in the child only
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        env = dict(os.environ, PYTHONPATH=str(Path(strongarc.__file__).parents[1]))
        child = subprocess.run(
            [sys.executable, "-m", "strongarc", "lambda2", "cn:20", "x", "cn:20"],
            capture_output=True, text=True, timeout=60, env=env, preexec_fn=limit_address_space,
        )
        assert child.returncode == 0, child.stderr
        assert child.stdout.splitlines()[0] == "lambda2: 2" == f"lambda2: {class_table_value('cn', 'cn', 20, 20)}"


def _logged_sweeps(monkeypatch):
    """Record each pair sweep as ("search", lift rule given) or ("flow", False)."""
    calls = []
    search, flow_sweep = packing._search_sweep, packing._flow_sweep

    def logged_search(d, *args, **kwargs):
        calls.append(("search", kwargs.get("product") is not None))
        return search(d, *args, **kwargs)

    def logged_flow(d, tables):
        calls.append(("flow", False))
        return flow_sweep(d, tables)

    monkeypatch.setattr(packing, "_search_sweep", logged_search)
    monkeypatch.setattr(constructions, "_search_sweep", logged_search)
    monkeypatch.setattr(packing, "_flow_sweep", logged_flow)
    return calls


class TestLambdaTwoProductRoute:
    """`lambda2 A x B` skips lift-settled pairs only with two strong factors and no --samples;
    every other operand takes the bare-product route, with the output it printed before."""

    def test_strong_factors_take_the_lift_rule(self, capsys, monkeypatch):
        calls = _logged_sweeps(monkeypatch)
        code, out, _ = run(capsys, "lambda2 rand:6:0.4:3 x rand:4:0.5:7".split())
        assert code == 0 and out == (GOLDEN / "lambda2_rand6_x_rand4.out").read_text(encoding="utf-8")
        assert calls[-1] == ("search", True)

    def test_non_strong_factor(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "path.dg"
        path.write_text(dumps_digraph(from_arc_list(3, [(0, 1), (1, 2)])))
        calls = _logged_sweeps(monkeypatch)
        code, out, _ = run(capsys, ["lambda2", f"file:{path}", "x", "cn:3"])
        assert code == 0 and out == "lambda2: 0\npair: 0 3\nmembers: 0\n"
        assert calls == [("search", False)] * 2  # the first factor, rejected, then the bare product

    def test_samples(self, capsys, monkeypatch):
        calls = _logged_sweeps(monkeypatch)
        code, out, _ = run(capsys, "lambda2 rand:6:0.4:3 x bcm:4 --samples 12 --seed 3".split())
        expected = (GOLDEN / "lambda2_rand6_x_bcm4_samples12_seed3.out").read_text(encoding="utf-8")
        assert code == 0 and out == expected
        assert calls == [("search", False)]

    def test_file_operand(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "product.dg"
        d, (g, h) = cli.parse_operand("rand:6:0.4:3 x rand:4:0.5:7".split())
        # a product header from older files loads as a comment
        path.write_text(f"# product n={g.n} m={h.n}\n" + dumps_digraph(d))
        calls = _logged_sweeps(monkeypatch)
        code, out, _ = run(capsys, ["lambda2", f"file:{path}"])
        assert code == 0 and out == (GOLDEN / "lambda2_rand6_x_rand4.out").read_text(encoding="utf-8")
        assert calls == [("search", False)]

    def test_symmetric_product_stays_on_the_flow_sweep(self, capsys, monkeypatch):
        calls = _logged_sweeps(monkeypatch)
        code, out, _ = run(capsys, "lambda2 bcm:6 x bcm:6".split())
        assert code == 0 and out == (GOLDEN / "lambda2_bcm6_x_bcm6.out").read_text(encoding="utf-8")
        assert calls == [("flow", False)] * 3  # the two factors, then the product


class TestCheckCommands:
    def test_thm31_small_run(self, capsys):
        code, out, _ = run(capsys, ["check", "thm31", "--trials", "4", "--max-order", "4", "--seed", "1"])
        assert code == 0 and "checked 4 products: 0 failure(s)" in out

    def test_thm31_requires_seed(self, capsys):
        code, _, err = run(capsys, ["check", "thm31", "--trials", "4"])
        assert code == 2

    def test_bounds_small_run(self, capsys):
        code, out, _ = run(capsys, ["check", "bounds", "--trials", "4", "--max-order", "3", "--seed", "2"])
        assert code == 0 and "0 failure(s)" in out

    def test_table1(self, capsys):
        code, out, _ = run(capsys, ["check", "table1", "--max", "3"])
        assert code == 0
        assert "checked 49 table entries: 0 failure(s)" in out
        assert "cn:3 x cn:3: expected=2 observed=2 PASS" in out

    def test_table1_max_must_cover_classes(self, capsys):
        code, _, err = run(capsys, ["check", "table1", "--max", "2"])
        assert code == 2

    def test_eq2_small_run(self, capsys):
        code, out, _ = run(
            capsys, ["check", "eq2", "--trials", "3", "--max-order", "3", "--seed", "4"]
        )
        assert code == 0 and "0 failure(s)" in out and "bidirected products" in out

    @pytest.mark.parametrize("target", ["thm31", "bounds", "eq2"])
    @pytest.mark.parametrize(
        "option,value,message",
        [
            ("--trials", "-3", "error: trials must be nonnegative, got -3"),
            ("--max-order", "1", "error: max order must be at least 2, got 1"),
        ],
    )
    def test_bad_trial_settings_are_usage_errors(self, capsys, target, option, value, message):
        code, out, err = run(capsys, ["check", target, option, value, "--seed", "1"])
        assert code == 2 and out == "" and err.strip() == message

    def test_failed_trial_prints_its_factors(self, capsys, monkeypatch):
        # a FAIL line is followed by both factors in the .dg format, so the failure can be replayed
        seen = []

        def failing(g, h):
            seen.append((g, h))
            return constructions.check_product_formula(g, h)._replace(holds=False)

        monkeypatch.setattr(cli, "check_product_formula", failing)
        code, out, _ = run(capsys, ["check", "thm31", "--trials", "2", "--max-order", "3", "--seed", "1"])
        assert code == 1 and out.endswith("checked 2 products: 2 failure(s)\n")
        trials = out.split("\n[")
        assert len(trials) == 2 and len(seen) == 2
        for text, (g, h) in zip(trials, seen):
            line, rest = text.split("\n", 1)
            assert line.endswith(" FAIL") and rest.startswith("--- g ---\n")
            g_text, h_text = rest[len("--- g ---\n") :].split("--- h ---\n")
            assert loads_digraph(g_text) == g
            assert loads_digraph(h_text.split("checked")[0]) == h

    def test_failed_table_entry_prints_its_factors(self, capsys, monkeypatch):
        # the table expects one more than cn:3 x cn:3 has: that entry alone fails
        def expected(cls_g, cls_h, n, m):
            return class_table_value(cls_g, cls_h, n, m) + ((cls_g, cls_h, n, m) == ("cn", "cn", 3, 3))

        monkeypatch.setattr(cli, "class_table_value", expected)
        code, out, _ = run(capsys, ["check", "table1", "--max", "3"])
        assert code == 1 and out.endswith("checked 49 table entries: 1 failure(s)\n")
        cycle = dumps_digraph(directed_cycle(3))
        assert f"cn:3 x cn:3: expected=3 observed=2 FAIL\n--- g ---\n{cycle}--- h ---\n{cycle}cn:3 x bcm:3:" in out
        assert out.count("FAIL") == 1 and out.count("--- g ---") == 1

    def test_failed_single_graph_identity_prints_its_graph(self, capsys, monkeypatch):
        # the search reports one more than lambda on every bioriented graph, the products still agree
        seen = []

        def off_by_one(bg):
            seen.append(bg)
            return packing._search_sweep(bg)._replace(value=arc_connectivity(bg).value + 1)

        monkeypatch.setattr(cli, "_search_sweep", off_by_one)
        code, out, _ = run(capsys, ["check", "eq2", "--trials", "2", "--max-order", "3", "--seed", "4"])
        assert code == 1 and out.endswith("checked 27 identities: 2 failure(s)\n")
        trials = out.split("[")[1:]
        assert len(trials) == 2 == len(seen)
        for text, bg in zip(trials, seen):
            line, rest = text.split("\n", 1)
            lam = arc_connectivity(bg).value
            assert line.endswith(f"single graph n={bg.n}: lambda={lam} lambda2={lam + 1} FAIL")
            assert rest.startswith(f"--- graph ---\n{dumps_digraph(bg)}")

    def test_failed_product_identity_prints_its_factors(self, capsys, monkeypatch):
        seen = []

        def failing(bg, bh, lambda_g, lambda_h):
            seen.append((bg, bh))
            return constructions.check_symmetric_identity(bg, bh, lambda_g, lambda_h)._replace(holds=False)

        monkeypatch.setattr(cli, "check_symmetric_identity", failing)
        code, out, _ = run(capsys, ["check", "eq2", "--trials", "0", "--max-order", "2", "--seed", "4"])
        assert code == 1 and len(seen) == 1
        k2 = from_arc_list(2, [(0, 1), (1, 0)])
        assert seen == [(k2, k2)]
        assert out == (
            "product n=2 edges=((0, 1),) by n=2 edges=((0, 1),): formula=2 observed=2 FAIL\n"
            f"--- g ---\n{dumps_digraph(k2)}--- h ---\n{dumps_digraph(k2)}"
            "checked 1 bidirected products: all orders <= 2\n"
            "checked 1 identities: 1 failure(s)\n"
        )

    def test_deterministic_check(self, capsys):
        argv = ["check", "thm31", "--trials", "3", "--max-order", "4", "--seed", "9"]
        _, out_a, _ = run(capsys, argv)
        _, out_b, _ = run(capsys, argv)
        assert out_a == out_b


class TestConstructCommand:
    @pytest.mark.parametrize(
        "argv,members",
        [
            (["construct", "p51", "-n", "4", "-m", "4", "-S", "0,0:1,1"], 2),
            (["construct", "p52", "-n", "4", "-m", "4", "-S", "0,0:1,1"], 3),
            (["construct", "p53", "-n", "4", "-m", "4", "-S", "0,0:1,1"], 2),
            (["construct", "p53", "-n", "4", "-m", "4", "-S", "0,0:1,1", "--shape", "star"], 2),
            (["construct", "p54", "-n", "3", "-m", "5", "-S", "0,0:1,1"], 5),
        ],
    )
    def test_closed_form_families(self, capsys, argv, members):
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert f"members: {members}" in out and "origin: construction" in out

    def test_lift(self, capsys):
        code, out, _ = run(capsys, ["construct", "lift", "--g", "cn:3", "--h", "cn:3", "-S", "0,0:1,1"])
        assert code == 0
        assert "origin: lift" in out
        count = int(next(line for line in out.splitlines() if line.startswith("members:")).split()[1])
        assert count >= 1

    def test_unverified_family_fails(self, capsys, monkeypatch):
        real = constructions.verify_certificate
        monkeypatch.setattr(
            constructions, "verify_certificate", lambda d, fam: real(d, fam)._replace(valid=False)
        )
        code, out, err = run(capsys, ["construct", "p51", "-n", "4", "-m", "4", "-S", "0,0:1,1"])
        assert code == 1 and out == ""
        assert "failed verification" in err and "Traceback" not in err

    def test_solver_fallback_labeled(self, capsys):
        code, out, _ = run(capsys, ["construct", "p51", "-n", "4", "-m", "4", "-S", "0,0:0,2"])
        assert code == 0 and "origin: solver" in out

    def test_out_file_json(self, capsys, tmp_path):
        path = tmp_path / "fam.json"
        code, out, _ = run(
            capsys, ["construct", "p52", "-n", "4", "-m", "4", "-S", "0,0:1,1", "--out", str(path)]
        )
        assert code == 0
        cert = certificate_from_json(path.read_text(encoding="utf-8"))
        assert len(cert.members) == 3 and cert.n == 16

    def test_bad_seed_positions(self, capsys):
        code, _, err = run(capsys, ["construct", "p51", "-n", "4", "-m", "4", "-S", "5,5:1,1"])
        assert code == 2

    def test_undersized_cycle_factor_names_both_orders(self, capsys):
        code, _, err = run(capsys, ["construct", "p51", "-n", "1", "-m", "4", "-S", "0,0:0,1"])
        assert code == 2
        assert "cycle factors need order >= 3, got 1 and 4" in err


class TestExportCommand:
    def test_dot_output(self, capsys):
        code, out, _ = run(capsys, ["export", "--dot", "cn:3"])
        assert code == 0 and out.startswith("digraph") and out.count("->") == 3

    def test_json_output_with_product_dims(self, capsys):
        code, out, _ = run(capsys, ["export", "--json", "cn:3", "x", "cn:3"])
        assert code == 0
        obj = json.loads(out)
        assert obj["n"] == 9 and obj["product"] == [3, 3] and len(obj["arcs"]) == 18

    def test_requires_exactly_one_format(self, capsys):
        assert run(capsys, ["export", "cn:3"])[0] == 2
        assert run(capsys, ["export", "--dot", "--json", "cn:3"])[0] == 2

    def test_cert_overlay_and_reingestion(self, capsys, tmp_path):
        fam = tmp_path / "fam.json"
        run(capsys, ["construct", "p51", "-n", "4", "-m", "4", "-S", "0,0:1,1", "--out", str(fam)])
        code, out, _ = run(capsys, ["export", "--dot", "--cert", str(fam), "cn:4", "x", "cn:4"])
        assert code == 0
        assert out.count("color=") == 16  # two 8-arc members highlighted

    def test_cert_without_operand_uses_member_union(self, capsys, tmp_path):
        fam = tmp_path / "fam.json"
        run(capsys, ["construct", "p51", "-n", "4", "-m", "4", "-S", "0,0:1,1", "--out", str(fam)])
        code, out, _ = run(capsys, ["export", "--json", "--cert", str(fam)])
        assert code == 0
        obj = json.loads(out)
        assert obj["n"] == 16 and len(obj["certificate"]["members"]) == 2

    def test_cert_order_mismatch(self, capsys, tmp_path):
        fam = tmp_path / "fam.json"
        run(capsys, ["construct", "p51", "-n", "4", "-m", "4", "-S", "0,0:1,1", "--out", str(fam)])
        code, _, err = run(capsys, ["export", "--dot", "--cert", str(fam), "cn:3"])
        assert code == 2

    def test_unreadable_cert_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}", encoding="utf-8")
        for cert in (bad, tmp_path / "missing.json"):
            code, out, err = run(capsys, ["export", "--json", "--cert", str(cert)])
            assert code == 2 and out == "" and f"cannot load certificate '{cert}'" in err

    def test_nothing_to_export(self, capsys):
        code, out, err = run(capsys, ["export", "--json"])
        assert code == 2 and out == "" and "nothing to export" in err

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "graph.dot"
        code, _, _ = run(capsys, ["export", "--dot", "cn:3", "-o", str(path)])
        assert code == 0 and path.read_text(encoding="utf-8").startswith("digraph")


class TestHuntCommand:
    def test_zero_trials(self, capsys):
        code, out, _ = run(capsys, ["hunt", "--trials", "0", "--seed", "1"])
        assert code == 0 and "trials: 0" in out and "hits: 0" in out

    def test_small_run_reports_gaps(self, capsys):
        code, out, _ = run(capsys, ["hunt", "--trials", "5", "--max-order", "3", "--seed", "2"])
        assert code == 0 and "trials: 5" in out and "gap " in out

    def test_density_sets_extra_arc_prob(self, capsys, monkeypatch):
        settings = (30, 4, 0.1, 11)  # trials, max order, extra arc probability, seed
        seen = []
        real = cli.hunt_tightness
        monkeypatch.setattr(cli, "hunt_tightness", lambda *a: seen.append(a) or real(*a))
        code, out, _ = run(capsys, ["hunt", "--trials", "30", "--seed", "11", "--density", "0.1"])
        assert code == 0 and seen == [settings]
        tallies = [f"gap {gap}: {count}" for gap, count in real(*settings).gap_counts]
        assert [line for line in out.splitlines() if line.startswith("gap ")] == tallies

    @pytest.mark.parametrize("density", ["1.5", "-0.1"])
    def test_density_out_of_range_is_usage_error(self, capsys, density):
        code, _, err = run(capsys, ["hunt", "--trials", "20", "--seed", "0", "--density", density])
        assert code == 2 and f"got {density}" in err

    def test_out_directory_written_on_hits(self, capsys, tmp_path, monkeypatch):
        g = h = directed_cycle(3)
        p, fam = lift_certificates(g, h, (0, 0), (0, 1))
        bounds = BoundsReport(
            lower=1, upper=2, lambda2_g=1, lambda2_h=1, observed=1,
            lower_tight=True, upper_tight=False, sandwich_ok=True, pair=(0, 1), witness=fam,
        )
        hit = HuntHit(trial=3, g=g, h=h, bounds=bounds)
        fake = HuntReport(trials=4, sandwich_ok=True, gap_counts=((0, 1), (1, 3)), hits=(hit,))
        monkeypatch.setattr(cli, "hunt_tightness", lambda *settings: fake)
        out_dir = tmp_path / "hits"
        code, out, _ = run(
            capsys, ["hunt", "--trials", "4", "--seed", "1", "--out", str(out_dir)]
        )
        assert code == 0 and "hits: 1" in out
        assert (out_dir / "hit0003_g.dg").exists()
        assert (out_dir / "hit0003_h.dg").exists()
        cert = certificate_from_json((out_dir / "hit0003_cert.json").read_text(encoding="utf-8"))
        assert cert == fam

    def test_sandwich_violation_fails(self, capsys, monkeypatch):
        fake = HuntReport(trials=1, sandwich_ok=False, gap_counts=((-1, 1),), hits=())
        monkeypatch.setattr(cli, "hunt_tightness", lambda *settings: fake)
        code, out, _ = run(capsys, ["hunt", "--trials", "1", "--seed", "1"])
        assert code == 1 and "FAIL" in out


class TestTopLevel:
    def test_unknown_subcommand(self, capsys):
        assert run(capsys, ["frobnicate"])[0] == 2

    @pytest.mark.parametrize("argv", [["lambda", "cn:5"], ["check", "table1", "--max", "4"]])
    def test_closed_stdout_ends_the_run_quietly(self, argv):
        # the reader has gone before the first write: the run stops at it, exits 0 and says nothing
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=str(Path(strongarc.__file__).parents[1]))
        try:
            child = subprocess.run(
                [sys.executable, "-m", "strongarc", *argv],
                stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60, env=env,
            )
        finally:
            os.close(write_end)
        assert (child.returncode, child.stderr) == (0, "")

    def test_no_arguments(self, capsys):
        assert run(capsys, [])[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, ["--help"])[0] == 0
