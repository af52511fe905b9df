"""Command line interface: operand parsing, subcommands, exit codes, file output."""

import dataclasses
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import strongarc
from strongarc import cli
from strongarc.constructions import HuntConfig, HuntHit, HuntReport, class_table_value, lift_certificates
from strongarc.digraph import from_arc_list, write_digraph
from strongarc.generators import directed_cycle
from strongarc.packing import certificate_from_json


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        write_digraph(str(path), directed_cycle(4), product=None)
        d = cli.parse_class_spec(f"file:{path}")
        assert d.arcs == directed_cycle(4).arcs

    @pytest.mark.parametrize(
        "token",
        ["cn:1", "bcm:2", "bkm:zzz", "btm:random:4", "rand:4:0.3", "bogus:3", "file:/no/such"],
    )
    def test_bad_tokens_raise_usage_error(self, token):
        with pytest.raises(cli.UsageError):
            cli.parse_class_spec(token)

    def test_product_operand(self):
        d, dims = cli.parse_operand(["cn:3", "x", "bcm:3"])
        assert d.n == 9 and dims == (3, 3)

    def test_single_operand(self):
        d, dims = cli.parse_operand(["bkm:3"])
        assert d.n == 3 and dims is None

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
        write_digraph(str(path), from_arc_list(3, [(0, 1), (1, 2)]), product=None)
        code, out, _ = run(capsys, ["lambda", f"file:{path}"])
        assert code == 0
        assert "warning: digraph is not strong" in out
        assert "lambda: 0" in out

    @pytest.mark.parametrize(
        "cut",
        [frozenset({(0, 1), (0, 2), (0, 3), (1, 2)}), frozenset({(0, 1), (1, 2), (2, 3)})],
        ids=["wrong-size", "not-a-cut"],
    )
    def test_unverified_cut_fails(self, capsys, monkeypatch, cut):
        real = cli.arc_connectivity
        monkeypatch.setattr(cli, "arc_connectivity", lambda d: dataclasses.replace(real(d), min_cut=cut))
        code, out, err = run(capsys, ["lambda", "bkm:4"])
        assert code == 1 and out == ""
        assert "does not verify" in err


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

    def test_member_lines_listed(self, capsys):
        code, out, _ = run(capsys, ["lambda2", "cn:3", "x", "cn:3"])
        assert code == 0
        assert "members: 2" in out and "member 0:" in out and "member 1:" in out

    def test_sampled_mode_labeled(self, capsys):
        code, out, _ = run(capsys, ["lambda2", "bcm:5", "--samples", "3", "--seed", "7"])
        assert code == 0 and "upper bound" in out

    def test_samples_require_seed(self, capsys):
        code, _, err = run(capsys, ["lambda2", "bcm:5", "--samples", "3"])
        assert code == 2 and "seed" in err

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
        config = HuntConfig(trials=30, seed=11, extra_arc_prob=0.1)
        seen = []
        real = cli.hunt_tightness
        monkeypatch.setattr(cli, "hunt_tightness", lambda c: seen.append(c) or real(c))
        code, out, _ = run(capsys, ["hunt", "--trials", "30", "--seed", "11", "--density", "0.1"])
        assert code == 0 and seen == [config]
        tallies = [f"gap {gap}: {count}" for gap, count in real(config).gap_counts]
        assert [line for line in out.splitlines() if line.startswith("gap ")] == tallies

    @pytest.mark.parametrize("density", ["1.5", "-0.1"])
    def test_density_out_of_range_is_usage_error(self, capsys, density):
        code, _, err = run(capsys, ["hunt", "--trials", "20", "--seed", "0", "--density", density])
        assert code == 2 and f"got {density}" in err

    def test_out_directory_written_on_hits(self, capsys, tmp_path, monkeypatch):
        g = h = directed_cycle(3)
        p, fam = lift_certificates(g, h, (0, 0), (0, 1))
        hit = HuntHit(trial=3, g=g, h=h, lower=1, observed=1, upper=2, pair=(0, 1), witness=fam)
        fake = HuntReport(trials=4, sandwich_ok=True, gap_counts=((0, 1), (1, 3)), hits=(hit,))
        monkeypatch.setattr(cli, "hunt_tightness", lambda config: fake)
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
        monkeypatch.setattr(cli, "hunt_tightness", lambda config: fake)
        code, out, _ = run(capsys, ["hunt", "--trials", "1", "--seed", "1"])
        assert code == 1 and "FAIL" in out


class TestTopLevel:
    def test_unknown_subcommand(self, capsys):
        assert run(capsys, ["frobnicate"])[0] == 2

    def test_no_arguments(self, capsys):
        assert run(capsys, [])[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, ["--help"])[0] == 0
