"""CLI stdout, byte for byte, against outputs recorded before the flow kernel rewrite
(`lambda`, `check thm31`) and before the pair-orbit sweep (`lambda2`, `check table1`,
`check eq2`)."""

from pathlib import Path

import pytest

from strongarc import cli

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "lambda_cn5": "lambda cn:5",
    "lambda_bkm4": "lambda bkm:4",
    "lambda_bcm6_x_bcm6": "lambda bcm:6 x bcm:6",
    "lambda_rand8_x_rand7": "lambda rand:8:0.3:1 x rand:7:0.3:2",
    "lambda_rand30_x_rand20": "lambda rand:30:0.3:1 x rand:20:0.3:2",
    "check_thm31_trials20_seed1": "check thm31 --trials 20 --seed 1",
    "lambda2_bkm6_x_bkm6": "lambda2 bkm:6 x bkm:6",
    "lambda2_bcm6_x_bcm6": "lambda2 bcm:6 x bcm:6",
    "lambda2_cn4_x_bkm4": "lambda2 cn:4 x bkm:4",
    "lambda2_rand6_x_rand4": "lambda2 rand:6:0.4:3 x rand:4:0.5:7",
    "check_table1_max4": "check table1 --max 4",
    "check_eq2_trials30_seed3": "check eq2 --trials 30 --seed 3",
}


@pytest.mark.parametrize("name", COMMANDS)
def test_stdout_matches_golden(capsys, name):
    assert cli.main(COMMANDS[name].split()) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{name}.out").read_bytes()
