"""CLI stdout, byte for byte, against outputs recorded before the flow kernel rewrite
(`lambda`, `check thm31`), before the pair-orbit sweep (`lambda2`, `check table1`,
`check eq2`), before the single-copy refactor (`hunt`, `check bounds`, `construct`) and
before the deferred flow bound (`check table1 --max 5`, the sampled `lambda2`) and before
per-node path enumeration (`lambda2` on a directed torus and on a mixed product)."""

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
    "hunt_trials200_seed9": "hunt --trials 200 --seed 9",
    "check_bounds_trials100_seed2": "check bounds --trials 100 --seed 2",
    "construct_p51_n4_m4_s00_02": "construct p51 -n 4 -m 4 -S 0,0:0,2",
    "construct_lift_cn3_bcm4_s00_12": "construct lift --g cn:3 --h bcm:4 -S 0,0:1,2",
    "construct_lift_cn3_bcm4_s00_02": "construct lift --g cn:3 --h bcm:4 -S 0,0:0,2",
    "construct_lift_cn3_bcm4_s01_21": "construct lift --g cn:3 --h bcm:4 -S 0,1:2,1",
    "construct_p54_n3_m5_s00_11": "construct p54 -n 3 -m 5 -S 0,0:1,1",
    "construct_p53_n3_m4_star_s00_10": "construct p53 -n 3 -m 4 -S 0,0:1,0 --shape star",
    "check_table1_max5": "check table1 --max 5",
    "lambda2_rand6_x_bcm4_samples12_seed3": "lambda2 rand:6:0.4:3 x bcm:4 --samples 12 --seed 3",
    "lambda2_cn12_x_cn10": "lambda2 cn:12 x cn:10",
    "lambda2_bcm10_x_rand10": "lambda2 bcm:10 x rand:10:0.3:4",
}


@pytest.mark.parametrize("name", COMMANDS)
def test_stdout_matches_golden(capsys, name):
    assert cli.main(COMMANDS[name].split()) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{name}.out").read_bytes()
