"""CLI stdout, byte for byte, against outputs recorded before the flow kernel rewrite
(`lambda`, `check thm31`), before the pair-orbit sweep (`lambda2`, `check table1`,
`check eq2`), before the single-copy refactor (`hunt`, `check bounds`, `construct`) and
before the deferred flow bound (`check table1 --max 5`, the sampled `lambda2`) and before
per-node path enumeration (`lambda2` on a directed torus and on a mixed product) and
before the flow route for symmetric digraphs (`lambda2` on two symmetric products whose
minimizing pair is not (0, 1)) and before the strong-digraph floor exit (`lambda2` on a
directed cycle and on a bidirected star, and the first lifted product of the certify
benchmark) and before the witness-first connectivity scan (`lambda` on a random product
of order 56, whose `min_cut:` line is `arc_connectivity`'s witness: the out-arcs of the
least vertex of out-degree λ = 2, vertex 21) and before the product-aware pair sweep
(`check bounds` with factors of order up to 6, and `lambda2` on a product of two order-8
random factors; both skip the pairs the lift bound settles and screen the rest) and before
one routine built the rectangle members of both cycle families (`construct p51` and
`construct p53` with seeds in general position) and before every closed-form family was
built from shared member routines (`construct p52`, and `construct p51` at the figure's
diagonally adjacent seeds) and before product sweeps took their pair orbits from the
factors' automorphisms (`lambda2` on `cn:8 x cn:8`, whose factors are isomorphic, and on
`cn:5 x bcm:4`; both sweeps get past the floor exit) and before the product sweep's lift
bound took distinct bridge rows and whole factor packings (`lambda2` on a product of two
order-12 random factors, where that bound settles most pairs)."""

from pathlib import Path

import pytest

from strongarc import cli, constructions

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "lambda_cn5": "lambda cn:5",
    "lambda_bkm4": "lambda bkm:4",
    "lambda_bcm6_x_bcm6": "lambda bcm:6 x bcm:6",
    "lambda_rand8_x_rand7": "lambda rand:8:0.3:1 x rand:7:0.3:2",
    "lambda_rand30_x_rand20": "lambda rand:30:0.3:1 x rand:20:0.3:2",
    "lambda_rand9_x_rand8_seed5": "lambda rand:9:0.3:5 x rand:8:0.3:5",
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
    "lambda2_btmstar5_x_bkm3": "lambda2 btm:star:5 x bkm:3",
    "lambda2_btmstar6_x_btmpath4": "lambda2 btm:star:6 x btm:path:4",
    "lambda2_cn7": "lambda2 cn:7",
    "lambda2_btmstar6": "lambda2 btm:star:6",
    "construct_lift_cn5_btmstar6_s00_12": "construct lift --g cn:5 --h btm:star:6 -S 0,0:1,2",
    "check_bounds_trials50_seed2_maxorder6": "check bounds --trials 50 --seed 2 --max-order 6",
    "lambda2_rand8_x_rand8": "lambda2 rand:8:0.4:1 x rand:8:0.4:2",
    "construct_p51_n5_m4_s00_23": "construct p51 -n 5 -m 4 -S 0,0:2,3",
    "construct_p53_n4_m6_random3_s12_35": "construct p53 -n 4 -m 6 -S 1,2:3,5 --shape random --shape-seed 3",
    "construct_p52_n4_m6_s00_14": "construct p52 -n 4 -m 6 -S 0,0:1,4",
    "construct_p51_n4_m4_s00_11": "construct p51 -n 4 -m 4 -S 0,0:1,1",
    "lambda2_cn8_x_cn8": "lambda2 cn:8 x cn:8",
    "lambda2_cn5_x_bcm4": "lambda2 cn:5 x bcm:4",
    "lambda2_rand12_x_rand12": "lambda2 rand:12:0.4:1 x rand:12:0.4:2",
}


@pytest.mark.parametrize("name", COMMANDS)
def test_stdout_matches_golden(capsys, name):
    assert cli.main(COMMANDS[name].split()) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.parametrize("name", ["check_bounds_trials50_seed2_maxorder6", "lambda2_rand8_x_rand8"])
def test_product_goldens_settle_pairs_by_the_lift_bound(capsys, monkeypatch, name):
    # at need = λ₂(G) + λ₂(H), mostly a running minimum of that sum, the lift bound reads first whether
    # the whole factor packings drop a member; where they do it counts them, and a packing longer than
    # λ₂ may settle the pair after all.  Each answer: (does a member drop, does the bound reach need)
    answers, drops = [], []
    lift_bound, stuck_drop = constructions._lift_bound, constructions._stuck_drop

    def logged_drop(*args):
        drops.append(stuck_drop(*args))
        return drops[-1]

    def logged_bound(g_fams, h_fams, r1, c1, r2, c2, need):
        drops.clear()
        value = lift_bound(g_fams, h_fams, r1, c1, r2, c2, need)
        if need == g_fams.least + h_fams.least:
            answers.append((drops[:1] == [True], value >= need))
        return value

    monkeypatch.setattr(constructions, "_stuck_drop", logged_drop)
    monkeypatch.setattr(constructions, "_lift_bound", logged_bound)
    assert cli.main(COMMANDS[name].split()) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{name}.out").read_bytes()
    assert (False, True) in answers and (True, True) in answers
    assert (False, False) not in answers
