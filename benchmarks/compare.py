"""Compare two sets of untraced benchmark results, one row per workload and metric.

    python3 benchmarks/compare.py PARENT_DIR CHANGE_DIR

Each directory holds result files written by ``run.py --trace 0`` (run both
commits with the same seeds and ``--seconds``, alternating which goes first).
Runs are paired by workload and seed.  Each row gives both medians with
their quartiles, the share of pairs the change won (ties count for neither)
and a verdict:

- improved: at least ten pairs, the change wins at least nine tenths of them,
  and the medians differ by more than the parent's quartile distance;
- worse: the change's median is worse than the parent's by more than the
  metric's bound in ``BENCHMARK.json``;
- unresolved: either side's quartile distance, as a share of its median,
  exceeds the bound, and not every change run beats every parent run;
- within bound: otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(directory: Path) -> dict[str, list[dict]]:
    """Untraced results by workload, each list sorted by seed, then by run order."""
    runs = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        result = json.loads(path.read_text(encoding="utf-8"))
        if not result.get("trace"):
            runs[result["workload"]].append(result)
    for results in runs.values():
        results.sort(key=lambda r: r["seed"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pair_up(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    """Match runs with equal seeds, in run order within a seed."""
    by_seed = defaultdict(list)
    for result in change:
        by_seed[result["seed"]].append(result)
    pairs = []
    for result in parent:
        if by_seed[result["seed"]]:
            pairs.append((result, by_seed[result["seed"]].pop(0)))
    return pairs


def verdict(parent: list[float], change: list[float], pairs, lower_is_better: bool, bound: float):
    sign = 1 if lower_is_better else -1
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(1 for p, c in pairs if (p - c) * sign > 0)
    share = wins / len(pairs) if pairs else 0.0
    gain = (p_med - c_med) * sign
    spread = max((p_q3 - p_q1) / p_med, (c_q3 - c_q1) / c_med)
    every_better = all((p - c) * sign > 0 for p in parent for c in change)
    if len(pairs) >= MIN_PAIRS and share >= WIN_SHARE and gain > p_q3 - p_q1:
        return share, "improved"
    if -gain > bound * p_med:
        return share, "worse"
    if spread > bound and not every_better:
        return share, "unresolved"
    return share, "within bound"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parent_runs, change_runs = load(args.parent), load(args.change)
    header = f"{'workload':16s} {'metric':16s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s} {'won':>9s}  verdict"
    print(header)
    worse = False
    for workload in [w["name"] for w in spec["workloads"]]:
        if not parent_runs[workload] or not change_runs[workload]:
            print(f"{workload:16s} (no runs on one side)")
            continue
        pairs = pair_up(parent_runs[workload], change_runs[workload])
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = [r["metrics"][name] for r in parent_runs[workload]]
            change = [r["metrics"][name] for r in change_runs[workload]]
            value_pairs = [(p["metrics"][name], c["metrics"][name]) for p, c in pairs]
            share, word = verdict(parent, change, value_pairs, metric["better"] == "lower", metric["bound"])
            worse |= word == "worse"
            p_q1, p_med, p_q3 = quartiles(parent)
            c_q1, c_med, c_q3 = quartiles(change)
            print(
                f"{workload:16s} {name:16s} "
                f"{p_med:12.5g} [{p_q1:9.5g}, {p_q3:9.5g}] "
                f"{c_med:12.5g} [{c_q1:9.5g}, {c_q3:9.5g}] "
                f"{share:5.0%} of {len(value_pairs):<2d} {word}"
            )
    return 1 if worse else 0


if __name__ == "__main__":
    raise SystemExit(main())
