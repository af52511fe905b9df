"""Run one benchmark workload against the ``strongarc`` package in ``src/``.

    python3 benchmarks/run.py --workload class-table --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20

A run times the workload's set-up in fresh interpreters, then runs passes
over all its instances until ``--seconds`` of pass time is used, one library
call per instance.  Times are reported at a reference machine speed, scaled
by a calibration kernel timed next to them (see ``calibration.py``); the raw
times are kept in the result file.  After each pass, untimed, every output
is compared with the golden value in ``benchmarks/reference/``; the first
pass also runs the independent checks.  ``--trace 0`` reports the end-to-end metrics, ``--trace
1`` alternates untraced and traced passes and reports the per-layer metrics
and the tracing overhead.  The last line of standard output is the result as
one JSON object; the full result, and for traced runs the spans, are written
under ``--out``.  ``--workload all`` runs every workload in its own process,
one after another, and prints a table.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from calibration import INTERVAL_MS, REFERENCE_MS, kernel_ms, scale_now
from tracing import Tracer, per_pass_metrics
from workloads import CONFIRMATION_SEED, WORKLOADS, fresh_args

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_PROBES = 15

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "instance_p50_ms": "ms",
    "instance_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def import_package():
    if not (SRC / "strongarc" / "__init__.py").is_file():
        raise BenchError(f"no strongarc package under {SRC}")
    sys.path.insert(0, str(SRC))
    import strongarc

    if Path(strongarc.__file__).resolve().parent != SRC / "strongarc":
        raise BenchError(f"imported strongarc from {strongarc.__file__}, not from {SRC}")
    return strongarc


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def time_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """(raw seconds, speed scale) per set-up, each in a fresh interpreter.

    Bytecode caching is switched on whatever the caller's environment says,
    so the first, discarded set-up writes the cache and warms the file cache.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    samples = []
    for _ in range(SETUP_PROBES + 1):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed), str(SRC)],
            capture_output=True,
            text=True,
            timeout=60,
            cwd=ROOT,
            env=env,
        )
        if done.returncode != 0:
            raise BenchError(f"set-up probe failed: {done.stderr.strip()}")
        raw, scale = done.stdout.split()[-2:]
        samples.append((float(raw), float(scale)))
    return samples[1:]


def run_pass(sa, workload, instances, tracer: Tracer | None) -> tuple[float, list, list, list]:
    """One timed pass over all instances.

    Returns the pass's elapsed seconds, each instance's raw latency in ms and
    the speed scale in force when it ran, and the outputs (or exceptions).
    """
    args = [fresh_args(sa, inst.args) for inst in instances]
    outputs: list = [None] * len(args)
    latencies = [0.0] * len(args)
    scales = [0.0] * len(args)
    clock = time.perf_counter_ns
    if tracer is not None:
        tracer.install()
    start = clock()
    scale = REFERENCE_MS / kernel_ms()
    since_ms = 0.0
    for i, call_args in enumerate(args):
        t0 = clock()
        if tracer is not None:
            tracer.open_instance(i)
        try:
            outputs[i] = workload.run(sa, call_args)
        except Exception as exc:  # recorded as a failed instance, the run goes on
            outputs[i] = exc
        if tracer is not None:
            tracer.close_instance()
        latencies[i] = (clock() - t0) / 1e6
        scales[i] = scale
        since_ms += latencies[i]
        if since_ms >= INTERVAL_MS:
            scale = REFERENCE_MS / kernel_ms()
            since_ms = 0.0
    elapsed = (clock() - start) / 1e9
    if tracer is not None:
        tracer.uninstall()
    return elapsed, latencies, scales, outputs


def check_pass(sa, workload, instances, references, outputs, full: bool, exceptions: Counter) -> list[str]:
    """Problems with one pass's outputs; ``full`` adds the independent checks."""
    problems = []
    for inst, out in zip(instances, outputs):
        if isinstance(out, Exception):
            exceptions[type(out).__name__] += 1
            found = [f"raised {type(out).__name__}: {out}"]
        else:
            found = []
            expected = references.get(inst.key)
            try:
                summary = workload.summary(out)
                if expected is None:
                    found.append("no reference value recorded")
                elif summary != expected:
                    found.append(f"output {summary} differs from reference {expected}")
                if full:
                    found += workload.check(sa, inst, out)
            except Exception as exc:  # a malformed output fails its instance, not the run
                found.append(f"checking raised {type(exc).__name__}: {exc}")
        if found:
            problems.append(f"{inst.key}: {'; '.join(found)}")
    return problems


def load_references(name: str) -> dict:
    path = BENCH_DIR / "reference" / f"{name}.json"
    return json.loads(path.read_text(encoding="utf-8"))["values"]


def git_sha() -> str:
    """HEAD commit read from ``.git`` without running git; "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(seed: int) -> dict:
    src_lines = sum(
        len(path.read_text(encoding="utf-8").splitlines()) for path in SRC.rglob("*.py")
    )
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seeds": {"run": seed, "confirmation": CONFIRMATION_SEED},
        "src_lines": src_lines,
    }


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    sa = import_package()
    workload = WORKLOADS[name]
    references = load_references(name)
    setup_samples = [] if trace else time_setup(name, seed)
    instances = workload.build(sa, seed)
    tracer = Tracer() if trace else None
    setup_spans: list = []
    if tracer is not None:
        setup_scale = scale_now()
        tracer.install()
        tracer.open_instance("setup")
        workload.build(sa, seed)
        tracer.close_instance()
        tracer.uninstall()
        setup_spans = tracer.take()

    passes = []  # (traced, raw latencies, scales)
    traced_spans = []
    problems: list[str] = []
    exceptions: Counter = Counter()
    failed = 0
    measured = 0.0
    elapsed_per_pass = []
    while True:
        traced = trace and len(passes) % 2 == 1
        elapsed, latencies, scales, outputs = run_pass(
            sa, workload, instances, tracer if traced else None
        )
        passes.append((traced, latencies, scales))
        elapsed_per_pass.append(elapsed)
        measured += elapsed
        if traced:
            traced_spans.append((tracer.take(), dict(enumerate(scales))))
        found = check_pass(sa, workload, instances, references, outputs, len(passes) == 1, exceptions)
        del outputs  # peak memory then holds one pass's outputs, not two
        failed += len(found)
        problems += found[: max(0, 20 - len(problems))]
        if len(passes) >= (2 if trace else 1) and measured + statistics.median(elapsed_per_pass) > seconds:
            break

    def wall(p, scaled=True):
        return sum(ms * (s if scaled else 1.0) for ms, s in zip(p[1], p[2])) / 1e3

    untraced = [p for p in passes if not p[0]]
    attempted = len(passes) * len(instances)
    result = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "instances": len(instances),
        "passes": [
            {"traced": p[0], "wall_s": wall(p), "raw_wall_s": wall(p, False),
             "kernel_ms": REFERENCE_MS / statistics.median(p[2])}
            for p in passes
        ],
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "exceptions": dict(exceptions),
        "problems": problems,
        "meta": metadata(seed),
    }
    untraced_wall = statistics.median(wall(p) for p in untraced)
    if trace:
        traced_wall = statistics.median(wall(p) for p in passes if p[0])
        layer = per_pass_metrics((setup_spans, {"setup": setup_scale}), traced_spans)
        layer["trace.overhead_s"] = traced_wall - untraced_wall
        result["metrics"] = layer
        result["spans"] = {"setup": setup_spans, "passes": [spans for spans, _ in traced_spans]}
        return result

    def latency_percentiles(scaled: bool) -> tuple[float, float]:
        # each instance's latency is its median over the passes
        per_instance = [
            statistics.median(p[1][i] * (p[2][i] if scaled else 1.0) for p in untraced)
            for i in range(len(instances))
        ]
        return percentile(per_instance, 50), percentile(per_instance, 90)

    p50, p90 = latency_percentiles(True)
    raw_p50, raw_p90 = latency_percentiles(False)
    result["latency_samples"] = len(instances)
    result["metrics"] = {
        "setup_s": statistics.median(raw * scale for raw, scale in setup_samples),
        "wall_s": untraced_wall,
        "instance_p50_ms": p50,
        "instance_p90_ms": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    result["raw_metrics"] = {
        "setup_s": statistics.median(raw for raw, _ in setup_samples),
        "wall_s": statistics.median(wall(p, False) for p in untraced),
        "instance_p50_ms": raw_p50,
        "instance_p90_ms": raw_p90,
    }
    result["setup_samples"] = setup_samples
    return result


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_per_call") or metric.endswith("_per_pair"):
        return "ratio"
    return "count"


def report(result: dict) -> None:
    untraced = [p for p in result["passes"] if not p["traced"]]
    print(
        f"{result['workload']} seed {result['seed']}: {len(result['passes'])} passes "
        f"({len(untraced)} untraced) of {result['instances']} instances, "
        f"git {result['meta']['git_sha'][:12]}, src {result['meta']['src_lines']} lines"
    )
    if not result["trace"]:
        print(
            f"  latency samples {result['latency_samples']} (one per instance, median over passes), "
            f"set-up samples {len(result['setup_samples'])}"
        )
    raw_metrics = result.get("raw_metrics", {})
    for metric, value in result["metrics"].items():
        raw = f"  (raw {raw_metrics[metric]:.6g})" if metric in raw_metrics else ""
        print(f"  {metric:48s} {value:14.6g} {unit_of(metric)}{raw}")
    print(f"  {'fail_ratio':48s} {result['fail_ratio']:14.6g} ratio "
          f"({result['failed']}/{result['attempted']})")
    for problem in result["problems"]:
        print(f"  FAIL {problem}")


def write_result(result: dict, out_dir: Path) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}-{time.time_ns()}"
    path = out_dir / f"{stem}.json"
    path.write_text(json.dumps(result, separators=(",", ":")) + "\n", encoding="utf-8")
    return path


def result_line(result: dict) -> str:
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                metric: {"value": value, "unit": unit_of(metric)}
                for metric, value in result["metrics"].items()
            },
        }
    )


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process, one after another; prints one table."""
    rows = {}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out", str(args.out)],
            capture_output=True,
            text=True,
            cwd=ROOT,
        )
        if done.returncode != 0:
            print(done.stdout + done.stderr, file=sys.stderr)
            return done.returncode
        print(done.stdout.rsplit("\n", 2)[0])  # the readable report
        rows[name] = json.loads(done.stdout.strip().splitlines()[-1])
    metrics = list(next(iter(rows.values()))["metrics"])
    print(f"\n{'metric':32s}" + "".join(f"{name:>17s}" for name in rows))
    for metric in metrics + ["fail_ratio"]:
        cells = []
        for row in rows.values():
            value = row["failed"] / row["attempted"] if metric == "fail_ratio" else row["metrics"][metric]["value"]
            cells.append(f"{value:17.6g}")
        print(f"{metric:32s}" + "".join(cells))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=BENCH_DIR / "results")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    path = write_result(result, args.out)
    report(result)
    print(f"  wrote {path.relative_to(ROOT) if path.is_relative_to(ROOT) else path}")
    print(result_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
