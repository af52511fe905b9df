"""Record the golden output of every instance a workload can draw.

    python3 benchmarks/record_reference.py [workload ...]

Each instance is run once and must pass the workload's independent checks
(class-table value, certificate and cut verification, the four-term formula)
before its output is written to ``benchmarks/reference/<workload>.json``.
Re-record only when a change is meant to alter outputs.
"""

from __future__ import annotations

import json
import sys

from run import BENCH_DIR, git_sha, import_package
from workloads import WORKLOADS


def record(sa, name: str) -> int:
    workload = WORKLOADS[name]
    values = {}
    problems = []
    for inst in workload.reference_instances(sa):
        out = workload.run(sa, inst.args)
        found = workload.check(sa, inst, out)
        if found:
            problems.append(f"{inst.key}: {'; '.join(found)}")
        values[inst.key] = workload.summary(out)
    for problem in problems:
        print(f"FAIL {name} {problem}", file=sys.stderr)
    if problems:
        return 1
    path = BENCH_DIR / "reference" / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    body = ",\n".join(f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in sorted(values.items()))
    path.write_text(
        f'{{"workload": "{name}", "git_sha": "{git_sha()}",\n"values": {{\n{body}\n}}}}\n',
        encoding="utf-8",
    )
    print(f"{name}: {len(values)} instances recorded in {path.relative_to(BENCH_DIR.parent)}")
    return 0


def main() -> int:
    sa = import_package()
    names = sys.argv[1:] or list(WORKLOADS)
    return max(record(sa, name) for name in names)


if __name__ == "__main__":
    sys.exit(main())
