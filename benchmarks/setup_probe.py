"""Time one workload set-up in a fresh interpreter.

Set-up is importing ``strongarc`` and building the workload's digraphs and
products; importing the benchmark's own modules is not counted.  Prints the
raw seconds and the speed scale measured right after (see ``calibration``).
``run.py`` starts this script several times and reports the median.

Usage: python3 benchmarks/setup_probe.py <workload> <seed> <src directory>
"""

import sys
import time


def main() -> None:
    workload, seed, src = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    sys.path.insert(0, src)
    start = time.perf_counter()
    import strongarc

    imported = time.perf_counter()
    from workloads import WORKLOADS

    build_start = time.perf_counter()
    WORKLOADS[workload].build(strongarc, seed)
    end = time.perf_counter()
    from calibration import scale_now

    print(repr((imported - start) + (end - build_start)), repr(scale_now()))


if __name__ == "__main__":
    main()
