"""Time a fresh ``import ordmixed`` plus building one workload's inputs.

Run as a child process by ``run.py``; prints the seconds taken. The clock
starts before numpy is imported, so the figure includes every import the
library needs.

    python3 perfbench/setup_probe.py <src-dir> <workload> <seed>
"""

import sys
import time


def main() -> None:
    start = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    import workloads  # imports numpy, scipy and ordmixed

    workloads.WORKLOADS[sys.argv[2]].build(int(sys.argv[3]), 0)
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
