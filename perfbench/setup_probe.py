"""One set-up measurement, run in a fresh interpreter by run.py.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED DIR

Times importing cusplab plus writing and parsing every config of the
workload's study list into DIR, and prints the seconds on stdout.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402  (the benchmark's own module; stdlib only)


def main() -> int:
    workload, seed, directory = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    start = time.perf_counter()
    import cusplab.cli  # noqa: F401  (the CLI imports every layer)
    from cusplab.model import parse_config

    paths = workloads.write_configs(workloads.studies(workload, seed), directory)
    for path in paths.values():
        with open(path, "r", encoding="utf-8") as fh:
            parse_config(fh.read())
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main())
