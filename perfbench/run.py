"""cusplab benchmark: pinned, verified studies run through `cusplab.cli.main`.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`.  The process runs one workload, single-threaded, as a closed loop:
each study starts when the previous one has finished, as long as a study
of median length still ends within S seconds (at least one study runs).  Every study's exit codes and outputs are
checked against `perfbench/expected.json`, recorded at the seed commit; a
crash or a wrong answer counts as a failed study and does not stop the run.

--trace 0 reports the end-to-end metrics.  --trace 1 runs each study twice,
untraced then traced, reports per-layer medians from the traced runs and
the tracing overhead, and writes the spans to perfbench/.work/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are a readable summary.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import asdict

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

SETUP_PROBES = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END_UNITS = {"study_s": "s", "study_s_tail": "s", "setup_s": "s",
                    "peak_rss_mb": "MB", "verified_frac": "fraction"}


class BenchError(Exception):
    pass


def prepare() -> None:
    """Pin math libraries to one thread and import cusplab from src/.

    Must run before numpy is imported.
    """
    if not os.path.isfile(os.path.join(SRC, "cusplab", "cli.py")):
        raise BenchError(f"no cusplab sources under {SRC}; run from a source checkout")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import cusplab

    if os.path.dirname(os.path.dirname(os.path.abspath(cusplab.__file__))) != SRC:
        raise BenchError(f"cusplab imported from {cusplab.__file__}, not from {SRC}")


def run_study(study, config_path: str, workdir: str):
    """Run one study through the CLI; returns (seconds, exit codes, output paths)."""
    from cusplab import cli

    outs = [os.path.join(workdir, f"out{j}.json") for j in range(len(study.commands))]
    start = time.perf_counter()
    codes = [cli.main([command, "--config", config_path, "--format", "json", "--out", out])
             for command, out in zip(study.commands, outs)]
    return time.perf_counter() - start, codes, outs


def read_outputs(codes, outs):
    """Parsed JSON outputs, or a failure cause for a bad exit code."""
    if any(code != 0 for code in codes):
        return None, f"exit codes {codes!r}, want all 0"
    parsed = []
    for out in outs:
        with open(out, "r", encoding="utf-8") as fh:
            parsed.append(json.load(fh))
    return parsed, None


def tail(samples):
    """Highest percentile with at least ten samples beyond it, and that percentile.

    With fewer than 11 samples this is the slowest one (reported as p100).
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def measure_setup(workload: str, seed: int, workdir: str):
    times = []
    for i in range(SETUP_PROBES):
        target = os.path.join(workdir, f"setup{i}")
        os.mkdir(target)
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed), target],
            capture_output=True, text=True, timeout=120, env=os.environ.copy())
        if done.returncode != 0:
            raise BenchError(f"set-up probe failed: {done.stderr.strip()}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


class Runner:
    """Runs the studies of one workload and keeps their timings and failures."""

    def __init__(self, workload: str, study_list, workdir: str):
        self.workload = workload
        self.study_list = study_list
        self.workdir = workdir
        self.configs = workloads.write_configs(study_list, workdir)
        self.expected = workloads.load_expected()
        self.attempted = 0
        self.failures = []

    def run(self, index: int) -> float:
        """Run and check study `index` of the list; returns its seconds."""
        study = self.study_list[index % len(self.study_list)]
        self.attempted += 1
        start = time.perf_counter()
        try:
            seconds, codes, outs = run_study(study, self.configs[study.key], self.workdir)
            parsed, cause = read_outputs(codes, outs)
            if cause is None:
                cause = workloads.check(self.workload, study, parsed, self.expected)
        except Exception:  # a crashing study is a failed study; the run goes on
            seconds = time.perf_counter() - start
            cause = "crash: " + traceback.format_exc().strip().splitlines()[-1]
            traceback.print_exc(file=sys.stderr)
        if cause is not None:
            self.failures.append(f"{study.key}: {cause}")
            print(f"FAILED {study.key}: {cause}", file=sys.stderr)
        return seconds


def end_to_end(runner: Runner, seconds: float, setup_times) -> dict:
    times = []
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() + statistics.median(times) <= deadline:
        times.append(runner.run(len(times)))
    tail_s, pct = tail(times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "study_s": statistics.median(times),
        "study_s_tail": tail_s,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss_mb,
        "verified_frac": (runner.attempted - len(runner.failures)) / runner.attempted,
    }
    print(f"# studies: n={len(times)}; study_s is their median, "
          f"study_s_tail their p{pct:.1f}")
    print(f"# setup_s: median of {len(setup_times)} fresh interpreters: "
          + ", ".join(f"{t:.4f}" for t in setup_times))
    print(f"# failed_frac = {len(runner.failures) / runner.attempted!r} "
          f"({len(runner.failures)} of {runner.attempted} studies)")
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in metrics.items()}


def traced(runner: Runner, seconds: float, spans_path: str) -> dict:
    from tracer import LAYER_UNITS, Tracer, layer_medians

    tracer = Tracer()
    pairs = []
    deadline = time.perf_counter() + seconds
    while not pairs or time.perf_counter() + statistics.median(map(sum, pairs)) <= deadline:
        index = len(pairs)
        plain = runner.run(index)
        tracer.study = index
        with tracer:
            pairs.append((plain, runner.run(index)))
    ratios = [t / p for p, t in pairs]
    layers = layer_medians(tracer.spans)
    layers["trace.overhead_frac"] = statistics.median(ratios) - 1.0
    units = {**LAYER_UNITS, "trace.overhead_frac": "fraction"}
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump([asdict(s) for s in tracer.spans], fh)
    print(f"# traced studies: n={len(pairs)} (each also run untraced); "
          f"per-layer values are medians per study; spans in {spans_path}")
    return {name: {"value": float(value), "unit": units[name]}
            for name, value in layers.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    try:
        prepare()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        runner = Runner(args.workload, workloads.studies(args.workload, args.seed), workdir)
        if args.trace:
            spans_path = os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.json")
            metrics = traced(runner, args.seconds, spans_path)
        else:
            setup_times = measure_setup(args.workload, args.seed, workdir)
            metrics = end_to_end(runner, args.seconds, setup_times)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    for failure in runner.failures:
        print(f"# failed: {failure}")
    failed = len(runner.failures)
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
