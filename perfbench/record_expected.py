"""Record the outputs that the benchmark's correctness checks compare with.

Usage: python3 perfbench/record_expected.py

Runs every distinct study of every workload once and writes
perfbench/expected.json.  Run it only at a commit whose answers are
trusted: the file in the repository was recorded at the seed commit.  A
study whose exit code or verdict is already wrong when recorded is kept,
listed under "wrong_at_record" with its cause, and fails in every run.
"""

import json
import os
import sys
import tempfile

import run
import workloads


def main() -> int:
    run.prepare()
    expected = {"invariance-scan": {}, "wrong_at_record": {}}
    os.makedirs(run.WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as workdir:
        for workload in workloads.WORKLOADS:
            study_list = (workloads.invariance_variants() if workload == "invariance-scan"
                          else workloads.studies(workload, 0))
            configs = workloads.write_configs(study_list, workdir)
            for study in study_list:
                seconds, codes, outs = run.run_study(study, configs[study.key], workdir)
                parsed = []
                for out in outs:
                    with open(out, "r", encoding="utf-8") as fh:
                        parsed.append(json.load(fh))
                entry = workloads.record(workload, study, parsed)
                if workload == "invariance-scan":
                    expected[workload][study.key] = entry
                else:
                    expected[workload] = entry
                cause = (run.read_outputs(codes, outs)[1]
                         or workloads.check(workload, study, parsed, expected))
                if cause is not None:
                    expected["wrong_at_record"][study.key] = cause
                print(f"{study.key}: {seconds:.3f} s {cause or 'ok'}", file=sys.stderr)
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
