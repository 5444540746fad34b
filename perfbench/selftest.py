"""Self-test of the benchmark's checks: a perturbed result must fail.

    python3 perfbench/selftest.py [WORKLOAD ...]

Runs each workload once with `--perturb`, which corrupts one result of each
check family (a solution grid, an integral, a farm sample, a functional
value, a noise table), and requires the run to report failed checks and
`correct: false`, as `verify`'s negative controls require of the suites.
Exits 1 if any workload lets a perturbed result pass.
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("verify", "picard", "compensated", "kernels")


def perturbed_run(workload):
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", "1", "--seconds", "1",
            "--trace", "0", "--perturb"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=300, check=True)
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def main(names):
    ok = True
    for workload in names or WORKLOADS:
        detail, result = perturbed_run(workload)
        caught = result["failed"] > 0 and not result["correct"]
        ok &= caught
        print(f"{workload}: {'caught' if caught else 'MISSED'} "
              f"{result['failed']}/{result['attempted']} checks failed: {sorted(detail['failed_checks'])}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
