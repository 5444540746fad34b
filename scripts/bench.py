#!/usr/bin/env python3
"""Paired parent/change runs of the benchmark, written to one BENCH_<n>.json.

    python scripts/bench.py --parent ../parent --change . --workloads kernels \
        --seeds 71 72 73 --seconds 25 --out BENCH_7.json

For each workload and seed the unmodified `perfbench/run.py` of each
checkout runs once, in a fresh process started in that checkout's root.
The two sides of a pair alternate which goes first.  Every run's last two
stdout lines (the detail record and the result) are kept: its metrics,
`digest_round0`, check counts and environment.  An existing output file is
extended, so runs made with different settings share one file; the
summary (per workload, trace mode and run length: each side's median and
quartiles per metric, how many pairs the change read lower, and whether
the digests agree seed by seed) is recomputed over all runs.

Each pair prints whether the two sides' `digest_round0` agree.  The exit
status is 1 when a pair of this invocation has different digests or one
of its runs is not `correct`, so a byte-identity check of a change is

    python scripts/bench.py --parent ../parent --change . \
        --workloads verify picard compensated kernels --seeds 1 2 \
        --seconds 1 --trace 0 --out /tmp/identity.json

With `--tests NODEID ...` the pairs run the tier-1 tests instead:
`pytest -q -p no:cacheprovider --durations=0` on the given node ids, with
`src/` of the side on PYTHONPATH, once per side for each of `--pairs`
pairs, the sides alternating.  Each run records the suite wall time
(`wall_s`) and each test's call time (`call_s:<node id>`); a run is
`correct` when pytest exits 0.

    python scripts/bench.py --parent ../parent --change . --pairs 3 \
        --tests tests/test_acceptance.py::test_criterion_01_box_noise_stable_law \
        --out BENCH_14.json
"""

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
RUN_TIMEOUT_S = 1800  # a kernels run of the unmemoized parent takes about 60 s


def source_digest(root):
    """sha256 over the package sources, naming exactly the code that ran."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "levyfield").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_once(root, workload, seed, seconds, trace):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    row = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "exit_code": done.returncode}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        row["error"] = done.stderr.strip().splitlines()[-1:] or ["no result line"]
        return row
    detail = json.loads(lines[-2])["detail"]
    result = json.loads(lines[-1])
    row.update({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "digest_round0": detail.get("digest_round0"),
        "rounds": detail.get("rounds"),
        "failed_checks": detail.get("failed_checks", {}),
        "environment": detail.get("environment"),
    })
    return row


DURATION = re.compile(r"^([0-9.]+)s call\s+(\S+)$")


def run_tests(root, node_ids):
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--durations=0", *node_ids]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    wall = time.perf_counter() - start
    metrics = {"wall_s": wall}
    for line in done.stdout.splitlines():
        match = DURATION.match(line.strip())
        if match:
            metrics[f"call_s:{match.group(2)}"] = float(match.group(1))
    return {"tests": list(node_ids), "exit_code": done.returncode, "correct": done.returncode == 0,
            "metrics": metrics, "summary_line": (done.stdout.strip().splitlines() or [""])[-1]}


def group_key(row):
    if "tests" in row:
        return "pytest/" + " ".join(row["tests"])
    return f"{row['workload']}/trace{row['trace']}/{row['seconds']:g}s"


def quartiles(values):
    if len(values) < 2:
        return list(values) * 3
    return statistics.quantiles(values, n=4)


def summarize(runs):
    groups = {}
    for row in runs:
        groups.setdefault(group_key(row), []).append(row)
    summary = {}
    for key, all_rows in sorted(groups.items()):
        rows = [row for row in all_rows if "metrics" in row]
        by_pair = {}
        for row in rows:
            by_pair.setdefault(row["pair"], {})[row["side"]] = row
        pairs = [p for p in by_pair.values() if len(p) == 2]
        names = sorted({name for row in rows for name in row["metrics"]})
        metrics = {}
        for name in names:
            entry = {}
            for side in SIDES:
                values = [r["metrics"][name] for r in rows if r["side"] == side and name in r["metrics"]]
                if values:
                    entry[side] = {"median": statistics.median(values), "quartiles": quartiles(values), "n": len(values)}
            both = [p for p in pairs if all(name in p[s]["metrics"] for s in SIDES)]
            entry["change_lower_pairs"] = sum(p["change"]["metrics"][name] < p["parent"]["metrics"][name] for p in both)
            entry["pairs"] = len(both)
            metrics[name] = entry
        summary[key] = {
            "pairs": len(pairs),
            "runs_without_result": len(all_rows) - len(rows),
            # test runs have no digest
            "digests_equal": None if key.startswith("pytest/") else all(
                p["parent"]["digest_round0"] == p["change"]["digest_round0"] for p in pairs),
            "all_correct": all(r["correct"] for r in rows),
            "metrics": metrics,
        }
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="root of the parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="root of the changed checkout")
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--seeds", nargs="+", type=int)
    parser.add_argument("--tests", nargs="+", metavar="NODEID", help="run these pytest node ids instead of workloads")
    parser.add_argument("--pairs", type=int, default=1, help="pairs of test runs (with --tests)")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if not args.tests and not (args.workloads and args.seeds):
        parser.error("give --workloads and --seeds, or --tests")

    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    record = json.loads(args.out.read_text()) if args.out.exists() else {"checkouts": {}, "runs": []}
    for side, root in roots.items():
        digest = source_digest(root)
        known = record["checkouts"].setdefault(side, digest)
        if known != digest:
            parser.error(f"{args.out} holds runs of another {side} source ({known[:12]})")
    pair = max((row["pair"] for row in record["runs"]), default=-1) + 1
    failures = 0
    for _ in range(args.pairs if args.tests else 0):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for position, side in enumerate(order):
            row = run_tests(roots[side], args.tests)
            row.update({"pair": pair, "side": side, "position": position})
            record["runs"].append(row)
            failures += not row["correct"]
            print(f"pair {pair} tests {side}: {row['summary_line']} wall_s={row['metrics']['wall_s']:.1f}", flush=True)
        pair += 1
        record["summary"] = summarize(record["runs"])
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for workload in [] if args.tests else args.workloads:
        for seed in args.seeds:
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            digests = {}
            for position, side in enumerate(order):
                row = run_once(roots[side], workload, seed, args.seconds, args.trace)
                row.update({"pair": pair, "side": side, "position": position})
                record["runs"].append(row)
                digests[side] = row.get("digest_round0")
                failures += row.get("correct") is not True
                shown = {k: row.get("metrics", {}).get(k) for k in ("wall_s", "op_ms.p50", "peak_rss_mb")}
                print(f"pair {pair} {workload} seed={seed} {side}: correct={row.get('correct')} {shown}", flush=True)
            same = digests["parent"] is not None and digests["parent"] == digests["change"]
            failures += not same
            print(f"pair {pair} {workload} seed={seed}: digest_round0 {'equal' if same else 'DIFFERS'}", flush=True)
            pair += 1
            record["summary"] = summarize(record["runs"])
            args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
