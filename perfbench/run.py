"""levyfield benchmark: one seeded workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  The workload repeats rounds of fixed work until the next round
would end after `--seconds`.  With `--trace 0` the last stdout line holds
the end-to-end metrics; with `--trace 1` the run alternates untraced and
traced rounds on the same inputs and reports the per-layer metrics.  The
line before it is a JSON detail record (quartiles, sample counts, failed
check names, digests, environment).  See perfbench/README.md.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

# at most two BLAS threads, set before numpy loads
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ.setdefault(_var, "2")

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 3  # fresh processes that time set-up, besides this one
WORKLOAD_NAMES = ("verify", "picard", "compensated", "kernels")


class Checks:
    """Correctness checks, operation latencies and output digests of a run."""

    def __init__(self):
        self.attempted = 0
        self.failures = Counter()
        self.op_ms = []
        self._hash = hashlib.sha256()

    def start_round(self):
        self.op_ms = []
        self._hash = hashlib.sha256()

    def round_digest(self):
        return self._hash.hexdigest()

    def check(self, name, ok):
        ok = bool(ok)
        self.attempted += 1
        if not ok:
            self.failures[name] += 1
        return ok

    def op(self, name, fn, *args, timed=True, **kwargs):
        """Call fn; time it as one operation; an exception is a failed check."""
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # any exception from the program is a failure
            self.check(f"{name}: {type(exc).__name__}: {exc}", False)
            return None
        if timed:
            self.op_ms.append((time.perf_counter() - start) * 1e3)
        return result

    def digest(self, data):
        if not isinstance(data, bytes):
            data = np.ascontiguousarray(data).tobytes()
        self._hash.update(data)


def quartiles(values):
    values = list(values)
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def environment():
    import scipy

    import levyfield

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "levyfield": levyfield.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "fresh_process": True,
    }


def import_workloads():
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import levyfield

    if SRC.resolve() not in Path(levyfield.__file__).resolve().parents:
        raise ImportError(f"levyfield was imported from {levyfield.__file__}, not from {SRC}")
    import workloads

    return workloads


def setup_probe(args):
    """Time import and set-up of the workload in fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                "--seed", str(args.seed), "--setup-probe"]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def run_rounds(seconds, one_round, min_rounds=1):
    """Repeat rounds until the next one would end after `seconds`."""
    times = []
    start = time.perf_counter()
    r = 0
    while True:
        times.append(one_round(r))
        r += 1
        if r >= min_rounds and time.perf_counter() - start + statistics.median(times) > seconds:
            return times


def play_round(wl, ck, r):
    """Run round r and return its wall time; a crash outside any op fails it."""
    ck.start_round()
    start = time.perf_counter()
    try:
        wl.run_round(r, ck)
    except Exception as exc:  # any exception from the program is a failure
        ck.check(f"round: {type(exc).__name__}: {exc}", False)
    return time.perf_counter() - start


def p90(values):
    return statistics.quantiles(values, n=10)[-1] if len(values) >= 2 else (values or [0.0])[0]


def run_untraced(wl, ck, args):
    ops = []
    digests = []

    def one_round(r):
        elapsed = play_round(wl, ck, r)
        ops.extend(ck.op_ms)
        digests.append(ck.round_digest())
        return elapsed

    # two rounds at least, so that a slow first round never stands alone
    times = run_rounds(args.seconds, one_round, min_rounds=2)
    return times, ops, digests


def run_traced(wl, ck, args):
    """After a warm-up round, untraced and traced rounds alternate on the same inputs."""
    import tracing

    tracer = tracing.Tracer(callers=[sys.modules[type(wl).__module__]])
    per_round = []
    ratios = []
    ops = []
    digests = []

    def timed_round(r, traced):
        if traced:
            tracer.install()
            wl.set_counter(tracer.add)
            tracer.counts.clear()
            lo = tracer.mark()
            cpu0 = resource.getrusage(resource.RUSAGE_SELF)
        elapsed = play_round(wl, ck, r)
        if traced:
            cpu1 = resource.getrusage(resource.RUSAGE_SELF)
            tracer.uninstall()
            wl.set_counter(None)
            cpu = (cpu1.ru_utime - cpu0.ru_utime) + (cpu1.ru_stime - cpu0.ru_stime)
            per_round.append(tracing.round_metrics(tracer.aggregate(lo, tracer.mark()), dict(tracer.counts), cpu))
        else:
            ops.extend(ck.op_ms)
        return elapsed, ck.round_digest()

    def one_pair(r):
        order = (False, True) if r % 2 == 0 else (True, False)
        result = {traced: timed_round(r + 1, traced) for traced in order}
        ck.check("trace.digest_equal", result[True][1] == result[False][1])
        ratios.append(result[True][0] / result[False][0])
        digests.append(result[False][1])
        return result[True][0] + result[False][0]

    # round 0 warms lazy imports, allocations and files, so that neither
    # side of the first pair pays for them
    digests.append(timed_round(0, False)[1])
    ops.clear()
    run_rounds(args.seconds, one_pair)
    metrics = tracing.combine(per_round)
    metrics["trace.overhead_frac"] = (statistics.median(ratios) - 1.0, "ratio")
    metrics["op_ms.p90"] = (p90(ops), "ms")
    metrics["solver.sigma_init_ms"] = (wl.sigma_init_ms, "ms")
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"trace-{args.workload}-seed{args.seed}.npz")
    detail = {"traced_rounds": len(per_round), "overhead_ratios": ratios, "absent": tracer.absent,
              "untraced_ops": len(ops)}
    return metrics, digests, detail


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--perturb", action="store_true", help="corrupt results; every workload must fail")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    try:
        workloads = import_workloads()
    except ImportError as exc:
        print(f"error: cannot import the levyfield sources under {SRC}: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    out_dir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    out_dir.mkdir()
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, out_dir, perturb=args.perturb)
        setup_s = time.perf_counter() - T0
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        ck = Checks()
        detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
        if args.trace:
            metrics, digests, extra = run_traced(wl, ck, args)
            detail.update(extra)
        else:
            setup_samples = [setup_s] + ([] if args.perturb else setup_probe(args))
            times, ops, digests = run_untraced(wl, ck, args)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "setup_s": (statistics.median(setup_samples), "s"),
                "wall_s": (statistics.median(times), "s"),
                "op_ms.p50": (statistics.median(ops) if ops else 0.0, "ms"),
                "peak_rss_mb": (peak_mb, "MB"),
            }
            detail.update({
                "setup_s": {"samples": setup_samples, "quartiles": quartiles(setup_samples)},
                "wall_s": {"samples": times, "quartiles": quartiles(times)},
                "op_ms": {"n": len(ops), "quartiles": quartiles(ops),
                          "p90": p90(ops)},
            })
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    detail.update({
        "rounds": len(digests),
        "digest_round0": digests[0] if digests else None,
        "checks": {"attempted": ck.attempted, "failed": sum(ck.failures.values())},
        "failed_checks": dict(ck.failures),
        "environment": environment(),
    })
    print(json.dumps({"detail": detail}, sort_keys=True))
    failed = sum(ck.failures.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ck.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
