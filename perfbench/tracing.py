"""Span tracer for the traced benchmark run.

The tracer wraps public `levyfield` functions from outside the package: each
wrapper replaces the function at every `levyfield` module attribute (and
module-level dict entry, such as `verify.SUITES`) that binds it, plus
`scipy.integrate.quad`.  Nothing under `src/` is edited.  The benchmark's own
modules are patched the same way, so its calls are traced too.  Every call
records one span (name, start, end, parent) in flat in-memory arrays; counts are
recorded at the same boundaries.  A traced name that no longer exists in the
package is listed as absent and its metrics read zero.
"""

from __future__ import annotations

import importlib
import inspect
import math
import statistics
import sys
import threading
import time
from array import array
from collections import defaultdict

import numpy as np

DENSE_JUMPS_PER_REPLICATE = 1000.0  # farms above this draw cost dominates


def _bind(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _kind(spec):
    return getattr(getattr(spec, "kind", None), "value", "unknown")


# Each hook maps a traced function to the span name of one call and, after
# the call, to the counts it adds.  Farm jump counts are computed from the
# arguments (expected jumps), not reported by the program.


def _farm_jumps(a):
    """Expected jumps per replicate of a farm call, from its bound arguments."""
    return a["volume"] * a["cutoff"] ** (-a["measure"].alpha)


def _farm_name(fn, args, kwargs):
    a = _bind(fn, args, kwargs)
    if _farm_jumps(a) < DENSE_JUMPS_PER_REPLICATE:
        return "noise.farm_sparse"
    return "noise.farm_w1" if a.get("workers", 1) <= 1 else "noise.farm_dense"


def _farm_counts(fn, args, kwargs, result, name, add):
    a = _bind(fn, args, kwargs)
    jumps = a["n"] * _farm_jumps(a)
    add(name + ".jumps", jumps)
    add(name + ".replicates", a["n"])
    add("noise.farm.jumps", jumps)


def _flags_counts(fn, args, kwargs, result, name, add):
    a = _bind(fn, args, kwargs)
    add("noise.farm.jumps", a["n"] * _farm_jumps(a))


def _weighted_counts(fn, args, kwargs, result, name, add):
    a = _bind(fn, args, kwargs)
    jumps = a["n"] * a["config"].expected_jump_count
    add(name + ".jumps", jumps)
    add("noise.farm.jumps", jumps)


def _size_counts(key):
    def counts(fn, args, kwargs, result, name, add):
        add(key, np.size(result))

    return counts


def _eval_kernel_counts(fn, args, kwargs, result, name, add):
    add(name + ".points", np.size(result))


def _ecf_counts(fn, args, kwargs, result, name, add):
    a = _bind(fn, args, kwargs)
    add("verify.ecf.sample_points", np.size(a["samples"]) * np.size(a["u_grid"]))


def _solve_counts(fn, args, kwargs, result, name, add):
    diag = getattr(result, "diagnostics", None)
    if diag is not None:
        add("solver.iterations", diag.iterations)
    if hasattr(result, "grid_values"):
        add("solver.eval_points", np.size(result.jump_values) + np.size(result.grid_values))


def _by_kind(prefix):
    return lambda fn, args, kwargs: f"{prefix}.{_kind(args[0] if args else kwargs.get('spec'))}"


_CLI_COMMANDS = ("noise", "linear", "solve", "kernels", "verify")


def _cli_name(fn, args, kwargs):
    argv = args[0] if args else kwargs.get("argv") or []
    command = next((a for a in argv if a in _CLI_COMMANDS), "other")
    return f"cli.main.{command}"


def _suite_name(suite):
    return lambda fn, args, kwargs: f"verify.suite.{suite}"


# (module, attribute, span namer or None for "<module>.<attribute>", counts)
HOOKS = [
    ("levyfield.stable", "sample_stable", None, _size_counts("stable.sample_stable.draws")),
    ("levyfield.stable", "stable_cf", None, None),
    ("levyfield.noise", "simulate_jumps", None, None),
    ("levyfield.noise", "noise_of_box", None, None),
    ("levyfield.noise", "truncate", None, None),
    ("levyfield.noise", "first_large_jump_time", None, None),
    ("levyfield.noise", "compensator_band", None, None),
    ("levyfield.noise", "sample_noise_values", _farm_name, _farm_counts),
    ("levyfield.noise", "sample_large_jump_flags", None, _flags_counts),
    ("levyfield.noise", "sample_weighted_sums", None, _weighted_counts),
    ("levyfield.noise", "save_jumps_csv", None, None),
    ("levyfield.kernels", "eval_kernel", _by_kind("kernels.eval_kernel"), _eval_kernel_counts),
    ("levyfield.kernels", "i_alpha", _by_kind("kernels.i_alpha"), None),
    ("levyfield.kernels", "j_p", _by_kind("kernels.j_p"), None),
    ("levyfield.kernels", "time_shift_modulus", lambda *a: "kernels.shift_modulus", None),
    ("levyfield.kernels", "space_shift_modulus", lambda *a: "kernels.shift_modulus", None),
    ("scipy.integrate", "quad", lambda *a: "kernels.quad", None),
    ("levyfield.integrate", "integrate_field", None, None),
    ("levyfield.integrate", "field_quadrature", None, None),
    ("levyfield.solver", "solve_linear", None, _solve_counts),
    ("levyfield.solver", "picard_solve", None, _solve_counts),
    ("levyfield.solver", "picard_solve_drifted", None, _solve_counts),
    ("levyfield.solver", "glue", None, None),
    ("levyfield.verify", "ecf", None, _ecf_counts),
    ("levyfield.verify", "ecf_sup_distance", None, None),
    ("levyfield.verify", "run_suite", None, None),
    ("levyfield.verify", "ecf_suite", _suite_name("ecf"), None),
    ("levyfield.verify", "tail_bound_suite", _suite_name("tail"), None),
    ("levyfield.verify", "moment_scaling_suite", _suite_name("moment"), None),
    ("levyfield.verify", "survival_suite", _suite_name("survival"), None),
    ("levyfield.verify", "local_property_suite", _suite_name("local"), None),
    ("levyfield.config", "load_config", None, None),
    ("levyfield.config", "parse_config", None, None),
    ("levyfield.cli", "main", _cli_name, None),
]

MODULES = ("stable", "noise", "kernels", "integrate", "solver", "verify", "config", "cli")


class Tracer:
    """Records spans of wrapped calls; install() and uninstall() toggle it.

    `callers` are further modules (the benchmark's own) whose by-name
    imports of traced functions are wrapped too.
    """

    def __init__(self, callers=()):
        self.callers = list(callers)
        self._lock = threading.Lock()
        self._local = threading.local()
        self.name_ids = {}
        self.names = []
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_child = array("q")
        self.counts = defaultdict(float)
        self.absent = []
        self._patches = []
        self._wrappers = None

    # -- recording --------------------------------------------------------

    def add(self, key, n=1):
        self.counts[key] += n

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        nid = self.name_ids.get(name)
        stack = self._stack()
        with self._lock:
            if nid is None:
                nid = self.name_ids[name] = len(self.names)
                self.names.append(name)
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_end.append(0)
            self.span_child.append(0)
            self.span_start.append(time.perf_counter_ns())
        stack.append(idx)
        return idx

    def _close(self, idx):
        end = time.perf_counter_ns()
        self._stack().pop()
        self.span_end[idx] = end
        parent = self.span_parent[idx]
        if parent >= 0:
            self.span_child[parent] += end - self.span_start[idx]

    def _wrap(self, fn, default_name, namer, counts):
        tracer = self

        def wrapper(*args, **kwargs):
            name = namer(fn, args, kwargs) if namer else default_name
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counts is not None:
                counts(fn, args, kwargs, result, name, tracer.add)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ---------------------------------------------------------

    def _build_wrappers(self):
        wrappers = []
        for mod_name, attr, namer, counts in HOOKS:
            try:
                mod = importlib.import_module(mod_name)
            except ImportError:
                mod = None
            fn = getattr(mod, attr, None)
            if fn is None or not callable(fn):
                self.absent.append(f"{mod_name}.{attr}")
                continue
            default = f"{mod_name.rsplit('.', 1)[-1]}.{attr}"
            wrappers.append((mod_name, fn, self._wrap(fn, default, namer, counts)))
        return wrappers

    def install(self):
        if self._wrappers is None:
            self._wrappers = self._build_wrappers()
        by_fn = {id(fn): w for _, fn, w in self._wrappers}
        targets = [m for n, m in sys.modules.items() if n == "levyfield" or n.startswith("levyfield.")]
        targets += list({importlib.import_module(n) for n, _, _ in self._wrappers if not n.startswith("levyfield")})
        targets += self.callers
        for mod in targets:
            for key, value in list(vars(mod).items()):
                if id(value) in by_fn:
                    self._patches.append((mod.__dict__, key, value))
                    setattr(mod, key, by_fn[id(value)])
                elif type(value) is dict:
                    for dkey, dvalue in list(value.items()):
                        if id(dvalue) in by_fn:
                            self._patches.append((value, dkey, dvalue))
                            value[dkey] = by_fn[id(dvalue)]

    def uninstall(self):
        for container, key, original in reversed(self._patches):
            container[key] = original
        self._patches.clear()

    # -- aggregation ------------------------------------------------------

    def mark(self):
        return len(self.span_start)

    def aggregate(self, lo, hi):
        """Per span name: calls, inclusive ns and self ns over spans [lo, hi)."""
        agg = defaultdict(lambda: [0, 0, 0])
        for i in range(lo, hi):
            dur = self.span_end[i] - self.span_start[i]
            entry = agg[self.names[self.span_name[i]]]
            entry[0] += 1
            entry[1] += dur
            entry[2] += dur - self.span_child[i]
        return dict(agg)

    def save(self, path):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=np.int64),
            end=np.frombuffer(self.span_end, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
        )


def _sum(agg, prefix, field):
    return sum(v[field] for k, v in agg.items() if k == prefix or k.startswith(prefix + "."))


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def round_metrics(agg, counts, cpu_s):
    """Per-layer metrics of one traced round: (name -> (value, unit, kind)).

    kind "count" is exact per seed and taken from the first traced round;
    kind "time" is a median over traced rounds.
    """
    ns = lambda name: agg.get(name, (0, 0, 0))[1]
    self_ns = lambda name: agg.get(name, (0, 0, 0))[2]
    calls = lambda name: agg.get(name, (0, 0, 0))[0]
    ms = lambda v: v / 1e6
    c = lambda key: counts.get(key, 0.0)
    out = {
        "stable.sample_stable.ns_per_draw": (_ratio(ns("stable.sample_stable"), c("stable.sample_stable.draws")), "ns", "time"),
        "noise.farm_dense.ns_per_jump": (_ratio(ns("noise.farm_dense"), c("noise.farm_dense.jumps")), "ns", "time"),
        "noise.farm_sparse.ns_per_replicate": (
            _ratio(ns("noise.farm_sparse"), c("noise.farm_sparse.replicates")), "ns", "time"),
        "noise.farm_w1.ns_per_jump": (_ratio(ns("noise.farm_w1"), c("noise.farm_w1.jumps")), "ns", "time"),
        "noise.farm.jumps": (c("noise.farm.jumps"), "count", "count"),
        "noise.sample_weighted_sums.ns_per_jump": (
            _ratio(ns("noise.sample_weighted_sums"), c("noise.sample_weighted_sums.jumps")), "ns", "time"),
        "noise.sample_large_jump_flags.ms": (ms(ns("noise.sample_large_jump_flags")), "ms", "time"),
        "noise.noise_of_box.us_per_call": (_ratio(ns("noise.noise_of_box"), calls("noise.noise_of_box"), 1e-3), "us", "time"),
        "noise.save_jumps_csv.ms": (ms(ns("noise.save_jumps_csv")), "ms", "time"),
        "noise.simulate_jumps.us_per_call": (
            _ratio(ns("noise.simulate_jumps"), calls("noise.simulate_jumps"), 1e-3), "us", "time"),
        "noise.simulate_jumps.calls": (calls("noise.simulate_jumps"), "count", "count"),
    }
    for fam in ("wave_1d", "heat_dirichlet_interval", "fractional_heat"):
        name = f"kernels.eval_kernel.{fam}"
        out[f"{name}.calls"] = (calls(name), "count", "count")
        out[f"{name}.points"] = (c(f"{name}.points"), "count", "count")
        out[f"{name}.ns_per_point"] = (_ratio(ns(name), c(f"{name}.points")), "ns", "time")
    for fn, fam in (
        ("i_alpha", "heat_dirichlet_interval"),
        ("i_alpha", "wave_1d"),
        ("i_alpha", "fractional_heat"),
        ("j_p", "heat_dirichlet_interval"),
        ("j_p", "fractional_heat"),
    ):
        out[f"kernels.{fn}.{fam}.ms"] = (ms(ns(f"kernels.{fn}.{fam}")), "ms", "time")
    out["kernels.shift_modulus.ms"] = (ms(ns("kernels.shift_modulus")), "ms", "time")
    out["kernels.quad.calls"] = (calls("kernels.quad"), "count", "count")
    out["integrate.integrate_field.ms"] = (ms(ns("integrate.integrate_field")), "ms", "time")
    out["integrate.integrate_field.calls"] = (calls("integrate.integrate_field"), "count", "count")
    out["integrate.field_quadrature.ms"] = (ms(ns("integrate.field_quadrature")), "ms", "time")
    out["integrate.field_evals"] = (c("integrate.field_evals"), "count", "count")
    for fn in ("picard_solve", "solve_linear", "glue", "picard_solve_drifted"):
        out[f"solver.{fn}.self_ms"] = (ms(self_ns(f"solver.{fn}")), "ms", "time")
    out["solver.sigma_evals"] = (c("solver.sigma_evals"), "count", "count")
    out["solver.iterations"] = (c("solver.iterations"), "count", "count")
    out["solver.eval_points"] = (c("solver.eval_points"), "count", "count")
    out["verify.ecf.ns_per_sample_point"] = (_ratio(ns("verify.ecf"), c("verify.ecf.sample_points")), "ns", "time")
    for suite in ("ecf", "tail", "moment", "survival", "local"):
        out[f"verify.suite.{suite}.ms"] = (ms(ns(f"verify.suite.{suite}")), "ms", "time")
    out["config.load_config.ms"] = (ms(ns("config.load_config")), "ms", "time")
    for command in ("noise", "verify", "kernels"):
        out[f"cli.main.{command}.self_ms"] = (ms(self_ns(f"cli.main.{command}")), "ms", "time")
    for module in MODULES:
        out[f"{module}.self_ms"] = (ms(_sum(agg, module, 2)), "ms", "time")
    out["trace.spans"] = (sum(v[0] for v in agg.values()), "count", "count")
    out["proc.cpu_s"] = (cpu_s, "s", "time")
    return out


def combine(per_round):
    """Counts from the first traced round, times as the median over rounds."""
    first = per_round[0]
    out = {}
    for name, (value, unit, kind) in first.items():
        if kind == "time":
            value = statistics.median(r[name][0] for r in per_round)
        out[name] = (float(value) if math.isfinite(value) else 0.0, unit)
    return out
