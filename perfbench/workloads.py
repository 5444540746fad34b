"""The four benchmark workloads.

Each workload builds its configs in `__init__` (timed as set-up) and does a
fixed amount of work per `run_round(r, ck)`.  Round r draws its inputs from
`numpy.random.default_rng([seed, r])`, so a seed fixes every input.  Every
operation goes through `ck.op`, which times it and turns an exception into a
failed check; every correctness bound is a `ck.check`.  The numerical outputs
of a round are fed to `ck.digest`.

Only public API is called; the bounds come from the acceptance criteria and
`tests/test_solver.py`.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import time

import numpy as np

from levyfield import cli
from levyfield.boxes import Box
from levyfield.config import RunConfig
from levyfield.integrate import PredictableField, integrate_field
from levyfield.kernels import (
    KernelKind,
    KernelSpec,
    eval_kernel,
    i_alpha,
    j_p,
    space_shift_modulus,
    time_shift_modulus,
)
from levyfield.noise import (
    NoiseConfig,
    compensator_band,
    first_large_jump_time,
    sample_noise_values,
    sample_weighted_sums,
    simulate_jumps,
    truncate,
)
from levyfield.solver import (
    LipschitzSigma,
    SolverConfig,
    glue,
    picard_solve,
    picard_solve_drifted,
    solve_linear,
)
from levyfield.stable import LevyMeasure, StableParams, sigma_alpha_pow
from levyfield.verify import ecf_sup_distance, run_suite

UNIT = Box.interval(0.0, 1.0)
WAVE_UNIT = KernelSpec(KernelKind.WAVE_1D, domain=UNIT)
DIRICHLET = KernelSpec(KernelKind.HEAT_DIRICHLET_INTERVAL)


class Affine:
    """Coefficient u -> a*u + b; works on scalars and arrays."""

    def __init__(self, a, b):
        self.a, self.b = a, b

    def __call__(self, u):
        return self.a * u + self.b


class CountingAffine(Affine):
    """Affine coefficient that counts its evaluations, one per element."""

    add = None

    def __call__(self, u):
        if self.add is not None:
            self.add("solver.sigma_evals", np.size(u))
        return self.a * u + self.b


def coefficients(kind=Affine):
    """Identity, affine(1,1) and affine(0.2,1) as the solver takes them."""
    return {
        name: LipschitzSigma(kind(a, b), abs(a), name)
        for name, a, b in (("identity", 1.0, 0.0), ("affine(1,1)", 1.0, 1.0), ("affine(0.2,1)", 0.2, 1.0))
    }


class Workload:
    uses_coefficients = False

    def __init__(self, seed, out_dir, perturb=False):
        self.seed = seed
        self.out_dir = out_dir
        self.perturb = perturb
        self.add = None  # counter hook while a traced round runs
        self.sigma_init_ms = 0.0
        if self.uses_coefficients:
            start = time.perf_counter()
            self.plain_sigmas = coefficients()
            self.sigma_init_ms = (time.perf_counter() - start) * 1e3
        self.counting_sigmas = None

    def rng(self, r, *stream):
        return np.random.default_rng([self.seed, r, *stream])

    def set_counter(self, add):
        """Route counts to `add` (None: stop counting) for traced rounds."""
        self.add = add
        if add is not None and self.uses_coefficients and self.counting_sigmas is None:
            self.counting_sigmas = coefficients(CountingAffine)
        for sigma in (self.counting_sigmas or {}).values():
            sigma.fn.add = add

    @property
    def sigmas(self):
        return self.plain_sigmas if self.add is None else self.counting_sigmas


# ---------------------------------------------------------------------------
# verify: the statistical harness as users run it
# ---------------------------------------------------------------------------

SUITE_CLI = ("ecf", "local", "moment", "survival")
NOISE_REPLICATES = 1000
CRIT02_REPLICATES = 50_000
DENSE_W1_REPLICATES = 1264  # two farm chunks at alpha=1.5, cutoff 1e-3


def _canonical_report(path):
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload.pop("wall_time_s", None)
    return json.dumps(payload, sort_keys=True).encode()


class Verify(Workload):
    """In-process `levyfield` CLI calls plus two library farms.

    `levyfield verify all` and `verify tail` raise TypeError (the tail
    report holds numpy booleans that json cannot write), so the tail suite
    runs through `verify.run_suite` with the arguments the CLI passes, and
    the other four suites run one CLI call each.

    The timed operation is `verify ecf` at alpha = 1.5, the heaviest call
    (about 3 s, a dense farm and the ecf).  The other calls cost from 4 ms
    to 1.5 s, so a median over all of them falls between two different
    calls; the cheap ones are pure-Python loops whose speed on a shared
    host drifts more than that of the rest of the round.  They count in
    `wall_s`.
    """

    def __init__(self, seed, out_dir, perturb=False):
        super().__init__(seed, out_dir, perturb)
        self.cfg15 = out_dir / "alpha15.cfg"
        self.cfg15.write_text("[noise]\nalpha = 1.5\n[solver]\np = 1.9\n[verify]\nreplicates = 10000\n")
        self.cfg_control = out_dir / "control.cfg"
        self.cfg_control.write_text("[verify]\nreplicates = 20000\n")
        # criterion 02: wave solution at (t, x) = (2, 0) as a cone-weighted sum
        measure = LevyMeasure.from_beta(0.5, 0.0)
        self.window = NoiseConfig(measure, 2.0, Box.interval(-2.0, 2.0), cutoff=1e-3)
        i_val = i_alpha(KernelSpec(KernelKind.WAVE_1D), 2.0, 0.5)
        self.crit02_law = StableParams(0.5, (sigma_alpha_pow(0.5) * i_val) ** 2.0, 0.0, 0.0)
        self.dense = LevyMeasure.from_beta(1.5, 0.0)

    @staticmethod
    def cone_weight(times, locs):
        return 0.5 * (np.abs(locs[:, 0]) < (2.0 - times)).astype(float)

    def run_cli(self, ck, label, argv, expect, timed=False):
        with contextlib.redirect_stdout(io.StringIO()):
            code = ck.op(f"cli.{label}", cli.main, argv, timed=timed)
        ck.check(f"cli.{label}.exit={expect}", code == expect)
        return code == expect

    def run_round(self, r, ck):
        for label, extra, alpha, replicates in (
            ("a0.5", [], 0.5, None),
            ("a1.5", ["--config", str(self.cfg15)], 1.5, 10_000),
        ):
            out = self.out_dir / f"verify-{label}"
            for suite in SUITE_CLI:
                argv = extra + ["--out", str(out), "--threads", "2", "verify", suite]
                # the one timed operation; see the class docstring
                timed = (suite, alpha) == ("ecf", 1.5)
                if self.run_cli(ck, f"verify.{suite}.{label}", argv, 0, timed=timed):
                    ck.digest(_canonical_report(out / f"report_{suite}.json"))
            kwargs = {"alpha": alpha, "beta": 0.0, "seed": 1, "workers": 2}
            if replicates:
                kwargs["replicates"] = replicates
            report = ck.op(f"verify.tail.{label}", run_suite, "tail", timed=False, **kwargs)
            if ck.check(f"verify.tail.{label}.passed", report is not None and report.passed):
                ck.digest(json.dumps(report.canonical_dict(), sort_keys=True, default=float).encode())

        out = self.out_dir / "verify-control"
        argv = ["--config", str(self.cfg_control), "--out", str(out), "--threads", "2",
                "verify", "ecf", "--negative-control"]
        if self.run_cli(ck, "verify.ecf.negative-control", argv, 1):
            ck.digest(_canonical_report(out / "report_ecf.json"))

        out = self.out_dir / "noise"
        argv = ["--seed", str(1000 * self.seed + r), "--replicates", str(NOISE_REPLICATES),
                "--out", str(out), "noise"]
        if self.run_cli(ck, "noise", argv, 0):
            self.check_noise_table(ck, out / "noise_values.csv")

        values = ck.op("crit02.sample_weighted_sums", sample_weighted_sums,
                       self.window, self.cone_weight, CRIT02_REPLICATES, self.rng(r, 2), timed=False)
        if values is not None:
            if self.perturb:
                values = 1.5 * values
            dist = ecf_sup_distance(values, self.crit02_law)
            ck.check("crit02.ecf_sup_distance<0.03", dist < 0.03)
            ck.digest(values)

        w1 = ck.op("farm.workers1", sample_noise_values, self.dense, 1.0, 1e-3,
                   DENSE_W1_REPLICATES, self.rng(r, 3), workers=1, timed=False)
        w2 = ck.op("farm.workers2", sample_noise_values, self.dense, 1.0, 1e-3,
                   DENSE_W1_REPLICATES, self.rng(r, 3), workers=2, timed=False)
        if w1 is not None and w2 is not None:
            if self.perturb:
                w1[0] = np.nextafter(w1[0], math.inf)
            ck.check("farm.workers1==workers2", np.array_equal(w1, w2))
            ck.digest(w2)

    def check_noise_table(self, ck, path):
        text = path.read_text(encoding="utf-8")
        rows = list(csv.reader(line for line in text.splitlines() if not line.startswith("#")))[1:]
        table = np.array(rows, dtype=float)
        ok_rows = ck.check("noise.rows", table.shape == (NOISE_REPLICATES, 5))
        if ok_rows:
            expected = RunConfig().noise_config().expected_jump_count
            mean_count = float(table[:, 1].mean())
            ck.check("noise.mean_count", abs(mean_count - expected) <= 6.0 * math.sqrt(expected / NOISE_REPLICATES))
            full, left, right = table[:, 2], table[:, 3], table[:, 4]
            if self.perturb:
                full = full + 1e-6
            ck.check("noise.additivity", np.all(np.abs(full - (left + right)) <= 1e-9 * (1.0 + np.abs(full))))
        ck.digest(text.encode())


# ---------------------------------------------------------------------------
# picard: truncated alpha < 1 solves, no drift operator
# ---------------------------------------------------------------------------

PICARD_REALIZATIONS = 20


class Picard(Workload):
    """Per realization: linear solve, four Picard solves, glue over [1, 4].

    The Dirichlet kernel runs on every realization and the wave kernel on
    every second one, so the median solver call falls inside the Dirichlet
    cluster instead of on the edge between two clusters.
    """

    uses_coefficients = True

    def __init__(self, seed, out_dir, perturb=False):
        super().__init__(seed, out_dir, perturb)
        self.noise = NoiseConfig(LevyMeasure.from_beta(0.5, 0.0), 1.0, UNIT, cutoff=1e-3)
        self.configs = {}
        for label, kernel in (("dirichlet", DIRICHLET), ("wave", WAVE_UNIT)):
            cfg1 = SolverConfig(kernel=kernel, noise=self.noise, truncation=1.0, p=0.75, n_t=17, n_x=17)
            self.configs[label] = (kernel, cfg1, dataclasses.replace(cfg1, truncation=4.0))

    def run_round(self, r, ck):
        rng = self.rng(r)
        for i in range(PICARD_REALIZATIONS):
            jumps = simulate_jumps(self.noise, rng)
            quiet1 = first_large_jump_time(jumps, UNIT, 1.0) > 1.0
            quiet4 = first_large_jump_time(jumps, UNIT, 4.0) > 1.0
            for label in ("dirichlet", "wave") if i % 2 == 0 else ("dirichlet",):
                self.solve_realization(ck, label, jumps, quiet1, quiet4)

    def solve_realization(self, ck, label, jumps, quiet1, quiet4):
        kernel, cfg1, cfg4 = self.configs[label]
        sigmas = self.sigmas
        lin = ck.op("solve_linear", solve_linear, kernel, truncate(jumps, 1.0), cfg1)
        if lin is None:
            return
        ck.digest(lin.grid_values)
        affine_zero = None
        for name in ("identity", "affine(1,1)"):
            sigma = sigmas[name]
            from_zero = ck.op("picard_solve", picard_solve, cfg1, sigma, jumps)
            from_lin = ck.op("picard_solve", picard_solve, cfg1, sigma, jumps, start=lin.eval_vector())
            if from_zero is None or from_lin is None:
                continue
            if self.perturb:
                from_lin.grid_values[-1, -1] += 1e-6
            for sol in (from_zero, from_lin):
                d = sol.diagnostics
                ck.check(f"{label}.{name}.converged", d.converged and d.residual < 1e-8)
            ck.check(f"{label}.{name}.cross_start<1e-7", from_zero.max_grid_abs_diff(from_lin) < 1e-7)
            ck.digest(from_zero.grid_values)
            if name == "affine(1,1)":
                affine_zero = from_zero
        result = ck.op("glue", glue, cfg1, sigmas["affine(1,1)"], jumps, [1.0, 4.0])
        if result is None or affine_zero is None:
            return
        if not quiet4:
            ck.check(f"{label}.glue.unresolved", not result.resolved and result.field is None)
            return
        level4 = ck.op("picard_solve", picard_solve, cfg4, sigmas["affine(1,1)"], jumps)
        if level4 is None:
            return
        ck.check(f"{label}.level4.converged", level4.diagnostics.converged)
        ck.digest(level4.grid_values)
        direct = affine_zero if quiet1 else level4
        ck.check(f"{label}.glue.level", result.resolved and result.k_used == (1.0 if quiet1 else 4.0))
        ck.check(f"{label}.glue==direct", result.field is not None and result.field.max_grid_abs_diff(direct) == 0.0)
        if quiet1:
            ck.check(f"{label}.level1~level4<1e-8", affine_zero.max_grid_abs_diff(level4) < 1e-8)


# ---------------------------------------------------------------------------
# compensated: alpha > 1, drift operator and compensated integrals
# ---------------------------------------------------------------------------

# quiet realizations per round: two Dirichlet to one wave, so the median
# solver call lies inside the Dirichlet cluster
COMPENSATED_QUIET = {"wave": 1, "dirichlet": 2}
MAX_DRAWS = 200


class Compensated(Workload):
    """Full-noise and drifted solves on quiet realizations, plus integrals.

    Quiet realizations (no jump above the truncation level 1 in the window)
    are the ones on which criterion 08 states the full and drifted solves
    agree; other draws are skipped.
    """

    uses_coefficients = True

    def __init__(self, seed, out_dir, perturb=False):
        super().__init__(seed, out_dir, perturb)
        measure = LevyMeasure.from_beta(1.5, 1.0)
        self.cases = []
        for label, kernel, cutoff, n, sigma in (
            ("wave", WAVE_UNIT, 0.02, 9, "affine(1,1)"),
            ("dirichlet", DIRICHLET, 0.1, 5, "affine(0.2,1)"),
        ):
            noise = NoiseConfig(measure, 1.0, UNIT, cutoff=cutoff)
            cfg = SolverConfig(kernel=kernel, noise=noise, truncation=1.0, p=1.9, n_t=n, n_x=n)
            self.cases.append((label, noise, cfg, dataclasses.replace(cfg, truncation=None), sigma))

    def quiet_jumps(self, noise, rng):
        for _ in range(MAX_DRAWS):
            jumps = simulate_jumps(noise, rng)
            if first_large_jump_time(jumps, UNIT, 1.0) > 1.0:
                return jumps
        raise RuntimeError("no quiet realization drawn")

    def run_round(self, r, ck):
        rng = self.rng(r)
        sigmas = self.sigmas
        for label, noise, cfg, cfg_full, sigma in self.cases:
            for _ in range(COMPENSATED_QUIET[label]):
                jumps = ck.op("draw_quiet", self.quiet_jumps, noise, rng, timed=False)
                if jumps is None:
                    continue
                full = ck.op("picard_solve", picard_solve, cfg_full, sigmas[sigma], jumps)
                drifted = ck.op("picard_solve_drifted", picard_solve_drifted, cfg, sigmas[sigma], jumps)
                if full is not None and drifted is not None:
                    if self.perturb:
                        drifted.grid_values[-1, -1] += 1e-5
                    ck.check(f"{label}.full.converged", full.diagnostics.converged)
                    ck.check(f"{label}.drifted.converged", drifted.diagnostics.converged)
                    ck.check(f"{label}.full~drifted<1e-6", full.max_grid_abs_diff(drifted) < 1e-6)
                    ck.digest(full.grid_values)
                    ck.digest(drifted.grid_values)
                if label == "wave":
                    self.integrals(ck, noise, jumps)

    def integrals(self, ck, noise, jumps):
        """Compensated integrals over (0, 1] x (0, 1) against closed forms."""
        band = compensator_band(noise.measure, jumps.cutoff, math.inf).value
        t, x, z = jumps.times, jumps.locations[:, 0], jumps.sizes
        add = self.add

        def polynomial(s, y, hist):
            if add is not None:
                add("integrate.field_evals", 1)
            return (1.0 + s) * (1.0 + y)

        def history(s, y, hist):
            if add is not None:
                add("integrate.field_evals", 1)
            return 1.0 + hist.sum_sizes()

        # exact integral of (1+s)(1+y) over the unit square is 9/4
        expected_poly = float(((1.0 + t) * (1.0 + x)) @ z) - band * 2.25
        scale_poly = float(np.abs((1.0 + t) * (1.0 + x)) @ np.abs(z)) + abs(band) * 2.25
        # the history field is piecewise constant in s: 1 + sum of earlier sizes
        before = np.concatenate([[0.0], np.cumsum(z)[:-1]])
        expected_hist = float((1.0 + before) @ z) - band * (1.0 + float(z @ (1.0 - t)))
        scale_hist = float(np.abs(1.0 + before) @ np.abs(z)) + abs(band) * (1.0 + float(np.abs(z) @ (1.0 - t)))
        for name, rule, expected, scale in (
            ("polynomial", polynomial, expected_poly, scale_poly),
            ("history", history, expected_hist, scale_hist),
        ):
            got = ck.op(f"integrate_field.{name}", integrate_field,
                        PredictableField(rule, name), jumps, 1.0, UNIT, noise, n_nodes=8, timed=False)
            if got is None:
                continue
            if self.perturb:
                got += 1e-6 * scale
            ck.check(f"integrate.{name}=closed_form", abs(got - expected) <= 1e-10 * scale)
            ck.digest(np.array([got]))


# ---------------------------------------------------------------------------
# kernels: functional table, kernel tables, moduli, one CLI call
# ---------------------------------------------------------------------------

TABLE_POINTS = {"fractional_heat:0.7": 4, "fractional_heat:0.5": 16}
DEFAULT_TABLE_POINTS = 256


class Kernels(Workload):
    """i_alpha / j_p per family, eval_kernel tables, shift moduli, CLI.

    The timed operations are the two `j_p` calls of the fractional kernel
    at gamma = 0.7, about 7 s each and most of the round.  The other
    quadrature calls range from 1 ms to 2 s, so a median over all of them
    falls between two different calls; they count in `wall_s`.
    """

    def __init__(self, seed, out_dir, perturb=False):
        super().__init__(seed, out_dir, perturb)
        self.free = {
            "heat_free": KernelSpec(KernelKind.HEAT_FREE),
            "heat_free_2d": KernelSpec(KernelKind.HEAT_FREE, dim=2),
            "cable": KernelSpec(KernelKind.CABLE),
            "wave_1d": KernelSpec(KernelKind.WAVE_1D),
            "wave_2d": KernelSpec(KernelKind.WAVE_2D, dim=2),
        }
        self.frac = {g: KernelSpec(KernelKind.FRACTIONAL_HEAT, gamma=g) for g in (0.5, 0.7)}
        self.tables = [
            ("heat_free", self.free["heat_free"]),
            ("heat_dirichlet_interval", DIRICHLET),
            ("cable", self.free["cable"]),
            ("wave_1d", WAVE_UNIT),
            ("fractional_heat:0.5", self.frac[0.5]),
            ("fractional_heat:0.7", self.frac[0.7]),
        ]

    def run_round(self, r, ck):
        rng = self.rng(r)
        self.closed_forms(ck)
        self.bounded(ck)
        self.fractional(ck)
        self.moduli(ck, rng)
        self.kernel_tables(ck, rng)
        out = self.out_dir / "kernels"
        with contextlib.redirect_stdout(io.StringIO()):
            code = ck.op("cli.kernels", cli.main, ["--out", str(out), "kernels"], timed=False)
        if ck.check("cli.kernels.exit=0", code == 0):
            ck.digest((out / "kernel_functionals.csv").read_bytes())
            ck.digest((out / "kernel_values.csv").read_bytes())

    def closed_forms(self, ck):
        # criterion 03 constants and the wave_1d constant of criterion 02
        wave2 = i_alpha(self.free["wave_2d"], 1.0, 0.5)
        heat1 = i_alpha(self.free["heat_free"], 1.0, 0.5)
        wave1 = i_alpha(self.free["wave_1d"], 2.0, 0.5)
        if self.perturb:
            wave2 += 1e-5
        ck.check("crit03.wave_2d", abs(wave2 - 0.6684342) <= 1e-6)
        ck.check("crit03.heat_free", abs(heat1 - 1.7912242) <= 1e-6)
        ck.check("crit02.wave_1d", abs(wave1 - 2.828427) <= 1e-6)
        values = []
        for name, spec in self.free.items():
            for t in (0.5, 1.0, 2.0):
                values += [i_alpha(spec, t, 0.5), j_p(spec, t, 0.75)]
        ck.check("closed_forms.finite_positive", all(math.isfinite(v) and v > 0 for v in values))
        ck.digest(np.array([wave2, heat1, wave1] + values))

    def bounded(self, ck):
        heat = self.free["heat_free"]
        ia = ck.op("i_alpha.dirichlet", i_alpha, DIRICHLET, 1.0, 0.5, timed=False)
        ck.check("dirichlet.i_alpha<=free", ia is not None and 0.0 < ia <= i_alpha(heat, 1.0, 0.5))
        ia_wave = ck.op("i_alpha.wave_bounded", i_alpha, WAVE_UNIT, 1.0, 0.5, timed=False)
        values = [ia, ia_wave]
        for t in (0.25, 0.5, 1.0, 2.0):
            jd = ck.op("j_p.dirichlet", j_p, DIRICHLET, t, 0.75, timed=False)
            ck.check("dirichlet.j_p<=free", jd is not None and 0.0 < jd <= j_p(heat, t, 0.75) + 1e-12)
            values += [jd, ck.op("j_p.wave_bounded", j_p, WAVE_UNIT, t, 0.75, timed=False)]
        ok = all(v is not None for v in values)
        ck.check("bounded.finite_positive", ok and all(math.isfinite(v) and v > 0 for v in values))
        if ok:
            ck.digest(np.array(values))

    def slope(self, ck, label, spec, ts, p, target, timed):
        vals = [ck.op(f"j_p.{label}", j_p, spec, t, p, timed=timed) for t in ts]
        if any(v is None for v in vals):
            ck.check(f"{label}.p={p}.slope", False)
            return
        vals = np.array(vals)
        if self.perturb:
            vals[-1] *= 1.2
        ck.check(f"{label}.p={p}.finite_positive", bool(np.all(np.isfinite(vals) & (vals > 0))))
        slope = float(np.polyfit(np.log(ts), np.log(vals), 1)[0])
        ck.check(f"{label}.p={p}.slope", abs(slope - target) < 0.05)
        ck.digest(vals)

    def fractional(self, ck):
        ts = np.array([0.5, 1.0, 2.0, 4.0])
        for p in (1.5, 2.0):
            # criterion 09: slope -d(p-1)/(2 gamma) = -(p-1) at gamma = 1/2
            self.slope(ck, "fractional0.5", self.frac[0.5], ts, p, -(p - 1.0), timed=False)
        self.slope(ck, "fractional0.7", self.frac[0.7], np.array([0.25, 1.0]), 2.0, -1.0 / 1.4, timed=True)
        ia = ck.op("i_alpha.fractional0.5", i_alpha, self.frac[0.5], 1.0, 0.8, timed=False)
        ck.check("fractional0.5.i_alpha.finite_positive", ia is not None and math.isfinite(ia) and ia > 0)
        ck.digest(np.array([ia if ia is not None else math.nan]))

    def moduli(self, ck, rng):
        for label, fn in (("time", time_shift_modulus), ("space", space_shift_modulus)):
            x = float(rng.uniform(0.25, 0.75))
            vals = [ck.op(f"{label}_shift_modulus", fn, DIRICHLET, 1.0, 0.75, h, x, timed=False)
                    for h in (0.1, 0.05, 0.025)]
            ok = all(v is not None for v in vals)
            ck.check(f"{label}_modulus.decreasing", ok and vals[0] > vals[1] > vals[2] > 0)
            if ok:
                ck.digest(np.array(vals))
        x = float(rng.uniform(0.25, 0.75))
        v = ck.op("time_shift_modulus", time_shift_modulus, WAVE_UNIT, 1.0, 0.75, 0.05, x, timed=False)
        ck.check("wave_modulus.positive", v is not None and v > 0)

    def kernel_tables(self, ck, rng):
        for label, spec in self.tables:
            m = TABLE_POINTS.get(label, DEFAULT_TABLE_POINTS)
            t = rng.uniform(0.05, 2.0, m)
            x = rng.uniform(0.02, 0.98, m)
            y = rng.uniform(0.02, 0.98, m)
            vals = ck.op(f"eval_kernel.{label}", eval_kernel, spec, t, x, y, timed=False)
            if vals is None:
                continue
            vals = np.asarray(vals, dtype=float)
            ck.check(f"eval_kernel.{label}.finite_nonnegative", bool(np.all(np.isfinite(vals) & (vals >= 0))))
            if label == "heat_dirichlet_interval":
                free = eval_kernel(self.free["heat_free"], t, x, y)
                ck.check("eval_kernel.dirichlet<=free", bool(np.all(vals <= free + 1e-12)))
            ck.digest(vals)


WORKLOADS = {"verify": Verify, "picard": Picard, "compensated": Compensated, "kernels": Kernels}
