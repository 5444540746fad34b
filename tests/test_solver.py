"""Mild-solution solvers: linear convolution, Picard iteration, gluing."""

import dataclasses
import math

import numpy as np
import pytest

from levyfield import solver as solver_module
from levyfield.boxes import Box
from levyfield.kernels import KernelKind, KernelSpec, eval_kernel, j_p
from levyfield.noise import (
    JumpSet,
    NoiseConfig,
    compensator_band,
    first_large_jump_time,
    simulate_jumps,
    truncate,
)
from levyfield.solver import (
    GlueResult,
    LipschitzSigma,
    PicardDivergenceError,
    SolverConfig,
    _PicardWorkspace,
    glue,
    picard_solve,
    picard_solve_drifted,
    sigma_affine,
    sigma_identity,
    sigma_one,
    sigma_zero,
    solve_linear,
)
from levyfield.stable import LevyMeasure

from oracles import hat_integrals_scalar
from test_noise import make_jumps

UNIT = Box.interval(0.0, 1.0)
WAVE = KernelSpec(KernelKind.WAVE_1D, domain=UNIT)
DIRICHLET = KernelSpec(KernelKind.HEAT_DIRICHLET_INTERVAL)


SQUARE = Box((0.0, 0.0), (1.0, 1.0))


def noise_config(alpha=0.5, beta=0.0, cutoff=1e-3, horizon=1.0, domain=UNIT):
    return NoiseConfig(LevyMeasure.from_beta(alpha, beta), horizon, domain, cutoff=cutoff)


def solver_config(alpha=0.5, beta=0.0, cutoff=1e-3, truncation=1.0, p=0.75, kernel=WAVE, **kw):
    kw.setdefault("n_t", 17)
    kw.setdefault("n_x", 17)
    noise = noise_config(alpha, beta, cutoff, domain=UNIT if kernel.dim == 1 else SQUARE)
    return SolverConfig(kernel=kernel, noise=noise, truncation=truncation, p=p, **kw)


def empty_jumps(cutoff=1e-3, horizon=1.0):
    return JumpSet(np.empty(0), np.empty((0, 1)), np.empty(0), horizon, UNIT, cutoff)


class TestLipschitzSigma:
    def test_builtins(self):
        assert sigma_zero()(3.0) == 0.0
        assert sigma_one()(-5.0) == 1.0
        assert sigma_identity()(2.5) == 2.5
        assert sigma_affine(2.0, 1.0)(3.0) == 7.0

    def test_growth_bound(self):
        s = sigma_affine(0.5, 4.0)
        assert s.growth_bound == 4.0

    def test_spot_check_rejects_false_constant(self):
        with pytest.raises(ValueError, match="Lipschitz"):
            LipschitzSigma(lambda u: u * u, 1.0, "square")

    def test_spot_check_rejects_bad_declared_constant(self):
        with pytest.raises(ValueError, match="Lipschitz"):
            LipschitzSigma(lambda u: 3.0 * u, 1.0, "steep")


class TestSolverConfig:
    def test_exponent_window(self):
        with pytest.raises(ValueError):
            solver_config(alpha=0.5, p=0.4)
        with pytest.raises(ValueError):
            solver_config(alpha=0.5, p=1.0)
        with pytest.raises(ValueError):
            solver_config(alpha=1.5, beta=0.0, p=1.2)
        cfg = SolverConfig(kernel=WAVE, noise=noise_config(1.5), truncation=1.0, p=2.0)
        assert cfg.p == 2.0

    def test_truncation_above_cutoff(self):
        with pytest.raises(ValueError):
            solver_config(truncation=1e-4)

    def test_nan_truncation_rejected(self):
        with pytest.raises(ValueError, match="truncation"):
            solver_config(truncation=math.nan)

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -1e-8])
    def test_tolerance_must_be_finite_and_nonnegative(self, tolerance):
        with pytest.raises(ValueError, match="tolerance"):
            solver_config(tolerance=tolerance)

    @pytest.mark.parametrize("max_iterations", [0, -1])
    def test_max_iterations_at_least_one(self, max_iterations):
        with pytest.raises(ValueError, match="max_iterations"):
            solver_config(max_iterations=max_iterations)

    @pytest.mark.parametrize(
        "kernel,domain",
        [(KernelSpec(KernelKind.WAVE_2D, dim=2), UNIT), (KernelSpec(KernelKind.HEAT_FREE, dim=2), UNIT), (WAVE, SQUARE)],
    )
    def test_kernel_dimension_must_match_domain(self, kernel, domain):
        noise = noise_config(0.5, domain=domain)
        with pytest.raises(ValueError, match="dimension"):
            SolverConfig(kernel=kernel, noise=noise, truncation=1.0, p=0.75)


class TestSupLpIntegrability:
    """J_p(t) ~ t^-r near zero must have r < 1, with r known per family."""

    @pytest.mark.parametrize(
        "kernel,alpha,p",
        [
            (KernelSpec(KernelKind.HEAT_FREE, dim=2), 1.5, 2.0),  # r = d(p-1)/2 = 1
            (KernelSpec(KernelKind.WAVE_2D, dim=2), 1.5, 2.0),  # J_p infinite
            (KernelSpec(KernelKind.FRACTIONAL_HEAT, gamma=0.3), 1.5, 1.6),  # p = 1 + 2 gamma
            (KernelSpec(KernelKind.FRACTIONAL_HEAT, gamma=0.3), 1.5, 1.9),
            (KernelSpec(KernelKind.FRACTIONAL_HEAT, gamma=0.2), 0.5, 0.7),  # spatial tail: p(1+2g) < 1
        ],
    )
    def test_rejected(self, kernel, alpha, p):
        with pytest.raises(ValueError, match="integrable"):
            solver_config(alpha=alpha, p=p, kernel=kernel)

    @pytest.mark.parametrize(
        "kernel,alpha,p",
        [
            (WAVE, 0.5, 0.75),
            (WAVE, 1.5, 2.0),
            (WAVE, 1.5, 1.9),
            (DIRICHLET, 0.5, 0.75),
            (DIRICHLET, 1.5, 1.9),
            (KernelSpec(KernelKind.HEAT_FREE, dim=2), 1.5, 1.9),
            (KernelSpec(KernelKind.WAVE_2D, dim=2), 1.5, 1.9),
            (KernelSpec(KernelKind.FRACTIONAL_HEAT, gamma=0.3), 1.5, 1.55),
            (KernelSpec(KernelKind.FRACTIONAL_HEAT, gamma=1.0), 1.5, 2.0),
            (KernelSpec(KernelKind.CABLE), 1.5, 2.0),
        ],
    )
    def test_accepted(self, kernel, alpha, p):
        assert solver_config(alpha=alpha, p=p, kernel=kernel).p == p

    @pytest.mark.parametrize(
        "kernel,p,r",
        [
            (KernelSpec(KernelKind.HEAT_FREE), 1.5, 0.25),
            (KernelSpec(KernelKind.HEAT_FREE, dim=2), 1.9, 0.9),
            (KernelSpec(KernelKind.CABLE), 2.0, 0.5),
            (DIRICHLET, 1.9, 0.45),
            (KernelSpec(KernelKind.WAVE_1D), 1.9, -1.0),
            (KernelSpec(KernelKind.WAVE_2D, dim=2), 1.5, -0.5),
        ],
    )
    def test_exponent_matches_log_log_slope(self, kernel, p, r):
        ts = np.array([1e-3, 1e-2])
        slope = np.diff(np.log([j_p(kernel, t, p) for t in ts]))[0] / np.diff(np.log(ts))[0]
        assert slope == pytest.approx(-r, abs=0.01)


class TestLinear:
    def test_no_jumps_zero_field(self):
        cfg = solver_config()
        sol = solve_linear(WAVE, empty_jumps(), cfg)
        assert np.all(sol.grid_values == 0.0)

    def test_single_jump_formula(self):
        jumps = make_jumps([0.25], [0.5], [2.0], cutoff=1e-3)
        cfg = solver_config()
        sol = solve_linear(WAVE, jumps, cfg)
        for i, t in enumerate(sol.t_grid):
            for j, x in enumerate(sol.x_grid):
                if t > 0.25:
                    expected = float(eval_kernel(WAVE, t - 0.25, x, 0.5)) * 2.0
                else:
                    expected = 0.0
                assert sol.grid_values[i, j] == pytest.approx(expected, abs=1e-14)

    def test_infinite_functional_rejected(self):
        frac = KernelSpec(KernelKind.FRACTIONAL_HEAT, gamma=0.75)
        cfg = solver_config(alpha=1.7, beta=0.0, p=1.9)
        with pytest.raises(ValueError, match="no solution"):
            solve_linear(frac, empty_jumps(), cfg)

    def test_kernel_other_than_config_kernel_rejected(self):
        # the solve runs with config.kernel, so a second kernel is an error
        jumps = make_jumps([0.25], [0.5], [2.0], cutoff=1e-3)
        with pytest.raises(ValueError, match="kernel"):
            solve_linear(DIRICHLET, jumps, solver_config(kernel=WAVE))


class TestPicard:
    def test_zero_coefficient(self):
        cfg = solver_config()
        jumps = simulate_jumps(cfg.noise, np.random.default_rng(51))
        sol = picard_solve(cfg, sigma_zero(), jumps)
        assert np.all(sol.grid_values == 0.0)
        assert sol.diagnostics.iterations == 1

    def test_constant_coefficient_matches_linear(self):
        cfg = solver_config()
        jumps = simulate_jumps(cfg.noise, np.random.default_rng(52))
        sol = picard_solve(cfg, sigma_one(), jumps)
        lin = solve_linear(WAVE, truncate(jumps, 1.0), cfg)
        assert sol.max_grid_abs_diff(lin) == 0.0
        assert sol.diagnostics.iterations == 2

    def test_multiplicative_coefficient_zero_fixed_point(self):
        # zero initial data and sigma(0) = 0 pin the zero solution
        cfg = solver_config()
        jumps = simulate_jumps(cfg.noise, np.random.default_rng(53))
        sol = picard_solve(cfg, sigma_identity(), jumps)
        assert np.all(sol.grid_values == 0.0)
        assert sol.diagnostics.residual < 1e-8

    @pytest.mark.parametrize("kernel", [WAVE, DIRICHLET], ids=["wave", "interval"])
    def test_affine_contraction(self, kernel):
        cfg = solver_config(kernel=kernel)
        rng = np.random.default_rng(54)
        sig = sigma_affine(1.0, 1.0)
        for _ in range(10):
            jumps = simulate_jumps(cfg.noise, rng)
            sol = picard_solve(cfg, sig, jumps)
            d = sol.diagnostics
            assert d.converged
            assert d.residual < 1e-8
            tail = [
                d.sup_diffs[i + 1] / d.sup_diffs[i]
                for i in range(1, len(d.sup_diffs) - 1)
                if d.sup_diffs[i] > 1e-13
            ]
            assert all(r < 0.9 for r in tail)

    def test_cross_start_uniqueness(self):
        cfg = solver_config()
        rng = np.random.default_rng(55)
        sig = sigma_affine(1.0, 1.0)
        for _ in range(5):
            jumps = simulate_jumps(cfg.noise, rng)
            from_zero = picard_solve(cfg, sig, jumps)
            lin = solve_linear(WAVE, truncate(jumps, 1.0), cfg)
            from_linear = picard_solve(cfg, sig, jumps, start=lin.eval_vector())
            assert from_zero.max_grid_abs_diff(from_linear) < 1e-7

    def test_divergence_flagged(self):
        cfg = solver_config(max_iterations=40)
        rng = np.random.default_rng(56)
        explosive = sigma_affine(60.0, 1.0)
        raised = False
        for _ in range(10):
            jumps = simulate_jumps(cfg.noise, rng)
            try:
                picard_solve(cfg, explosive, jumps)
            except PicardDivergenceError as err:
                raised = True
                assert err.diagnostics.sup_diffs[-1] > err.diagnostics.sup_diffs[-4]
                break
        assert raised

    def test_bounded_iterate_moments(self):
        # sup-grid mean |u_n|^p stays flat after the early sweeps
        cfg = solver_config(max_iterations=20, tolerance=0.0)
        rng = np.random.default_rng(57)
        sig = sigma_affine(1.0, 1.0)
        n_rep = 100
        p = cfg.p
        sums = np.zeros(21)
        for _ in range(n_rep):
            jumps = simulate_jumps(cfg.noise, rng)
            level_jumps = truncate(jumps, 1.0)
            from levyfield.solver import _PicardWorkspace

            ws = _PicardWorkspace(cfg, level_jumps)
            u = np.zeros(ws.n_eval)
            for n in range(1, 21):
                u = ws.sweep(u, sig, 0.0)
                sums[n] += np.abs(u).max() ** p
        means = sums / n_rep
        assert means[5:].max() <= 1.1 * means[5]


class TestDrifted:
    def test_symmetric_case_coincides(self):
        cfg = solver_config(alpha=1.5, beta=0.0, cutoff=0.02, p=1.9, truncation=1.0)
        jumps = simulate_jumps(cfg.noise, np.random.default_rng(58))
        sig = sigma_affine(1.0, 1.0)
        plain = picard_solve(cfg, sig, jumps)
        drifted = picard_solve_drifted(cfg, sig, jumps)
        assert plain.max_grid_abs_diff(drifted) == 0.0

    def test_requires_large_alpha(self):
        cfg = solver_config(alpha=0.5)
        with pytest.raises(ValueError):
            picard_solve_drifted(cfg, sigma_one(), empty_jumps())

    def test_constant_coefficient_no_jumps_quadrature_oracle(self):
        # deterministic field: minus (band + tail drift) times the cone mass;
        # for the flat wave kernel at the domain center the mass is t^2 / 2
        cfg = solver_config(alpha=1.5, beta=1.0, cutoff=0.02, p=1.9, truncation=1.0, n_t=9, n_x=9)
        sol = picard_solve_drifted(cfg, sigma_one(), empty_jumps(cutoff=0.02))
        band_total = compensator_band(cfg.noise.measure, 0.02, math.inf).value
        it, ix = 2, 4  # t = 0.25, x = 0.5: the cone stays inside the domain
        t = sol.t_grid[it]
        expected = -band_total * t**2 / 2.0
        assert sol.grid_values[it, ix] == pytest.approx(expected, rel=1e-12)

    def test_tail_drift_halves_by_level_scaling(self):
        m = LevyMeasure.from_beta(1.5, 1.0)
        b1 = compensator_band(m, 1.0, math.inf).value
        b2 = compensator_band(m, 2.0, math.inf).value
        assert b2 / b1 == pytest.approx(2.0 ** (1.0 - 1.5), rel=1e-12)

    def test_full_solve_matches_drifted_on_quiet_realizations(self):
        # no oversized jumps: the full-noise equation and the drifted
        # truncated equation have identical Picard maps
        cfg = solver_config(alpha=1.5, beta=1.0, cutoff=0.02, p=1.9, truncation=1.0, n_t=9, n_x=9)
        rng = np.random.default_rng(59)
        sig = sigma_affine(1.0, 1.0)
        checked = 0
        for _ in range(20):
            jumps = simulate_jumps(cfg.noise, rng)
            if jumps.n and np.abs(jumps.sizes).max() > 1.0:
                continue
            full = picard_solve(dataclasses.replace(cfg, truncation=None), sig, jumps)
            drifted = picard_solve_drifted(cfg, sig, jumps)
            assert full.max_grid_abs_diff(drifted) < 1e-10
            checked += 1
        assert checked >= 3


class TestDriftOperator:
    def test_one_kernel_evaluation_per_row(self, monkeypatch):
        # a Dirichlet 5x5 drift build evaluates the kernel once per evaluation
        # point over all its time nodes (one call per time node made 1,200 here)
        cfg = solver_config(alpha=1.5, beta=1.0, cutoff=0.1, p=1.9, kernel=DIRICHLET, n_t=5, n_x=5)
        jumps = simulate_jumps(cfg.noise, np.random.default_rng(31))
        ws = _PicardWorkspace(cfg, jumps)
        calls = []

        def counting(fn):
            def wrapper(*args, **kwargs):
                calls.append(None)
                return fn(*args, **kwargs)

            return wrapper

        for name in ("eval_kernel", "_eval_kernel_per_t"):
            if hasattr(solver_module, name):
                monkeypatch.setattr(solver_module, name, counting(getattr(solver_module, name)))
        Q = ws.build_drift_operator()
        assert 0 < len(calls) <= ws.n_eval
        assert np.all(Q >= 0.0) and Q.any()

    def test_hat_integrals_match_float64_scalar_oracle(self):
        # Python floats keep the bytes of the np.float64 scalar loop
        rng = np.random.default_rng(64)
        chi = np.linspace(0.0, 1.0, 9)
        for _ in range(20_000):
            c, r = rng.uniform(-0.2, 1.2), rng.uniform(0.0, 1.2)
            expected = hat_integrals_scalar(chi, c - r, c + r)
            got = solver_module._hat_integrals(chi.tolist(), c - r, c + r)
            assert np.array(got).tobytes() == expected.tobytes()


class TestGlue:
    @pytest.mark.parametrize("ladder", [[math.nan], [1.0, math.nan], [math.nan, 1.0]])
    def test_nan_level_rejected(self, ladder):
        jumps = make_jumps([0.25], [0.5], [2.0], cutoff=1e-3)
        with pytest.raises(ValueError):
            glue(solver_config(), sigma_affine(1.0, 1.0), jumps, ladder)

    def test_single_sufficient_level(self):
        cfg = solver_config()
        rng = np.random.default_rng(60)
        sig = sigma_affine(1.0, 1.0)
        for _ in range(20):
            jumps = simulate_jumps(cfg.noise, rng)
            if first_large_jump_time(jumps, UNIT, 1.0) <= 1.0:
                continue
            result = glue(cfg, sig, jumps, [1.0])
            assert result.resolved and result.k_used == 1.0
            direct = picard_solve(cfg, sig, jumps)
            assert result.field.max_grid_abs_diff(direct) == 0.0
            return
        pytest.fail("no quiet realization found")

    def test_level_consistency_small_alpha(self):
        # when the small level already suffices, all larger levels agree
        cfg = solver_config()
        rng = np.random.default_rng(61)
        sig = sigma_affine(1.0, 1.0)
        checked = 0
        for _ in range(30):
            jumps = simulate_jumps(cfg.noise, rng)
            if first_large_jump_time(jumps, UNIT, 1.0) <= 1.0:
                continue
            sol1 = picard_solve(dataclasses.replace(cfg, truncation=1.0), sig, jumps)
            sol4 = picard_solve(dataclasses.replace(cfg, truncation=4.0), sig, jumps)
            assert sol1.max_grid_abs_diff(sol4) < 1e-8
            checked += 1
        assert checked >= 5

    def test_unresolved_and_validation(self):
        cfg = solver_config(cutoff=0.05)
        jumps = make_jumps([0.5], [0.5], [100.0], cutoff=0.05)
        result = glue(cfg, sigma_one(), jumps, [1.0, 4.0])
        assert not result.resolved and result.field is None
        with pytest.raises(ValueError):
            glue(cfg, sigma_one(), jumps, [])
        with pytest.raises(ValueError):
            glue(cfg, sigma_one(), jumps, [4.0, 1.0])

    def test_infinite_level_is_the_full_noise(self):
        # at alpha > 1 the ladder's last level inf drifts over the empty band (inf, inf]
        cfg = solver_config(alpha=1.5, beta=1.0, cutoff=0.1, p=1.9, n_t=9, n_x=9)
        jumps = simulate_jumps(cfg.noise, np.random.default_rng(63))
        assert np.abs(jumps.sizes).max() > 0.2
        sig = sigma_affine(1.0, 1.0)
        result = glue(cfg, sig, jumps, [0.2, math.inf])
        assert result.resolved and result.k_used == math.inf
        full = picard_solve(dataclasses.replace(cfg, truncation=None), sig, jumps)
        assert result.field.max_grid_abs_diff(full) == 0.0

    def test_resolution_fraction_matches_survival_law(self):
        cfg = solver_config(cutoff=0.9)
        rng = np.random.default_rng(62)
        n = 3000
        resolved = 0
        for _ in range(n):
            jumps = simulate_jumps(cfg.noise, rng)
            if first_large_jump_time(jumps, UNIT, 1.0) > 1.0:
                resolved += 1
        target = math.exp(-1.0)
        se = math.sqrt(target * (1 - target) / n)
        assert abs(resolved / n - target) < 3.0 * se


class TestSolutionOutputs:
    def test_csv_and_diagnostics(self, tmp_path):
        cfg = solver_config()
        jumps = simulate_jumps(cfg.noise, np.random.default_rng(63))
        sol = picard_solve(cfg, sigma_affine(1.0, 1.0), jumps)
        path = tmp_path / "solution.csv"
        sol.save_csv(path, header_comment="check")
        lines = path.read_text().splitlines()
        assert lines[0] == "# check"
        assert lines[1] == "t,x,u"
        assert len(lines) == 2 + 17 * 17
        blob = sol.diagnostics.to_json(k_used=sol.k_used)
        assert '"k_used": 1.0' in blob
