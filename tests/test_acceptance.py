"""Acceptance criteria: the exit checklist for the whole artifact.

Each test prints one `[criterion NN] PASS/FAIL` line (visible under
`pytest -s`) and then asserts.  Tolerances are pinned here, not computed:
statistical entries use three standard errors or the stated thresholds,
deterministic identities use their stated absolute bounds.  All seeds fixed.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from levyfield.boxes import Box
from levyfield.kernels import KernelKind, KernelSpec, i_alpha, j_p
from levyfield.noise import (
    NoiseConfig,
    first_large_jump_time,
    sample_noise_values,
    sample_weighted_sums,
    simulate_jumps,
    truncate,
)
from levyfield.solver import (
    SolverConfig,
    picard_solve,
    picard_solve_drifted,
    sigma_affine,
    sigma_identity,
    solve_linear,
)
from levyfield.stable import LevyMeasure, StableParams, sigma_alpha_pow
from levyfield.verify import (
    box_law,
    ecf_sup_distance,
    local_property_suite,
    moment_scaling_suite,
    run_suite,
    survival_suite,
    tail_bound_suite,
)

from oracles import heat_i_alpha_quad, wave1d_i_alpha_quad, wave2d_i_alpha_quad

WORKERS = 2
UNIT = Box.interval(0.0, 1.0)
WAVE_UNIT = KernelSpec(KernelKind.WAVE_1D, domain=UNIT)
DIRICHLET = KernelSpec(KernelKind.HEAT_DIRICHLET_INTERVAL)


def _report(num, name, ok, detail=""):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}  {detail}")


def test_criterion_01_box_noise_stable_law():
    """Jump-built box values follow the stable law, four parameter pairs."""
    results = []
    for alpha, beta in [(0.5, 0.0), (0.5, 1.0), (1.5, 0.0), (1.5, -1.0)]:
        measure = LevyMeasure.from_beta(alpha, beta)
        rng = np.random.default_rng(1001)
        t0 = time.time()
        values = sample_noise_values(measure, 1.0, 1e-3, 100_000, rng, workers=WORKERS)
        dist = ecf_sup_distance(values, box_law(measure, 1.0))
        elapsed = time.time() - t0
        results.append((alpha, beta, dist, elapsed))
    ok = all(d < 0.03 and el < 120.0 for _, _, d, el in results)
    detail = "; ".join(f"a={a} b={b}: dist={d:.4f} ({el:.0f}s)" for a, b, d, el in results)
    _report(1, "box-noise stable law", ok, detail)
    for alpha, beta, dist, elapsed in results:
        assert dist < 0.03, (alpha, beta, dist)
        assert elapsed < 120.0, (alpha, beta, elapsed)


def test_criterion_02_linear_solution_law():
    """Wave solution value at (t, x) = (2, 0) follows the stable law."""
    alpha, beta, t_eval = 0.5, 0.0, 2.0
    measure = LevyMeasure.from_beta(alpha, beta)
    # the kernel support cone at (2, 0) is covered by the window [0,2] x (-2,2)
    window = NoiseConfig(measure, t_eval, Box.interval(-2.0, 2.0), cutoff=1e-3)

    def cone_weight(times, locs):
        return 0.5 * (np.abs(locs[:, 0]) < (t_eval - times)).astype(float)

    rng = np.random.default_rng(1002)
    values = sample_weighted_sums(window, cone_weight, 100_000, rng)

    i_val = i_alpha(KernelSpec(KernelKind.WAVE_1D), t_eval, alpha)
    quad_rel = abs(i_val - wave1d_i_alpha_quad(alpha, t_eval)) / i_val
    scale = (sigma_alpha_pow(alpha) * i_val) ** (1.0 / alpha)
    dist = ecf_sup_distance(values, StableParams(alpha, scale, beta, 0.0))

    # per-realization consistency: the farm formula equals the grid solver
    cfg = SolverConfig(
        kernel=KernelSpec(KernelKind.WAVE_1D, domain=Box.interval(-2.0, 2.0)),
        noise=window,
        truncation=None,
        p=0.75,
        n_t=9,
        n_x=17,
    )
    rng2 = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(200):
        jumps = simulate_jumps(window, rng2)
        sol = solve_linear(cfg.kernel, jumps, cfg)
        direct = float(cone_weight(jumps.times, jumps.locations) @ jumps.sizes)
        ix = 8  # x = 0 on the 17-point grid over (-2, 2)
        # reduction order differs between the two dot products, so compare
        # relative to the summand scale
        worst = max(worst, abs(sol.grid_values[-1, ix] - direct) / max(1.0, abs(direct)))

    ok = dist < 0.03 and quad_rel < 1e-6 and i_val == pytest.approx(2.828427, abs=1e-6) and worst < 1e-12
    _report(2, "linear solution law", ok, f"ecf={dist:.4f} i_alpha_rel={quad_rel:.2e} route_diff={worst:.1e}")
    assert dist < 0.03
    assert quad_rel < 1e-6
    assert worst < 1e-12


def test_criterion_03_closed_form_functionals():
    """Closed-form integrability functionals against quadrature oracles."""
    wave2 = i_alpha(KernelSpec(KernelKind.WAVE_2D, dim=2), 1.0, 0.5)
    heat1 = i_alpha(KernelSpec(KernelKind.HEAT_FREE), 1.0, 0.5)
    rel_w = abs(wave2 - wave2d_i_alpha_quad(0.5, 1.0)) / wave2
    rel_h = abs(heat1 - heat_i_alpha_quad(1, 0.5, 1.0)) / heat1
    # both constants frozen from the oracles
    ok = (
        rel_w < 1e-6
        and rel_h < 1e-6
        and wave2 == pytest.approx(0.6684342, abs=1e-6)
        and heat1 == pytest.approx(1.7912242, abs=1e-6)
    )
    _report(3, "closed-form functionals", ok, f"wave2d={wave2:.7f} (rel {rel_w:.1e}) heat={heat1:.7f} (rel {rel_h:.1e})")
    assert ok


def test_criterion_04_survival_law():
    """No-oversized-jump probabilities match the exponential formula."""
    reports = []
    for alpha in (0.5, 1.5):
        reports.append((alpha, survival_suite(alpha=alpha, k_grid=(1.0, 2.0, 4.0), replicates=10_000, seed=1004)))
    ok = all(r.passed for _, r in reports)
    detail = "; ".join(f"a={a}: {'ok' if r.passed else 'FAIL'}" for a, r in reports)
    _report(4, "stopping-time survival law", ok, detail)
    for _, r in reports:
        assert r.passed, "\n".join(r.summary_lines())


def test_criterion_05_moment_scaling():
    """Truncated p-th moments scale like K^(p - alpha), slope within 0.1."""
    r1 = moment_scaling_suite(alpha=0.5, p=0.75, replicates=100_000, seed=1005, workers=WORKERS)
    r2 = moment_scaling_suite(alpha=1.5, p=1.9, replicates=100_000, seed=1005, workers=WORKERS)
    ok = r1.passed and r2.passed
    detail = "; ".join(
        f"a={r.entries[0].name.split('=')[1].split()[0]} slope={r.entries[0].statistic:.3f}" for r in (r1, r2)
    )
    _report(5, "moment scaling", ok, detail)
    assert r1.passed, "\n".join(r1.summary_lines())
    assert r2.passed, "\n".join(r2.summary_lines())


def test_criterion_06_tail_bounds():
    """Volume linearity, 1/u envelope, weight invariance of tail statistics."""
    r1 = tail_bound_suite(alpha=0.5, beta=0.0, replicates=100_000, seed=1006)
    r2 = tail_bound_suite(alpha=1.5, beta=0.0, replicates=100_000, seed=1006)
    ok = r1.passed and r2.passed
    _report(6, "tail bounds", ok, f"alpha=0.5 {'ok' if r1.passed else 'FAIL'}; alpha=1.5 {'ok' if r2.passed else 'FAIL'}")
    assert r1.passed, "\n".join(r1.summary_lines())
    assert r2.passed, "\n".join(r2.summary_lines())


def test_criterion_07_picard_convergence():
    """Geometric contraction, tiny residuals, cross-start uniqueness."""
    t0 = time.time()
    outcomes = []
    for kernel, label in ((WAVE_UNIT, "wave"), (DIRICHLET, "interval")):
        noise = NoiseConfig(LevyMeasure.from_beta(0.5, 0.0), 1.0, UNIT, cutoff=1e-3)
        cfg = SolverConfig(kernel=kernel, noise=noise, truncation=1.0, p=0.75, n_t=17, n_x=17)
        rng = np.random.default_rng(1007)
        worst_ratio = 0.0
        worst_residual = 0.0
        worst_cross = 0.0
        for _ in range(30):
            jumps = simulate_jumps(noise, rng)
            lin = solve_linear(kernel, truncate(jumps, 1.0), cfg)
            # the multiplicative coefficient: zero fixed point, checked from
            # both starts
            mult_zero = picard_solve(cfg, sigma_identity(), jumps)
            mult_lin = picard_solve(cfg, sigma_identity(), jumps, start=lin.eval_vector())
            worst_residual = max(worst_residual, mult_zero.diagnostics.residual)
            worst_cross = max(worst_cross, mult_zero.max_grid_abs_diff(mult_lin))
            # the affine coefficient drives a nontrivial iteration
            aff_zero = picard_solve(cfg, sigma_affine(1.0, 1.0), jumps)
            aff_lin = picard_solve(cfg, sigma_affine(1.0, 1.0), jumps, start=lin.eval_vector())
            d = aff_zero.diagnostics
            worst_residual = max(worst_residual, d.residual)
            worst_cross = max(worst_cross, aff_zero.max_grid_abs_diff(aff_lin))
            ratios = [
                d.sup_diffs[i + 1] / d.sup_diffs[i]
                for i in range(1, len(d.sup_diffs) - 1)
                if d.sup_diffs[i] > 1e-13
            ]
            if ratios:
                worst_ratio = max(worst_ratio, max(ratios))
        outcomes.append((label, worst_ratio, worst_residual, worst_cross))
    elapsed = time.time() - t0
    ok = elapsed < 300.0 and all(
        r < 0.9 and res < 1e-8 and cross < 1e-7 for _, r, res, cross in outcomes
    )
    detail = "; ".join(f"{l}: ratio={r:.2f} res={res:.1e} cross={c:.1e}" for l, r, res, c in outcomes)
    _report(7, "Picard convergence", ok, detail + f" ({elapsed:.0f}s)")
    assert elapsed < 300.0
    for label, ratio, residual, cross in outcomes:
        assert ratio < 0.9, (label, ratio)
        assert residual < 1e-8, (label, residual)
        assert cross < 1e-7, (label, cross)


def test_criterion_08_gluing_consistency():
    """Truncation levels agree on quiet realizations; drift offset is exact."""
    # small stability index: levels 1 and 4 give identical fields when no
    # jump exceeds 1
    noise = NoiseConfig(LevyMeasure.from_beta(0.5, 0.0), 1.0, UNIT, cutoff=1e-3)
    cfg1 = SolverConfig(kernel=WAVE_UNIT, noise=noise, truncation=1.0, p=0.75, n_t=17, n_x=17)
    rng = np.random.default_rng(1008)
    sig = sigma_affine(1.0, 1.0)
    worst_small = 0.0
    quiet = 0
    for _ in range(60):
        jumps = simulate_jumps(noise, rng)
        if first_large_jump_time(jumps, UNIT, 1.0) <= 1.0:
            continue
        quiet += 1
        u1 = picard_solve(cfg1, sig, jumps)
        u4 = picard_solve(dataclasses.replace(cfg1, truncation=4.0), sig, jumps)
        worst_small = max(worst_small, u1.max_grid_abs_diff(u4))

    # large stability index: the full-noise solve equals the drifted
    # truncated solve up to the stated quadrature tolerance
    noise2 = NoiseConfig(LevyMeasure.from_beta(1.5, 1.0), 1.0, UNIT, cutoff=0.02)
    cfg2 = SolverConfig(kernel=WAVE_UNIT, noise=noise2, truncation=1.0, p=1.9, n_t=9, n_x=9)
    rng2 = np.random.default_rng(1009)
    worst_drift = 0.0
    quiet2 = 0
    for _ in range(25):
        jumps = simulate_jumps(noise2, rng2)
        if first_large_jump_time(jumps, UNIT, 1.0) <= 1.0:
            continue
        quiet2 += 1
        full = picard_solve(dataclasses.replace(cfg2, truncation=None), sig, jumps)
        drifted = picard_solve_drifted(cfg2, sig, jumps)
        worst_drift = max(worst_drift, full.max_grid_abs_diff(drifted))

    ok = quiet >= 10 and quiet2 >= 3 and worst_small < 1e-8 and worst_drift < 1e-6
    _report(8, "gluing consistency", ok, f"small-alpha diff={worst_small:.1e} ({quiet} quiet); drift offset={worst_drift:.1e} ({quiet2} quiet)")
    assert quiet >= 10 and quiet2 >= 3
    assert worst_small < 1e-8
    assert worst_drift < 1e-6


def test_criterion_09_fractional_scaling():
    """Subordinated-kernel spatial Lp mass scales like t^(-d(p-1)/(2 gamma))."""
    spec = KernelSpec(KernelKind.FRACTIONAL_HEAT, gamma=0.5)
    ts = np.array([0.5, 1.0, 2.0, 4.0])
    slopes = {}
    for p in (1.5, 2.0):
        vals = np.array([j_p(spec, t, p) for t in ts])
        slopes[p] = float(np.polyfit(np.log(ts), np.log(vals), 1)[0])
    ok = all(abs(slopes[p] + (p - 1.0)) < 0.05 for p in slopes)
    _report(9, "fractional kernel scaling", ok, "; ".join(f"p={p}: slope={s:.4f}" for p, s in slopes.items()))
    for p, s in slopes.items():
        assert s == pytest.approx(-(p - 1.0), abs=0.05)


def test_criterion_10_local_property():
    """Integrals vanish exactly on every masked realization."""
    r1 = local_property_suite(alpha=0.5, seed=1010)
    r2 = local_property_suite(alpha=1.5, beta=1.0, seed=1010)
    ok = r1.passed and r2.passed
    _report(10, "local property", ok, "exact zeros on all masked realizations")
    assert r1.passed, "\n".join(r1.summary_lines())
    assert r2.passed, "\n".join(r2.summary_lines())


def test_criterion_11_negative_controls():
    """Every statistical suite fails under its built-in perturbation."""
    controls = {
        "ecf": dict(replicates=20_000),
        "tail": dict(replicates=50_000),
        "moment": dict(replicates=50_000),
        "survival": dict(replicates=10_000),
        "local": {},
    }
    failed_as_required = {}
    for name, kwargs in controls.items():
        report = run_suite(name, seed=1011, negative_control=True, **kwargs)
        failed_as_required[name] = not report.passed
    ok = all(failed_as_required.values())
    _report(11, "negative controls", ok, ", ".join(f"{k}:{'fails' if v else 'PASSES'}" for k, v in failed_as_required.items()))
    assert ok, failed_as_required
