"""Jump-sum stochastic integrals: exactness, linearity, truncation identities."""

import math

import numpy as np
import pytest

from levyfield.boxes import Box, SpaceTimeBox
from levyfield.integrate import (
    IntegralPath,
    JumpHistory,
    PredictabilityError,
    PredictableField,
    SimpleProcess,
    field_quadrature,
    integrate_field,
    integrate_simple,
    lp_norm,
)
from levyfield.noise import NoiseConfig, compensator_band, noise_of_box, simulate_jumps
from levyfield.stable import LevyMeasure

from test_noise import make_jumps, unit_config

UNIT = Box.interval(0.0, 1.0)


def one_cell_process(value=1.0, horizon=1.0, cell=UNIT):
    return SimpleProcess(np.array([0.0, horizon]), [[(cell, value)]])


class TestSimpleProcessValidation:
    def test_knots_must_increase_from_zero(self):
        with pytest.raises(ValueError):
            SimpleProcess(np.array([0.1, 1.0]), [[(UNIT, 1.0)]])
        with pytest.raises(ValueError):
            SimpleProcess(np.array([0.0, 0.0]), [[(UNIT, 1.0)]])

    def test_cells_must_be_disjoint(self):
        with pytest.raises(ValueError):
            SimpleProcess(
                np.array([0.0, 1.0]),
                [[(Box.interval(0.0, 0.6), 1.0), (Box.interval(0.5, 1.0), 2.0)]],
            )

    def test_cell_count_matches_intervals(self):
        with pytest.raises(ValueError):
            SimpleProcess(np.array([0.0, 0.5, 1.0]), [[(UNIT, 1.0)]])


def test_value_at_takes_one_point():
    line = SimpleProcess(np.array([0.0, 1.0]), [[(Box.interval(0.0, 0.5), 2.0)]])
    assert line.value_at(0.5, 0.25) == 2.0
    assert line.value_at(0.5, np.float64(0.75)) == 0.0
    plane = SimpleProcess(np.array([0.0, 1.0]), [[(Box((0.0, 0.0), (1.0, 0.5)), 3.0)]])
    assert plane.value_at(0.5, (0.5, 0.25)) == 3.0
    assert plane.value_at(0.5, np.array([0.5, 0.75])) == 0.0


class TestIntegrateSimple:
    def test_unit_process_reduces_to_box_noise(self):
        config = unit_config(alpha=0.7, cutoff=0.02)
        jumps = simulate_jumps(config, np.random.default_rng(31))
        process = one_cell_process(1.0)
        for t in (0.3, 0.7, 1.0):
            expected = noise_of_box(jumps, SpaceTimeBox(0.0, t, UNIT), config)
            assert integrate_simple(process, jumps, t, UNIT, config) == pytest.approx(expected, rel=1e-14)

    def test_zero_process(self):
        config = unit_config()
        jumps = simulate_jumps(config, np.random.default_rng(32))
        assert integrate_simple(one_cell_process(0.0), jumps, 1.0, UNIT, config) == 0.0

    def test_hand_computed_two_by_two(self):
        # two intervals x two cells, four hand-picked jumps: enumerate terms
        config = unit_config(alpha=0.5, cutoff=0.01)
        jumps = make_jumps(
            [0.10, 0.30, 0.60, 0.90],
            [0.20, 0.70, 0.30, 0.80],
            [1.0, -2.0, 0.5, 4.0],
            cutoff=0.01,
        )
        left, right = Box.interval(0.0, 0.5), Box.interval(0.5, 1.0)
        process = SimpleProcess(
            np.array([0.0, 0.5, 1.0]),
            [[(left, 2.0), (right, 3.0)], [(left, -1.0), (right, 5.0)]],
        )
        # (0, .5]: left cell gets jump 1 (t=.1, x=.2, z=1), right gets jump 2
        # (.5, 1]: left gets jump 3 (t=.6, x=.3, z=.5), right gets jump 4
        expected = 2.0 * 1.0 + 3.0 * (-2.0) + (-1.0) * 0.5 + 5.0 * 4.0
        assert integrate_simple(process, jumps, 1.0, UNIT, config) == pytest.approx(expected, rel=1e-14)
        # stopping mid-way keeps only the first interval's terms
        expected_half = 2.0 * 1.0 + 3.0 * (-2.0)
        assert integrate_simple(process, jumps, 0.5, UNIT, config) == pytest.approx(expected_half, rel=1e-14)

    def test_linearity_exact(self):
        config = unit_config(alpha=0.8, cutoff=0.02)
        jumps = simulate_jumps(config, np.random.default_rng(33))
        left, right = Box.interval(0.0, 0.5), Box.interval(0.5, 1.0)
        knots = np.array([0.0, 0.4, 1.0])
        pa = SimpleProcess(knots, [[(left, 1.5)], [(right, -2.0)]])
        pb = SimpleProcess(knots, [[(left, 0.5)], [(right, 3.0)]])
        combined = SimpleProcess(
            knots,
            [[(left, 2.0 * 1.5 + 3.0 * 0.5)], [(right, 2.0 * -2.0 + 3.0 * 3.0)]],
        )
        lhs = integrate_simple(combined, jumps, 1.0, UNIT, config)
        rhs = 2.0 * integrate_simple(pa, jumps, 1.0, UNIT, config) + 3.0 * integrate_simple(
            pb, jumps, 1.0, UNIT, config
        )
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_spatial_additivity_exact(self):
        config = unit_config(alpha=1.5, beta=0.7, cutoff=0.05)
        jumps = simulate_jumps(config, np.random.default_rng(34))
        process = one_cell_process(2.5)
        a, b = Box.interval(0.0, 0.3), Box.interval(0.3, 1.0)
        total = integrate_simple(process, jumps, 1.0, a, config) + integrate_simple(
            process, jumps, 1.0, b, config
        )
        assert total == pytest.approx(integrate_simple(process, jumps, 1.0, UNIT, config), rel=1e-12)


class TestIntegrateField:
    def test_simple_consistency(self):
        config = unit_config(alpha=0.6, cutoff=0.02)
        jumps = simulate_jumps(config, np.random.default_rng(35))
        left, right = Box.interval(0.0, 0.5), Box.interval(0.5, 1.0)
        process = SimpleProcess(np.array([0.0, 0.4, 1.0]), [[(left, 2.0)], [(right, -1.0)]])
        got = integrate_field(process.as_field(), jumps, 1.0, UNIT, config)
        expected = integrate_simple(process, jumps, 1.0, UNIT, config)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_pure_drift_case(self):
        # alpha > 1, unit field, no jumps: minus t |B| times the band value
        config = unit_config(alpha=1.5, beta=1.0, cutoff=0.01)
        jumps = make_jumps([], [], [], cutoff=0.01)
        t = 0.8
        got = integrate_field(lambda s, x: 1.0, jumps, t, UNIT, config)
        band = compensator_band(config.measure, 0.01, math.inf).value
        assert got == pytest.approx(-t * 1.0 * band, rel=1e-9)

    def test_jump_at_horizon_counts_with_left_limit(self):
        config = unit_config(alpha=0.5, cutoff=0.01)
        jumps = make_jumps([0.5], [0.5], [2.0], cutoff=0.01)
        count_field = PredictableField(lambda t, x, hist: float(hist.count()))
        # at t = 0.5 the jump itself contributes, but the integrand sees an
        # empty strict past
        assert integrate_field(count_field, jumps, 0.5, UNIT, config) == 0.0
        value_field = PredictableField(lambda t, x, hist: 3.0)
        assert integrate_field(value_field, jumps, 0.5, UNIT, config) == pytest.approx(6.0)

    def test_nan_truncation_rejected(self):
        config = unit_config(alpha=0.5, cutoff=0.01)
        jumps = make_jumps([0.5], [0.5], [2.0], cutoff=0.01)
        with pytest.raises(ValueError, match="truncation"):
            integrate_field(lambda t, x: 1.0, jumps, 1.0, UNIT, config, truncation=math.nan)

    def test_predictability_violation_raises(self):
        config = unit_config(alpha=0.5, cutoff=0.01)
        jumps = make_jumps([0.2, 0.5], [0.3, 0.6], [1.0, 1.0], cutoff=0.01)
        peeking = PredictableField(lambda t, x, hist: float(hist.before(t + 0.1)[0].shape[0]))
        with pytest.raises(PredictabilityError):
            integrate_field(peeking, jumps, 1.0, UNIT, config)

    def test_truncation_consistency_small_alpha(self):
        # no oversized jumps: full and truncated integrals coincide exactly
        config = unit_config(alpha=0.5, beta=0.3, cutoff=0.01)
        rng = np.random.default_rng(36)
        field = PredictableField(lambda t, x, hist: 1.0 + t * x + hist.count())
        found = 0
        for _ in range(40):
            jumps = simulate_jumps(config, rng)
            if jumps.n == 0 or np.abs(jumps.sizes).max() > 1.0:
                continue
            found += 1
            full = integrate_field(field, jumps, 1.0, UNIT, config)
            trunc = integrate_field(field, jumps, 1.0, UNIT, config, truncation=1.0)
            assert trunc == full
        assert found > 5

    def test_truncation_offset_large_alpha(self):
        # the full and truncated integrals differ by exactly the tail band
        # times the field quadrature on no-oversized-jump realizations
        config = unit_config(alpha=1.5, beta=1.0, cutoff=0.05)
        rng = np.random.default_rng(37)
        field = PredictableField(lambda t, x, hist: 1.0 + t + x)
        level = 1.0
        found = 0
        for _ in range(40):
            jumps = simulate_jumps(config, rng)
            if jumps.n and np.abs(jumps.sizes).max() > level:
                continue
            found += 1
            full = integrate_field(field, jumps, 1.0, UNIT, config)
            trunc = integrate_field(field, jumps, 1.0, UNIT, config, truncation=level)
            b_tail = compensator_band(config.measure, level, math.inf).value
            quad = field_quadrature(field, jumps, 1.0, UNIT)
            assert full == pytest.approx(trunc - b_tail * quad, rel=1e-10, abs=1e-10)
        assert found > 5

    def test_local_property_exact_zero(self):
        config = unit_config(alpha=1.5, beta=1.0, cutoff=0.05)
        rng = np.random.default_rng(38)
        zero_field = PredictableField(lambda t, x, hist: 0.0)
        for _ in range(10):
            jumps = simulate_jumps(config, rng)
            assert integrate_field(zero_field, jumps, 1.0, UNIT, config) == 0.0
            assert integrate_field(zero_field, jumps, 1.0, UNIT, config, truncation=1.0) == 0.0


class TestLpNorm:
    def test_constant_field(self):
        got = lp_norm(lambda t, x: 3.0, 0.5, 2.0, UNIT)
        assert got == pytest.approx(3.0 * 2.0**2.0, rel=1e-9)  # c (T |B|)^(1/p)

    def test_linear_field_p1(self):
        got = lp_norm(lambda t, x: t, 1.0, 1.0, UNIT)
        assert got == pytest.approx(0.5, rel=1e-9)

    def test_linear_field_p_half(self):
        # fractional powers kink at zero, so plain panels only reach ~1e-5
        got = lp_norm(lambda t, x: t, 0.5, 1.0, UNIT)
        assert got == pytest.approx(4.0 / 9.0, rel=1e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            lp_norm(lambda t, x: t, 2.5, 1.0, UNIT)


class TestMaximalInequalityScaling:
    def test_tail_constant_stable_under_scaling(self):
        # sup_lambda lambda^alpha P(sup_t |I(X)| > lambda) / ||X||_alpha^alpha
        # is invariant when X doubles, up to grid effects
        alpha = 0.5
        config = unit_config(alpha=alpha, beta=0.0, cutoff=0.01)
        rng = np.random.default_rng(39)
        lam_grid = np.array([0.5, 1.0, 2.0, 4.0, 8.0, 16.0])
        process = one_cell_process(1.0)
        scaled = one_cell_process(2.0)
        n = 4000
        sups_1 = np.empty(n)
        sups_2 = np.empty(n)
        for i in range(n):
            jumps = simulate_jumps(config, rng)
            path1 = IntegralPath.compute(process.as_field(), jumps, UNIT, config, 1.0)
            sups_1[i] = path1.sup_abs()
            sups_2[i] = 2.0 * sups_1[i]  # linearity is exact per realization
        norm_1 = 1.0  # E int |X|^alpha = 1 for the unit field on the unit window
        norm_2 = 2.0**alpha
        c1 = max(lam**alpha * float((sups_1 > lam).mean()) for lam in lam_grid) / norm_1
        c2 = max(lam**alpha * float((sups_2 > lam).mean()) for lam in lam_grid) / norm_2
        assert c2 == pytest.approx(c1, rel=0.35)
        assert c1 < 20.0

    def test_linearity_of_paths(self):
        config = unit_config(alpha=0.5, cutoff=0.01)
        jumps = simulate_jumps(config, np.random.default_rng(40))
        base = one_cell_process(1.0)
        double = one_cell_process(2.0)
        p1 = IntegralPath.compute(base.as_field(), jumps, UNIT, config, 1.0)
        p2 = IntegralPath.compute(double.as_field(), jumps, UNIT, config, 1.0)
        assert np.allclose(p2.values, 2.0 * p1.values, rtol=1e-12)


class TestMomentStability:
    def test_normalized_moment_stable_across_levels(self):
        # E|I_K(X)|^p / (K^(p - alpha) ||X||_p^p) varies by at most 25%
        # across K in {1, 2, 4} for a fixed simple field.  The window is
        # small so single jumps dominate; at order-one volumes the moment
        # crosses over to bulk scaling and the ratio drifts.
        alpha, p = 0.5, 0.75
        domain = Box.interval(0.0, 0.01)
        config = NoiseConfig(LevyMeasure.from_beta(alpha, 0.0), 1.0, domain, cutoff=1e-4)
        rng = np.random.default_rng(41)
        left, right = Box.interval(0.0, 0.005), Box.interval(0.005, 0.01)
        process = SimpleProcess(np.array([0.0, 1.0]), [[(left, 1.0), (right, 2.0)]])
        norm_p = 0.005 * 1.0**p + 0.005 * 2.0**p
        n = 30_000
        ratios = []
        vals = {k: np.empty(n) for k in (1.0, 2.0, 4.0)}
        for i in range(n):
            jumps = simulate_jumps(config, rng)
            for k in vals:
                vals[k][i] = integrate_simple(process, jumps, 1.0, domain, config, truncation=k)
        for k, arr in vals.items():
            moment = float((np.abs(arr) ** p).mean())
            ratios.append(moment / (k ** (p - alpha) * norm_p))
        spread = (max(ratios) - min(ratios)) / min(ratios)
        assert spread < 0.25


class TestIntegralPath:
    def test_cadlag_structure(self):
        config = unit_config(alpha=0.5, cutoff=0.01)
        jumps = make_jumps([0.25, 0.75], [0.4, 0.6], [1.0, -0.5], cutoff=0.01)
        path = IntegralPath.compute(one_cell_process(1.0).as_field(), jumps, UNIT, config, 1.0)
        assert list(path.times) == [0.0, 0.25, 0.75, 1.0]
        assert list(path.values) == [0.0, 1.0, 0.5, 0.5]

    def test_csv_dump(self, tmp_path):
        config = unit_config(alpha=0.5, cutoff=0.01)
        jumps = make_jumps([0.5], [0.5], [2.0], cutoff=0.01)
        path = IntegralPath.compute(one_cell_process(1.0).as_field(), jumps, UNIT, config, 1.0)
        out = tmp_path / "path.csv"
        path.save_csv(out, header_comment="test")
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "# test"
        assert lines[1] == "t,value"
        assert len(lines) == 2 + len(path.times)


class TestJumpHistory:
    def test_views_are_strictly_past(self):
        jumps = make_jumps([0.2, 0.5, 0.8], [0.1, 0.5, 0.9], [1.0, 2.0, 3.0], cutoff=0.01)
        hist = JumpHistory(jumps, 0.5)
        times, _, sizes = hist.before()
        assert list(times) == [0.2]
        assert list(sizes) == [1.0]
        assert hist.count(0.1) == 0
        with pytest.raises(PredictabilityError):
            hist.before(0.7)
