"""Jump-field simulation: counts, box values, truncation, stopping times."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyfield.boxes import Box, SpaceTimeBox
from levyfield.noise import (
    JumpSet,
    NoiseConfig,
    compensator_band,
    first_large_jump_time,
    load_jumps_csv,
    noise_of_box,
    sample_large_jump_flags,
    sample_noise_values,
    sample_weighted_sums,
    save_jumps_csv,
    simulate_jumps,
    truncate,
)
from levyfield.stable import LevyMeasure, StableParams, sigma_alpha_pow
from levyfield.verify import ecf_sup_distance

from oracles import band_quad, simulate_jumps_partitioned

UNIT = Box.interval(0.0, 1.0)


def make_jumps(times, locs, sizes, horizon=1.0, domain=UNIT, cutoff=1e-3):
    times = np.asarray(times, dtype=float)
    locs = np.asarray(locs, dtype=float).reshape(-1, domain.dim)
    sizes = np.asarray(sizes, dtype=float)
    order = np.argsort(times, kind="stable")
    return JumpSet(times[order], locs[order], sizes[order], horizon, domain, cutoff)


def unit_config(alpha=0.5, beta=0.0, horizon=1.0, cutoff=1e-3):
    return NoiseConfig(LevyMeasure.from_beta(alpha, beta), horizon, UNIT, cutoff=cutoff)


class TestSimulate:
    def test_unit_cutoff_mean_count(self):
        config = unit_config(alpha=0.7, cutoff=1.0)
        rng = np.random.default_rng(1)
        counts = [simulate_jumps(config, rng).n for _ in range(10_000)]
        se = math.sqrt(1.0 / len(counts))
        assert abs(float(np.mean(counts)) - 1.0) < 3.0 * se

    def test_tail_mass_mean_count(self):
        config = unit_config(alpha=0.5, cutoff=0.1)
        lam = 0.1**-0.5
        assert config.expected_jump_count == pytest.approx(lam)
        rng = np.random.default_rng(2)
        counts = [simulate_jumps(config, rng).n for _ in range(10_000)]
        se = math.sqrt(lam / len(counts))
        assert abs(float(np.mean(counts)) - lam) < 3.0 * se

    def test_empty_window(self):
        config = unit_config(horizon=0.0)
        jumps = simulate_jumps(config, np.random.default_rng(3))
        assert jumps.n == 0

    def test_guard_rejects_large_window(self):
        with pytest.raises(ValueError, match="guard"):
            NoiseConfig(LevyMeasure.from_beta(1.5, 0.0), 1.0, UNIT, cutoff=1e-7)

    def test_invariants(self):
        config = unit_config(alpha=0.8, cutoff=0.01)
        jumps = simulate_jumps(config, np.random.default_rng(5))
        assert np.all(np.diff(jumps.times) >= 0)
        assert np.all(np.abs(jumps.sizes) > config.cutoff)
        assert np.all((jumps.times >= 0) & (jumps.times <= config.horizon))
        assert np.all(UNIT.contains(jumps.locations))

    def test_two_dimensional_domain(self):
        domain = Box((0.0, 0.0), (1.0, 2.0))
        config = NoiseConfig(LevyMeasure.from_beta(0.5, 0.0), 1.0, domain, cutoff=0.05)
        jumps = simulate_jumps(config, np.random.default_rng(6))
        assert jumps.locations.shape[1] == 2
        assert np.all(domain.contains(jumps.locations))


class TestBoxValues:
    def test_no_jumps_small_alpha(self):
        jumps = make_jumps([], [], [])
        config = unit_config()
        assert noise_of_box(jumps, SpaceTimeBox(0.0, 1.0, UNIT), config) == 0.0

    def test_single_jump_plain_sum(self):
        jumps = make_jumps([0.5], [0.5], [2.0])
        config = unit_config()
        assert noise_of_box(jumps, SpaceTimeBox(0.0, 1.0, UNIT), config) == 2.0

    def test_pure_compensator_value(self):
        # no jumps, skewed alpha = 1.5, cutoff 0.01: minus the band integral
        jumps = make_jumps([], [], [], cutoff=0.01)
        config = unit_config(alpha=1.5, beta=1.0, cutoff=0.01)
        got = noise_of_box(jumps, SpaceTimeBox(0.0, 1.0, UNIT), config)
        assert got == pytest.approx(-3.0 * 0.01**-0.5, rel=1e-12)
        assert got == pytest.approx(-band_quad(config.measure, 0.01, math.inf), rel=1e-9)

    def test_outside_window_rejected(self):
        jumps = make_jumps([0.5], [0.5], [2.0])
        config = unit_config()
        with pytest.raises(ValueError):
            noise_of_box(jumps, SpaceTimeBox(0.0, 2.0, UNIT), config)
        with pytest.raises(ValueError):
            noise_of_box(jumps, SpaceTimeBox(0.0, 1.0, Box.interval(0.0, 1.5)), config)

    def test_additivity_exact(self):
        config = unit_config(alpha=0.8, cutoff=0.01)
        jumps = simulate_jumps(config, np.random.default_rng(7))
        left = SpaceTimeBox(0.0, 1.0, Box.interval(0.0, 0.4))
        right = SpaceTimeBox(0.0, 1.0, Box.interval(0.4, 1.0))
        whole = SpaceTimeBox(0.0, 1.0, UNIT)
        total = noise_of_box(jumps, left, config) + noise_of_box(jumps, right, config)
        assert total == pytest.approx(noise_of_box(jumps, whole, config), rel=1e-12, abs=1e-12)

    @given(st.floats(0.1, 0.9), st.floats(0.05, 1.9).filter(lambda a: abs(a - 1) > 0.05))
    @settings(max_examples=25, deadline=None)
    def test_additivity_in_time(self, split, alpha):
        config = unit_config(alpha=alpha, beta=0.5, cutoff=0.05)
        jumps = simulate_jumps(config, np.random.default_rng(8))
        first = SpaceTimeBox(0.0, split, UNIT)
        second = SpaceTimeBox(split, 1.0, UNIT)
        whole = SpaceTimeBox(0.0, 1.0, UNIT)
        total = noise_of_box(jumps, first, config) + noise_of_box(jumps, second, config)
        assert total == pytest.approx(noise_of_box(jumps, whole, config), rel=1e-9, abs=1e-9)


class TestTruncate:
    def test_identity_when_level_large(self):
        config = unit_config(cutoff=0.05)
        jumps = simulate_jumps(config, np.random.default_rng(9))
        level = float(np.abs(jumps.sizes).max()) + 1.0
        kept = truncate(jumps, level)
        assert kept.n == jumps.n
        assert np.array_equal(kept.times, jumps.times)

    def test_empty_when_level_small(self):
        jumps = make_jumps([0.1, 0.2], [0.3, 0.6], [0.5, -0.7], cutoff=0.01)
        assert truncate(jumps, 0.2).n == 0

    def test_boundary_inclusive(self):
        jumps = make_jumps([0.1, 0.2, 0.3], [0.3, 0.6, 0.9], [0.5, 3.0, -7.0], cutoff=0.01)
        kept = truncate(jumps, 3.0)
        assert list(kept.sizes) == [0.5, 3.0]

    def test_level_below_cutoff_rejected(self):
        jumps = make_jumps([0.1], [0.3], [0.5], cutoff=0.2)
        with pytest.raises(ValueError):
            truncate(jumps, 0.1)

    def test_nan_level_rejected(self):
        # a NaN level compares false with everything, so it must not pass as "above the cutoff"
        jumps = make_jumps([0.1], [0.3], [0.5], cutoff=0.2)
        box = SpaceTimeBox(0.0, 1.0, UNIT)
        with pytest.raises(ValueError):
            truncate(jumps, math.nan)
        with pytest.raises(ValueError):
            noise_of_box(jumps, box, unit_config(cutoff=0.2), level=math.nan)
        with pytest.raises(ValueError):
            first_large_jump_time(jumps, UNIT, math.nan)


class TestTruncatedBoxValues:
    def test_symmetric_compensator_vanishes(self):
        jumps = make_jumps([], [], [], cutoff=0.01)
        config = unit_config(alpha=1.5, beta=0.0, cutoff=0.01)
        assert noise_of_box(jumps, SpaceTimeBox(0.0, 1.0, UNIT), config, level=2.0) == 0.0

    def test_banded_compensator_value(self):
        jumps = make_jumps([], [], [], cutoff=0.01)
        config = unit_config(alpha=1.5, beta=1.0, cutoff=0.01)
        got = noise_of_box(jumps, SpaceTimeBox(0.0, 1.0, UNIT), config, level=2.0)
        assert got == pytest.approx(-27.8787, abs=1e-4)
        assert got == pytest.approx(-band_quad(config.measure, 0.01, 2.0), rel=1e-9)

    def test_level_drops_only_larger_jumps(self):
        jumps = make_jumps([0.1, 0.2, 0.3], [0.3, 0.6, 0.9], [0.5, 3.0, -7.0], cutoff=0.01)
        config = unit_config(cutoff=0.01)
        window = SpaceTimeBox(0.0, 1.0, UNIT)
        assert noise_of_box(jumps, window, config, level=3.0) == 3.5
        assert noise_of_box(jumps, window, config) == -3.5
        with pytest.raises(ValueError):
            noise_of_box(jumps, window, config, level=0.005)


class TestCompensatorBand:
    def test_symmetric_zero(self):
        m = LevyMeasure.from_beta(1.5, 0.0)
        assert compensator_band(m, 0.5, 7.0).value == 0.0
        assert compensator_band(m, 1.0, math.inf).value == 0.0

    def test_full_shift(self):
        m = LevyMeasure.from_beta(1.5, 1.0)
        assert compensator_band(m, 1.0, math.inf).value == pytest.approx(3.0)

    def test_frozen_band(self):
        m = LevyMeasure.from_beta(1.5, 1.0)
        got = compensator_band(m, 2.0, math.inf).value
        assert got == pytest.approx(2.121320, abs=1e-6)
        assert got == pytest.approx(band_quad(m, 2.0, math.inf), rel=1e-9)

    def test_quadrature_agreement_finite_bands(self):
        for alpha, beta, lo, hi in [(0.5, 1.0, 0.0, 2.0), (0.7, -0.4, 0.1, 5.0), (1.5, 0.8, 0.01, 3.0)]:
            m = LevyMeasure.from_beta(alpha, beta)
            assert compensator_band(m, lo, hi).value == pytest.approx(band_quad(m, lo, hi), rel=1e-8, abs=1e-12)

    def test_divergent_rejected(self):
        with pytest.raises(ValueError):
            compensator_band(LevyMeasure.from_beta(0.5, 1.0), 1.0, math.inf)
        with pytest.raises(ValueError):
            compensator_band(LevyMeasure.from_beta(1.5, 1.0), 0.0, 1.0)


class TestFirstLargeJump:
    def test_no_jumps(self):
        jumps = make_jumps([], [], [])
        assert first_large_jump_time(jumps, UNIT, 1.0) == math.inf

    def test_single_jump(self):
        jumps = make_jumps([0.5], [0.5], [2.5], cutoff=0.01)
        assert first_large_jump_time(jumps, UNIT, 1.0) == 0.5
        assert first_large_jump_time(jumps, UNIT, 3.0) == math.inf
        assert first_large_jump_time(jumps, Box.interval(0.6, 1.0), 1.0) == math.inf

    @given(st.integers(0, 2**31), st.sampled_from([1.0, 1.5, 2.0, 4.0]))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_level(self, seed, base):
        config = unit_config(alpha=0.6, cutoff=0.5)
        jumps = simulate_jumps(config, np.random.default_rng(seed))
        t1 = first_large_jump_time(jumps, UNIT, base)
        t2 = first_large_jump_time(jumps, UNIT, base * 2.0)
        assert t2 >= t1

    def test_empirical_survival(self):
        config = unit_config(alpha=0.5, cutoff=0.9)
        rng = np.random.default_rng(11)
        n = 20_000
        hits = 0
        for _ in range(n):
            jumps = simulate_jumps(config, rng)
            if first_large_jump_time(jumps, UNIT, 1.0) > 1.0:
                hits += 1
        target = math.exp(-1.0)
        se = math.sqrt(target * (1 - target) / n)
        assert abs(hits / n - target) < 3.0 * se


class TestDistributionalLaw:
    @pytest.mark.parametrize("alpha,beta", [(0.5, 0.0), (1.5, 1.0)])
    def test_box_value_matches_stable_law(self, alpha, beta):
        measure = LevyMeasure.from_beta(alpha, beta)
        rng = np.random.default_rng(12)
        values = sample_noise_values(measure, 1.0, 1e-3, 30_000, rng)
        scale = sigma_alpha_pow(alpha) ** (1.0 / alpha)
        target = StableParams(alpha, scale, beta, 0.0)
        assert ecf_sup_distance(values, target) < 0.03 * math.sqrt(100_000 / 30_000)

    def test_farm_matches_jump_route(self):
        # the flat farm and the coordinate simulation draw from the same law
        config = unit_config(alpha=0.5, beta=0.5, cutoff=0.01)
        rng = np.random.default_rng(13)
        window = SpaceTimeBox(0.0, 1.0, UNIT)
        direct = np.array(
            [noise_of_box(simulate_jumps(config, rng), window, config) for _ in range(20_000)]
        )
        farmed = sample_noise_values(config.measure, 1.0, 0.01, 20_000, rng)
        scale = sigma_alpha_pow(0.5) ** 2.0
        target = StableParams(0.5, scale, 0.5, 0.0)
        d1 = ecf_sup_distance(direct, target)
        d2 = ecf_sup_distance(farmed, target)
        # both within the loosened tolerance for this cutoff and sample size
        assert d1 < 0.08 and d2 < 0.08

    def test_partitioned_generator_same_law(self):
        config = unit_config(alpha=0.7, beta=0.4, cutoff=0.05)
        rng = np.random.default_rng(14)
        window = SpaceTimeBox(0.0, 1.0, UNIT)
        n = 15_000
        homog = np.empty(n)
        parts = np.empty(n)
        counts_h = np.empty(n)
        counts_p = np.empty(n)
        for i in range(n):
            j1 = simulate_jumps(config, rng)
            j2 = simulate_jumps_partitioned(config, rng)
            homog[i] = noise_of_box(j1, window, config)
            parts[i] = noise_of_box(j2, window, config)
            counts_h[i] = j1.n
            counts_p[i] = j2.n
        lam = config.expected_jump_count
        se = math.sqrt(lam / n)
        assert abs(counts_h.mean() - lam) < 3 * se
        assert abs(counts_p.mean() - lam) < 3 * se
        u = np.linspace(-5, 5, 41)
        from levyfield.verify import ecf

        assert np.abs(ecf(homog, u) - ecf(parts, u)).max() < 0.05


class TestFarmGuard:
    def test_every_farm_rejects_oversized_requests(self):
        # each request expects 1e9 jumps per replicate; nothing is drawn
        measure = LevyMeasure.from_beta(1.5, 0.0)
        rng = np.random.default_rng(18)
        with pytest.raises(ValueError, match="guard"):
            sample_noise_values(measure, 1.0, 1e-6, 10, rng)
        with pytest.raises(ValueError, match="guard"):
            sample_large_jump_flags(measure, 1.0, 1e-6, 1.0, 10, rng)
        # the weighted-sum farm's window is rejected when it is built
        with pytest.raises(ValueError, match="guard"):
            NoiseConfig(measure, 1.0, UNIT, cutoff=1e-6)


class TestFarmSizes:
    MEASURE = LevyMeasure.from_beta(0.7, 0.3)

    def farms(self, n, volume=1.0):
        rng = np.random.default_rng(0)
        config = NoiseConfig(self.MEASURE, 1.0, UNIT, cutoff=0.5)
        return [
            lambda: sample_noise_values(self.MEASURE, volume, 0.5, n, rng),
            lambda: sample_large_jump_flags(self.MEASURE, volume, 0.5, 2.0, n, rng),
            lambda: sample_weighted_sums(config, lambda t, x: t, n, rng),
        ]

    @pytest.mark.parametrize("n", [-1, 2.5, math.nan, math.inf])
    def test_bad_replicate_count_rejected(self, n):
        for farm in self.farms(n):
            with pytest.raises(ValueError, match="replicate count must be a nonnegative integer"):
                farm()

    def test_integral_float_count_accepted(self):
        for farm in self.farms(1e5):
            assert farm().shape == (100_000,)

    @pytest.mark.parametrize("volume", [-1.0, math.nan, math.inf])
    def test_bad_volume_rejected(self, volume):
        for farm in self.farms(5, volume)[:2]:
            with pytest.raises(ValueError, match="volume must be finite and nonnegative"):
                farm()


class TestFarmLevels:
    @pytest.mark.parametrize("level", [math.nan, 0.01, 0.005])
    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_truncation_must_exceed_cutoff(self, alpha, level):
        config = unit_config(alpha=alpha, beta=0.5, cutoff=0.01)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="truncation level must exceed"):
            sample_noise_values(config.measure, 1.0, 0.01, 10, rng, truncation=level)
        with pytest.raises(ValueError, match="truncation level must exceed"):
            sample_weighted_sums(config, lambda t, x: t, 10, rng, truncation=level, weight_integral=0.5)

    @pytest.mark.parametrize("threshold", [math.nan, 0.5])
    def test_flag_threshold_must_exceed_cutoff(self, threshold):
        with pytest.raises(ValueError, match="must exceed"):
            sample_large_jump_flags(LevyMeasure.from_beta(0.7, 0.0), 1.0, 0.5, threshold, 10, np.random.default_rng(0))


class TestFittedTailConstant:
    def test_stable_across_volumes(self):
        # fitted tail constant sup_lambda lambda^alpha P(|Z_K(B)| > lambda) / |B|
        # varies by under 20% across |B| in {0.25, 0.5, 1}.  Levels sit inside
        # the truncation window where single jumps dominate; symmetric noise,
        # since a fully one-sided drift accumulates super-linearly at these
        # volumes (the small-volume three-sigma linearity check covers skew).
        alpha, level = 0.5, 4.0
        lams = (2.0, 3.0, 4.0)
        measure = LevyMeasure.from_beta(alpha, 0.0)
        rng = np.random.default_rng(17)
        fitted = []
        for vol in (0.25, 0.5, 1.0):
            vals = sample_noise_values(measure, vol, 0.01, 100_000, rng, truncation=level)
            stat = max(l**alpha * float((np.abs(vals) > l).mean()) for l in lams)
            fitted.append(stat / vol)
        assert max(fitted) / min(fitted) < 1.2


class TestCsvRoundTrip:
    def test_bit_exact(self, tmp_path):
        config = unit_config(alpha=0.8, cutoff=0.02)
        jumps = simulate_jumps(config, np.random.default_rng(15), seed_info="15")
        path = tmp_path / "jumps.csv"
        save_jumps_csv(jumps, path, header_comment="levyfield test")
        loaded = load_jumps_csv(path)
        assert np.array_equal(loaded.times, jumps.times)
        assert np.array_equal(loaded.locations, jumps.locations)
        assert np.array_equal(loaded.sizes, jumps.sizes)
        assert loaded.horizon == jumps.horizon
        assert loaded.cutoff == jumps.cutoff
        assert loaded.domain == jumps.domain
        assert loaded.seed_info == "15"

    def test_two_dim_round_trip(self, tmp_path):
        domain = Box((0.0, -1.0), (1.0, 1.0))
        config = NoiseConfig(LevyMeasure.from_beta(0.5, 0.0), 1.0, domain, cutoff=0.1)
        jumps = simulate_jumps(config, np.random.default_rng(16))
        path = tmp_path / "jumps2d.csv"
        save_jumps_csv(jumps, path)
        loaded = load_jumps_csv(path)
        assert np.array_equal(loaded.locations, jumps.locations)

    def test_empty_round_trip(self, tmp_path):
        jumps = make_jumps([], [], [])
        path = tmp_path / "empty.csv"
        save_jumps_csv(jumps, path)
        loaded = load_jumps_csv(path)
        assert loaded.n == 0
        assert loaded.domain == UNIT

    def test_two_dim_empty_round_trip(self, tmp_path):
        domain = Box((0.0, -1.0), (1.0, 1.0))
        jumps = make_jumps([], [], [], domain=domain)
        path = tmp_path / "empty2d.csv"
        save_jumps_csv(jumps, path)
        loaded = load_jumps_csv(path)
        assert loaded.n == 0
        assert loaded.locations.shape == (0, 2)
        assert loaded.domain == domain
