"""Stable-law core: constants, characteristic function, exact sampler."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyfield.boxes import Box
from levyfield.stable import (
    LevyMeasure,
    StableConstants,
    StableParams,
    levy_tail_mass,
    mu_shift,
    sample_stable,
    sigma_alpha_pow,
    stable_cf,
)
from levyfield.verify import ecf_sup_distance

from oracles import levy_tail_quad, osc_quad_sin_power

ALPHAS = st.floats(0.05, 1.95).filter(lambda a: abs(a - 1.0) > 1e-3)
U_GRID = np.linspace(-5.0, 5.0, 101)


class TestParams:
    def test_alpha_one_rejected(self):
        with pytest.raises(ValueError):
            StableParams(1.0)
        with pytest.raises(ValueError):
            LevyMeasure.from_beta(1.0, 0.0)

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 2.0, 2.5])
    def test_alpha_range_rejected(self, alpha):
        with pytest.raises(ValueError):
            StableParams(alpha)

    def test_bad_sigma_beta(self):
        with pytest.raises(ValueError):
            StableParams(0.5, sigma=-1.0)
        with pytest.raises(ValueError):
            StableParams(0.5, beta=1.5)

    def test_measure_weights(self):
        with pytest.raises(ValueError):
            LevyMeasure(0.5, 0.7, 0.7)
        m = LevyMeasure.from_beta(0.5, 0.4)
        assert m.p == pytest.approx(0.7)
        assert m.beta == pytest.approx(0.4)


NAN, INF = math.nan, math.inf
NON_FINITE = {
    "box-high-nan": lambda: Box((0.0,), (NAN,)),
    "box-high-inf": lambda: Box((0.0,), (INF,)),
    "box-low-inf": lambda: Box((-INF, 0.0), (1.0, 1.0)),
    "params-sigma-nan": lambda: StableParams(0.5, sigma=NAN),
    "params-sigma-inf": lambda: StableParams(0.5, sigma=INF),
    "params-beta-nan": lambda: StableParams(0.5, beta=NAN),
    "params-mu-nan": lambda: StableParams(0.5, mu=NAN),
    "params-mu-inf": lambda: StableParams(0.5, mu=-INF),
    "params-alpha-nan": lambda: StableParams(NAN),
    "measure-weights-nan": lambda: LevyMeasure(0.5, NAN, NAN),
    "measure-beta-nan": lambda: LevyMeasure.from_beta(0.5, NAN),
    "measure-alpha-nan": lambda: LevyMeasure.from_beta(NAN, 0.0),
}


@pytest.mark.parametrize("build", NON_FINITE.values(), ids=list(NON_FINITE))
def test_non_finite_inputs_rejected(build):
    with pytest.raises(ValueError):
        build()


class TestTailMass:
    def test_unit_level(self):
        for alpha in (0.3, 0.5, 1.5, 1.9):
            assert levy_tail_mass(LevyMeasure.from_beta(alpha, 0.0), 1.0) == 1.0

    def test_frozen_quadrature_values(self):
        # derived by density quadrature (oracles.levy_tail_quad)
        assert levy_tail_mass(LevyMeasure.from_beta(0.5, 0.0), 4.0) == pytest.approx(0.5, rel=1e-12)
        assert levy_tail_mass(LevyMeasure.from_beta(1.5, 0.0), 2.0) == pytest.approx(0.35355339, abs=1e-8)

    def test_oracle_agreement(self):
        for alpha, beta, t in [(0.5, 0.0, 4.0), (1.5, 0.0, 2.0), (0.8, 1.0, 0.3), (1.2, -0.6, 7.0)]:
            m = LevyMeasure.from_beta(alpha, beta)
            assert levy_tail_mass(m, t) == pytest.approx(levy_tail_quad(m, t), rel=1e-9)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            levy_tail_mass(LevyMeasure.from_beta(0.5, 0.0), 0.0)

    @given(ALPHAS, st.floats(1e-3, 1e3))
    def test_exact_scaling(self, alpha, t):
        m = LevyMeasure.from_beta(alpha, 0.0)
        assert levy_tail_mass(m, t) * t**alpha == pytest.approx(1.0, rel=1e-12)


class TestScalePower:
    def test_frozen_values(self):
        # oscillatory quadrature oracle agrees to 1e-9; values frozen from it
        assert sigma_alpha_pow(0.5) == pytest.approx(1.2533141, abs=1e-6)
        assert sigma_alpha_pow(1.5) == pytest.approx(2.5066283, abs=1e-6)

    def test_quadrature_agreement(self):
        for alpha in np.linspace(0.08, 1.92, 24):
            if abs(alpha - 1.0) < 0.05:
                continue
            assert sigma_alpha_pow(alpha) == pytest.approx(osc_quad_sin_power(alpha), abs=1e-9)

    def test_positive_on_grid(self):
        grid = [a for a in np.linspace(0.02, 1.98, 50) if abs(a - 1.0) > 1e-6]
        assert all(sigma_alpha_pow(a) > 0 for a in grid)

    def test_alpha_one_rejected(self):
        with pytest.raises(ValueError):
            sigma_alpha_pow(1.0)


class TestShift:
    def test_symmetric_zero(self):
        for alpha in (0.3, 0.7, 1.2, 1.8):
            assert mu_shift(alpha, 0.0) == 0.0

    def test_direct_substitution(self):
        assert mu_shift(1.5, 1.0) == pytest.approx(3.0)
        assert mu_shift(0.5, 1.0) == pytest.approx(-1.0)

    def test_alpha_one_rejected(self):
        with pytest.raises(ValueError):
            mu_shift(1.0, 0.5)


class TestConstants:
    def test_reciprocal_identity(self):
        for alpha in np.linspace(0.05, 1.95, 39):
            if abs(alpha - 1.0) < 1e-9:
                continue
            c = StableConstants.for_skewness(alpha, 0.3)
            assert c.tail_const * c.sigma_alpha_pow == pytest.approx(1.0, abs=1e-9)
            assert c.sigma_alpha_pow > 0


class TestCharacteristicFunction:
    def test_at_zero(self):
        assert stable_cf(StableParams(0.7, 2.0, 0.5, 1.0), 0.0) == pytest.approx(1.0)

    def test_symmetric_value(self):
        val = stable_cf(StableParams(1.5, 1.0, 0.0, 0.0), 1.0)
        assert val == pytest.approx(math.exp(-1.0))
        assert abs(val.imag) < 1e-15

    @given(
        ALPHAS,
        st.floats(0.1, 3.0),
        st.floats(-1.0, 1.0),
        st.floats(-2.0, 2.0),
        st.floats(-10.0, 10.0),
    )
    @settings(max_examples=100)
    def test_hermitian_and_bounded(self, alpha, sigma, beta, mu, u):
        params = StableParams(alpha, sigma, beta, mu)
        plus = stable_cf(params, u)
        minus = stable_cf(params, -u)
        assert minus == pytest.approx(plus.conjugate(), rel=1e-12, abs=1e-12)
        assert abs(plus) <= 1.0 + 1e-12


class TestSampler:
    @pytest.mark.parametrize("alpha,beta", [(0.5, 0.0), (0.5, 1.0), (1.5, 0.0), (1.5, -1.0), (1.2, 0.5)])
    def test_matches_own_cf(self, alpha, beta):
        rng = np.random.default_rng(101)
        params = StableParams(alpha, 1.0, beta, 0.0)
        draws = sample_stable(params, rng, 100_000)
        assert ecf_sup_distance(draws, params, U_GRID) < 0.02

    def test_symmetric_median(self):
        rng = np.random.default_rng(102)
        draws = sample_stable(StableParams(0.8, 1.0, 0.0, 0.0), rng, 100_000)
        assert abs(float(np.median(draws))) < 0.02

    def test_scaling_law(self):
        # c X follows the law with scale c sigma and shift c mu
        rng = np.random.default_rng(103)
        params = StableParams(1.5, 1.0, 0.5, 0.3)
        draws = 2.0 * sample_stable(params, rng, 100_000)
        assert ecf_sup_distance(draws, params.scaled(2.0), U_GRID) < 0.02

    def test_summation_law(self):
        # independent summands add their scale powers
        rng = np.random.default_rng(104)
        alpha, beta = 0.7, 0.4
        x1 = sample_stable(StableParams(alpha, 1.0, beta, 0.0), rng, 100_000)
        x2 = sample_stable(StableParams(alpha, 1.5, beta, 0.0), rng, 100_000)
        target = StableParams(alpha, (1.0 + 1.5**alpha) ** (1.0 / alpha), beta, 0.0)
        assert ecf_sup_distance(x1 + x2, target, U_GRID) < 0.02


class TestEmpiricalTailBound:
    LAMBDAS = np.array([1.0, 2.0, 4.0, 8.0, 16.0])

    @staticmethod
    def _sup_stat(draws, alpha):
        return max(lam**alpha * float((np.abs(draws) > lam).mean()) for lam in TestEmpiricalTailBound.LAMBDAS)

    def test_bounded_across_skewness(self):
        alpha = 1.5
        rng = np.random.default_rng(105)
        stats = []
        for beta in (-1.0, 0.0, 1.0):
            draws = sample_stable(StableParams(alpha, 1.0, beta, 0.0), rng, 200_000)
            stats.append(self._sup_stat(draws, alpha))
        assert max(stats) < 10.0 * StableConstants.for_skewness(alpha).tail_const + 1.0

    def test_scale_doubling(self):
        # common draws: the sigma = 2 statistic is bounded by 2^alpha times
        # the sigma = 1 statistic up to Monte-Carlo error
        alpha = 1.5
        rng = np.random.default_rng(106)
        base = sample_stable(StableParams(alpha, 1.0, 0.5, 0.0), rng, 200_000)
        s1 = self._sup_stat(base, alpha)
        s2 = self._sup_stat(2.0 * base, alpha)
        n = base.shape[0]
        mc = 3.0 / math.sqrt(n * 0.001)
        assert s2 <= 2.0**alpha * s1 * (1.0 + 3.0 * mc)

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_asymptotic_ratio(self, beta):
        # one-sided tail at lambda = 32 approaches tail_const (1 + beta) / 2
        alpha = 1.5
        rng = np.random.default_rng(107)
        draws = sample_stable(StableParams(alpha, 1.0, beta, 0.0), rng, 1_000_000)
        lam = 32.0
        stat = lam**alpha * float((draws > lam).mean())
        target = StableConstants.for_skewness(alpha, beta).tail_const * (1.0 + beta) / 2.0
        assert stat == pytest.approx(target, rel=0.25)
