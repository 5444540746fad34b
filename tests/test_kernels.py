"""Green kernels: point values, integrability functionals, moduli."""

import math

import numpy as np
import pytest
from scipy import integrate as si

from levyfield import kernels
from levyfield.boxes import Box
from levyfield.kernels import (
    KernelKind,
    KernelSpec,
    eval_kernel,
    i_alpha,
    i_alpha_finite,
    j_p,
    space_shift_modulus,
    subordinator_density,
    time_shift_modulus,
)

from oracles import (
    cable_i_alpha_quad,
    fourier_fractional_kernel,
    gaussian_heat_lp,
    heat_i_alpha_quad,
    wave1d_i_alpha_quad,
    wave2d_i_alpha_quad,
)

HEAT1 = KernelSpec(KernelKind.HEAT_FREE)
HEAT2 = KernelSpec(KernelKind.HEAT_FREE, dim=2)
DIRICHLET = KernelSpec(KernelKind.HEAT_DIRICHLET_INTERVAL)
CABLE = KernelSpec(KernelKind.CABLE)
WAVE1 = KernelSpec(KernelKind.WAVE_1D)
WAVE2 = KernelSpec(KernelKind.WAVE_2D, dim=2)
FRAC_HALF = KernelSpec(KernelKind.FRACTIONAL_HEAT, gamma=0.5)


class TestSpecValidation:
    def test_dim_constraints(self):
        with pytest.raises(ValueError):
            KernelSpec(KernelKind.WAVE_1D, dim=2)
        with pytest.raises(ValueError):
            KernelSpec(KernelKind.WAVE_2D, dim=1)
        with pytest.raises(ValueError):
            KernelSpec(KernelKind.CABLE, dim=2)

    def test_domain_dimension_matches_kernel(self):
        with pytest.raises(ValueError, match="dimension"):
            KernelSpec(KernelKind.WAVE_1D, domain=Box((0.0, 0.0), (1.0, 1.0)))
        with pytest.raises(ValueError, match="dimension"):
            KernelSpec(KernelKind.HEAT_FREE, dim=2, domain=Box.interval(0.0, 1.0))

    def test_gamma_constraints(self):
        with pytest.raises(ValueError):
            KernelSpec(KernelKind.FRACTIONAL_HEAT, gamma=1.5)
        with pytest.raises(ValueError):
            KernelSpec(KernelKind.FRACTIONAL_HEAT)
        with pytest.raises(ValueError):
            KernelSpec(KernelKind.HEAT_FREE, gamma=0.5)

    def test_interval_domain_pinned(self):
        assert DIRICHLET.domain == Box.interval(0.0, 1.0)
        with pytest.raises(ValueError):
            KernelSpec(KernelKind.HEAT_DIRICHLET_INTERVAL, domain=Box.interval(0.0, 2.0))


class TestPointValues:
    def test_heat_normalization(self):
        for t in (0.1, 1.0, 3.0):
            val, _ = si.quad(lambda x: eval_kernel(HEAT1, t, x, 0.0), -np.inf, np.inf)
            assert val == pytest.approx(1.0, abs=1e-9)

    def test_heat_peak_value(self):
        assert eval_kernel(HEAT1, 1.0, 0.0, 0.0) == pytest.approx((2 * math.pi) ** -0.5)

    def test_wave_plateau(self):
        assert eval_kernel(WAVE1, 2.0, 0.3, 1.0) == 0.5
        assert eval_kernel(WAVE1, 0.5, 0.0, 1.0) == 0.0

    def test_wave2d_singular_ring_flagged(self):
        assert eval_kernel(WAVE2, 1.0, (0.0, 0.0), (1.0, 0.0)) == math.inf
        assert eval_kernel(WAVE2, 1.0, (0.0, 0.0), (2.0, 0.0)) == 0.0
        inside = eval_kernel(WAVE2, 1.0, (0.0, 0.0), (0.5, 0.0))
        assert inside == pytest.approx(1.0 / (2 * math.pi * math.sqrt(0.75)))

    def test_nonpositive_time_rejected(self):
        with pytest.raises(ValueError):
            eval_kernel(HEAT1, 0.0, 0.0, 0.0)

    def test_cable_value(self):
        t, x = 0.7, 0.4
        expected = (4 * math.pi * t) ** -0.5 * math.exp(-(x**2) / (4 * t) - t)
        assert eval_kernel(CABLE, t, x, 0.0) == pytest.approx(expected)


class TestDirichletInterval:
    def test_symmetry_exact(self):
        for t, x, y in [(0.3, 0.2, 0.7), (0.05, 0.9, 0.1), (1.5, 0.5, 0.6)]:
            assert eval_kernel(DIRICHLET, t, x, y) == pytest.approx(
                eval_kernel(DIRICHLET, t, y, x), rel=1e-14, abs=1e-300
            )

    def test_dominated_by_free_kernel(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            t = float(rng.uniform(0.01, 2.0))
            x, y = rng.uniform(0.0, 1.0, 2)
            g = float(eval_kernel(DIRICHLET, t, x, y))
            g_free = float(eval_kernel(HEAT1, t, x - y, 0.0))
            assert 0.0 <= g <= g_free + 1e-13

    def test_boundary_absorption(self):
        assert eval_kernel(DIRICHLET, 0.2, 0.0, 0.5) == pytest.approx(0.0, abs=1e-13)
        assert eval_kernel(DIRICHLET, 0.2, 1.0, 0.5) == pytest.approx(0.0, abs=1e-13)


class TestPerTimeEvaluation:
    """`_eval_kernel_per_t` has the bytes of one `eval_kernel` call per t."""

    @pytest.mark.parametrize("spec", [HEAT1, DIRICHLET, CABLE], ids=["heat", "dirichlet", "cable"])
    def test_equals_one_call_per_t(self, spec):
        rng = np.random.default_rng(37)
        # log-uniform t from 1e-4 to 2 spans one to many image shells
        ts = np.exp(rng.uniform(math.log(1e-4), math.log(2.0), 2000))
        ys = rng.uniform(0.0, 1.0, (4, 8))
        batch = kernels._eval_kernel_per_t(spec, ts, 0.3, ys)
        assert batch.tobytes() == np.stack([eval_kernel(spec, t, 0.3, ys) for t in ts]).tobytes()

    def test_fractional_equals_one_call_per_t(self):
        spec = KernelSpec(KernelKind.FRACTIONAL_HEAT, gamma=0.7)
        ts, ys = np.array([0.3, 1.1]), np.array([[0.1, 0.5], [0.6, 0.9]])
        batch = kernels._eval_kernel_per_t(spec, ts, 0.4, ys)
        assert batch.tobytes() == np.stack([eval_kernel(spec, t, 0.4, ys) for t in ts]).tobytes()


class TestChapmanKolmogorov:
    def test_heat_semigroup(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            s, t = rng.uniform(0.05, 1.0, 2)
            x, y = rng.uniform(-1.0, 1.0, 2)
            val, _ = si.quad(
                lambda z: eval_kernel(HEAT1, s, x, z) * eval_kernel(HEAT1, t, z, y),
                -12.0,
                12.0,
                limit=200,
            )
            assert val == pytest.approx(float(eval_kernel(HEAT1, s + t, x, y)), abs=1e-6)


class TestSubordination:
    def test_half_order_matches_fourier_inversion(self):
        # two independent quadrature routes for the same kernel
        for t in (0.5, 1.0, 2.0):
            xs = np.linspace(0.0, 5.0, 11)
            worst = max(
                abs(eval_kernel(FRAC_HALF, t, x, 0.0) - fourier_fractional_kernel(0.5, t, x))
                for x in xs
            )
            assert worst < 1e-5

    def test_normalization(self):
        # j_p at p = 1 is the kernel's total mass; one density memo spans its quadrature
        for gamma in (0.5, 0.7):
            mass = j_p(KernelSpec(KernelKind.FRACTIONAL_HEAT, gamma=gamma), 1.0, 1.0)
            assert mass == pytest.approx(1.0, abs=1e-6)

    def test_density_switch_is_continuous(self):
        for gamma in (0.3, 0.7, 0.75, 0.9):
            below = subordinator_density(gamma, 10.0 - 1e-9)
            above = subordinator_density(gamma, 10.0 + 1e-9)
            assert below == pytest.approx(above, rel=1e-7)

    def test_gamma_range(self):
        with pytest.raises(ValueError):
            subordinator_density(0.0, 1.0)

    def test_scaling_slope(self):
        # spatial Lp mass scales like t^(-d (p - 1) / (2 gamma))
        ts = np.array([0.5, 1.0, 2.0, 4.0])
        for p in (1.5, 2.0):
            vals = np.array([j_p(FRAC_HALF, t, p) for t in ts])
            slope = float(np.polyfit(np.log(ts), np.log(vals), 1)[0])
            assert slope == pytest.approx(-(p - 1.0), abs=0.05)


class TestDensityMemo:
    """The subordinator-density memo lives for one call and is order-free."""

    @pytest.fixture
    def quad_calls(self, monkeypatch):
        calls = []
        original = kernels._si.quad

        def counting(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)

        monkeypatch.setattr(kernels._si, "quad", counting)
        return calls

    def test_no_state_outlives_a_call(self, quad_calls):
        spec = KernelSpec(KernelKind.FRACTIONAL_HEAT, gamma=0.7)
        first = j_p(spec, 1.0, 2.0)
        n_first = len(quad_calls)
        second = j_p(spec, 1.0, 2.0)
        assert len(quad_calls) == 2 * n_first
        assert first == second
        # without the memo this call makes about 17,900 quad calls
        assert n_first < 17_832

    def test_array_equals_reversed_scalar_calls(self):
        rng = np.random.default_rng(36)
        t, x, y = rng.uniform(0.25, 2.0, 4), rng.uniform(-2.0, 2.0, 4), rng.uniform(-0.5, 0.5, 4)
        spec = KernelSpec(KernelKind.FRACTIONAL_HEAT, gamma=0.7)
        batch = eval_kernel(spec, t, x, y)
        scalar = [eval_kernel(spec, t[i], x[i], y[i]) for i in range(3, -1, -1)][::-1]
        assert batch.tobytes() == np.array(scalar).tobytes()


class TestIAlpha:
    def test_wave1d_closed_form(self):
        got = i_alpha(WAVE1, 2.0, 0.5)
        assert got == pytest.approx(2.828427, abs=1e-6)
        assert got == pytest.approx(wave1d_i_alpha_quad(0.5, 2.0), rel=1e-6)

    def test_wave2d_closed_form(self):
        got = i_alpha(WAVE2, 1.0, 0.5)
        # (2 pi)^(1/2) / (1.5 * 2.5), frozen from the radial quadrature oracle
        assert got == pytest.approx(0.6684342, abs=1e-6)
        assert got == pytest.approx(wave2d_i_alpha_quad(0.5, 1.0), rel=1e-6)

    def test_heat_gaussian_moment_oracle(self):
        got = i_alpha(HEAT1, 1.0, 0.5)
        # frozen from the Gaussian-moment oracle (also confirmed by a fully
        # numeric space-time double quadrature)
        assert got == pytest.approx(1.7912242, abs=1e-6)
        assert got == pytest.approx(heat_i_alpha_quad(1, 0.5, 1.0), rel=1e-6)

    def test_cable_quadrature_oracle(self):
        for alpha, t in [(0.5, 1.0), (1.3, 0.7), (1.9, 2.0)]:
            assert i_alpha(CABLE, t, alpha) == pytest.approx(cable_i_alpha_quad(alpha, t), rel=1e-6)

    def test_heat_finiteness_gate(self):
        # planar heat: every admissible alpha < 1 + 2/d = 2 stays finite
        assert math.isfinite(i_alpha(HEAT2, 1.0, 1.9))
        assert i_alpha_finite(HEAT2, 1.9999)
        assert i_alpha_finite(HEAT1, 1.95)

    def test_fractional_gate(self):
        spec = KernelSpec(KernelKind.FRACTIONAL_HEAT, gamma=0.75)
        assert i_alpha(spec, 1.0, 1.7) == math.inf
        assert math.isfinite(i_alpha(spec, 1.0, 1.2))
        # spatial heavy tail: very small alpha diverges too
        assert i_alpha(KernelSpec(KernelKind.FRACTIONAL_HEAT, gamma=0.5), 1.0, 0.4) == math.inf

    def test_monotone_in_time(self):
        for spec, alpha in [(WAVE1, 0.5), (HEAT1, 0.9), (CABLE, 1.2), (WAVE2, 1.5)]:
            ts = [0.25, 0.5, 1.0, 2.0, 4.0]
            vals = [i_alpha(spec, t, alpha) for t in ts]
            assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_bounded_domain_below_free(self):
        bounded = i_alpha(DIRICHLET, 1.0, 0.5)
        assert 0.0 < bounded <= i_alpha(HEAT1, 1.0, 0.5)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            i_alpha(WAVE1, 0.0, 0.5)
        with pytest.raises(ValueError):
            i_alpha(WAVE1, 1.0, 2.5)


class TestJp:
    def test_heat_unit_mass(self):
        for t in (0.3, 1.0, 5.0):
            assert j_p(HEAT1, t, 1.0) == pytest.approx(1.0)

    def test_heat_square_mass(self):
        got = j_p(HEAT1, 1.0, 2.0)
        assert got == pytest.approx(0.282095, abs=1e-6)
        assert got == pytest.approx(gaussian_heat_lp(1, 2.0, 1.0), rel=1e-12)

    def test_interval_below_free(self):
        rng = np.random.default_rng(23)
        for _ in range(12):
            t = float(rng.uniform(0.05, 2.0))
            p = float(rng.uniform(0.3, 2.0))
            assert j_p(DIRICHLET, t, p) <= j_p(HEAT1, t, p) + 1e-12

    def test_wave_forms(self):
        assert j_p(WAVE1, 2.0, 0.5) == pytest.approx(2.0**0.5 * 2.0)
        assert j_p(WAVE2, 1.0, 2.0) == math.inf

    def test_functionals_bundle(self):
        # the pair the `kernels` command tabulates: 2^-alpha t^2 and 2^(1-p) t
        assert i_alpha(WAVE1, 2.0, 0.5) == pytest.approx(2.0**-0.5 * 4.0)
        assert j_p(WAVE1, 2.0, 0.75) == pytest.approx(2.0**0.25 * 2.0)


class TestShiftModuli:
    def test_time_modulus_decreases_as_shift_halves(self):
        vals = [time_shift_modulus(DIRICHLET, 1.0, 0.75, h, 0.5) for h in (0.1, 0.05, 0.025)]
        assert vals[0] > vals[1] > vals[2] > 0

    def test_space_modulus_decreases_as_shift_halves(self):
        vals = [space_shift_modulus(DIRICHLET, 1.0, 0.75, h, 0.3) for h in (0.1, 0.05, 0.025)]
        assert vals[0] > vals[1] > vals[2] > 0
