"""Verification harness: suites, tolerances, determinism, negative controls."""

import json

import numpy as np
import pytest

from levyfield.stable import StableParams, sample_stable
from levyfield.verify import (
    SUITES,
    box_law,
    ecf,
    ecf_suite,
    ecf_test,
    local_property_suite,
    moment_scaling_suite,
    run_suite,
    survival_suite,
    tail_bound_suite,
)

# suite defaults sized down so this module stays fast; the acceptance module
# runs the full-size versions
FAST = dict(replicates=20_000)


class TestEcfTest:
    def test_self_consistency_passes(self):
        rng = np.random.default_rng(71)
        params = StableParams(1.2, 1.0, 0.3, 0.0)
        draws = sample_stable(params, rng, 100_000)
        entry = ecf_test(draws, params)
        assert entry.passed

    def test_wrong_alpha_fails(self):
        rng = np.random.default_rng(72)
        params = StableParams(1.2, 1.0, 0.3, 0.0)
        draws = sample_stable(params, rng, 100_000)
        wrong = StableParams(1.5, 1.0, 0.3, 0.0)
        assert not ecf_test(draws, wrong).passed

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            ecf_test(np.zeros(0) + 1.0, StableParams(1.2))
        with pytest.raises(ValueError):
            ecf_test(np.random.default_rng(0).normal(size=5000), StableParams(1.2))

    def test_degenerate_samples_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            ecf_test(np.ones(20_000), StableParams(1.2))

    def test_nonfinite_samples_rejected(self):
        draws = sample_stable(StableParams(1.2), np.random.default_rng(73), 20_000)
        draws[7] = np.nan
        with pytest.raises(ValueError, match="finite"):
            ecf_test(draws, StableParams(1.2))


@pytest.mark.parametrize(
    "samples", [np.zeros(0), np.ones((3, 2)), np.array([1.0, np.nan]), np.array([np.inf, 1.0])], ids=["empty", "2d", "nan", "inf"]
)
def test_ecf_rejects_bad_samples(samples):
    with pytest.raises(ValueError, match="nonempty 1-D array of finite values"):
        ecf(samples)


class TestSuitePasses:
    def test_ecf_suite(self):
        report = ecf_suite(alpha=0.5, beta=0.0, seed=1, **FAST)
        assert report.passed

    def test_tail_suite(self):
        report = tail_bound_suite(alpha=0.5, beta=0.0, seed=2, replicates=50_000)
        assert report.passed

    def test_moment_suite(self):
        report = moment_scaling_suite(alpha=0.5, p=0.75, seed=3, replicates=50_000)
        assert report.passed

    @pytest.mark.parametrize("alpha, p", [(0.5, 0.4), (0.5, 1.0), (1.5, 1.2), (1.5, 2.1), (0.5, float("nan"))])
    def test_moment_suite_rejects_exponent_outside_window(self, alpha, p):
        with pytest.raises(ValueError, match="moment exponent"):
            moment_scaling_suite(alpha=alpha, p=p)

    def test_survival_suite(self):
        report = survival_suite(alpha=1.5, seed=4, replicates=10_000)
        assert report.passed

    def test_survival_monotone_with_limit_sanity(self):
        # survival probabilities grow with the level; at K = 64 the window is
        # effectively never hit for alpha = 1.5
        report = survival_suite(alpha=1.5, k_grid=(1.0, 2.0, 4.0, 64.0), seed=4, replicates=10_000)
        stats = [e.statistic for e in report.entries]
        assert stats == sorted(stats)
        assert stats[-1] >= 0.9

    def test_local_suite_both_regimes(self):
        assert local_property_suite(alpha=0.5, seed=5).passed
        assert local_property_suite(alpha=1.5, beta=1.0, seed=5).passed


class TestNegativeControls:
    def test_every_suite_fails_under_its_perturbation(self):
        controls = {
            "ecf": FAST,
            "tail": dict(replicates=50_000),
            "moment": dict(replicates=50_000),
            "survival": dict(replicates=10_000),
            "local": {},
        }
        for name, kwargs in controls.items():
            report = run_suite(name, seed=11, negative_control=True, **kwargs)
            assert not report.passed, f"suite {name} must fail under its control"


class TestReports:
    def test_determinism_byte_identical(self):
        a = survival_suite(alpha=0.5, seed=9, replicates=5_000)
        b = survival_suite(alpha=0.5, seed=9, replicates=5_000)
        assert a.to_json(include_timing=False) == b.to_json(include_timing=False)

    def test_seed_changes_content(self):
        a = survival_suite(alpha=0.5, seed=9, replicates=5_000)
        b = survival_suite(alpha=0.5, seed=10, replicates=5_000)
        assert a.to_json(include_timing=False) != b.to_json(include_timing=False)

    def test_schema_fields(self):
        report = survival_suite(alpha=0.5, seed=9, replicates=5_000)
        payload = json.loads(report.to_json())
        assert payload["schema"] == "levyfield-report/1"
        assert payload["suite"] == "survival"
        assert "wall_time_s" in payload
        assert all(
            set(e) == {"name", "statistic", "bound", "std_error", "passed", "provenance"}
            for e in payload["entries"]
        )

    def test_tail_report_json_parses(self):
        # the tail suite's verdicts are numpy booleans; the JSON must still
        # write them as true/false while canonical_dict keeps them as they are
        report = tail_bound_suite(alpha=0.5, seed=2, replicates=2_000)
        assert any(isinstance(e.passed, np.bool_) for e in report.entries)
        payload = json.loads(report.to_json())
        assert all(isinstance(e["passed"], bool) for e in payload["entries"])
        assert [e["passed"] for e in payload["entries"]] == [bool(e.passed) for e in report.entries]
        assert isinstance(report.canonical_dict()["entries"][0]["passed"], np.bool_)

    def test_summary_lines_carry_verdict(self):
        report = survival_suite(alpha=0.5, seed=9, replicates=5_000)
        lines = report.summary_lines()
        assert lines[-1].endswith("PASS") or lines[-1].endswith("FAIL")

    def test_unknown_suite(self):
        with pytest.raises(KeyError):
            run_suite("nope")
        assert set(SUITES) == {"ecf", "tail", "moment", "survival", "local"}


class TestBoxLaw:
    def test_scale_composition(self):
        from levyfield.stable import LevyMeasure, sigma_alpha_pow

        m = LevyMeasure.from_beta(0.5, -0.5)
        law = box_law(m, 2.0)
        assert law.alpha == 0.5
        assert law.beta == -0.5
        assert law.sigma == pytest.approx((sigma_alpha_pow(0.5) * 2.0) ** 2.0)
