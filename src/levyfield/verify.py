"""Seeded statistical verification suites with deterministic pass/fail.

Every suite draws from an explicit seed, records each assertion with its
statistic, bound and standard error, and aggregates into a `TestReport`.
Statistical tolerances are three standard errors unless a criterion pins a
different one.  `negative_control=True` applies a suite's built-in
perturbation, which must make it fail.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .boxes import Box
from .integrate import PredictableField, integrate_field
from .noise import (
    NoiseConfig,
    _check_exponent,
    sample_large_jump_flags,
    sample_noise_values,
    simulate_jumps,
)
from .stable import LevyMeasure, StableParams, sample_stable, sigma_alpha_pow, stable_cf

__all__ = [
    "Assertion",
    "TestReport",
    "ecf",
    "ecf_sup_distance",
    "ecf_test",
    "box_law",
    "ecf_suite",
    "tail_bound_suite",
    "moment_scaling_suite",
    "survival_suite",
    "local_property_suite",
    "SUITES",
    "run_suite",
]

DEFAULT_U_GRID = np.linspace(-5.0, 5.0, 101)
MIN_CF_SAMPLES = 10_000


@dataclass
class Assertion:
    name: str
    statistic: float
    bound: float
    std_error: float
    passed: bool
    provenance: str = ""

    def row(self):
        flag = "PASS" if self.passed else "FAIL"
        return (
            f"{flag} {self.name}: statistic={self.statistic:.6g} bound={self.bound:.6g}"
            f" se={self.std_error:.3g}"
        )


@dataclass
class TestReport:
    suite: str
    seed: int
    replicates: int
    entries: list = field(default_factory=list)
    wall_time: float = 0.0
    started: float = field(default_factory=time.time, init=False, repr=False)

    @property
    def passed(self):
        return all(e.passed for e in self.entries)

    def add(self, *args, **kwargs):
        self.entries.append(Assertion(*args, **kwargs))

    def finish(self):
        self.wall_time = time.time() - self.started
        return self

    def canonical_dict(self):
        """Deterministic content: everything except wall time."""
        return {
            "schema": "levyfield-report/1",
            "suite": self.suite,
            "seed": self.seed,
            "replicates": self.replicates,
            "passed": self.passed,
            "entries": [asdict(e) for e in self.entries],
        }

    def to_json(self, include_timing=True):
        payload = self.canonical_dict()
        if include_timing:
            payload["wall_time_s"] = self.wall_time
        # statistics computed in numpy may arrive as numpy scalars (np.bool_)
        return json.dumps(payload, sort_keys=True, indent=1, default=np.generic.item)

    def summary_lines(self):
        lines = [f"suite {self.suite} (seed={self.seed}, replicates={self.replicates})"]
        lines += ["  " + e.row() for e in self.entries]
        lines.append(f"  => {'PASS' if self.passed else 'FAIL'}")
        return lines


def ecf(samples, u_grid=DEFAULT_U_GRID):
    """Empirical characteristic function on a grid, row by row in reused buffers per 200,000-sample chunk."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1 or samples.size == 0 or not np.isfinite(samples).all():
        raise ValueError("ecf samples must be a nonempty 1-D array of finite values")
    out = np.zeros(len(u_grid), dtype=complex)
    for chunk in np.array_split(samples, max(1, samples.shape[0] // 200_000)):
        x, z = np.empty(chunk.shape), np.empty(chunk.shape, dtype=complex)
        for k, u in enumerate(u_grid):
            out[k] += np.exp(np.multiply(1j, np.multiply(u, chunk, out=x), out=z), out=z).sum()
    return out / samples.shape[0]


def ecf_sup_distance(samples, params: StableParams, u_grid=DEFAULT_U_GRID):
    return float(np.abs(ecf(samples, u_grid) - stable_cf(params, u_grid)).max())


def ecf_test(samples, params: StableParams, name="ecf") -> Assertion:
    """Sup-distance comparison of an empirical cf against a stable cf.

    Threshold 0.02 at 1e5 samples, scaled like n**(-1/2); at least 1e4
    samples required, degenerate samples rejected.
    """
    samples = np.asarray(samples, dtype=float)
    n = samples.shape[0]
    if n < MIN_CF_SAMPLES:
        raise ValueError(f"at least {MIN_CF_SAMPLES} samples required for the cf comparison")
    if float(samples.min()) == float(samples.max()):
        raise ValueError("degenerate sample: all values equal")
    dist = ecf_sup_distance(samples, params)
    threshold = 0.02 * math.sqrt(100_000.0 / n)
    return Assertion(name, dist, threshold, 1.0 / math.sqrt(n), dist < threshold, "cf oracle")


def box_law(measure: LevyMeasure, volume) -> StableParams:
    """Stable law of a box noise value for a region of the given volume."""
    scale = (sigma_alpha_pow(measure.alpha) * volume) ** (1.0 / measure.alpha)
    return StableParams(measure.alpha, scale, measure.beta, 0.0)


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def ecf_suite(
    alpha=0.5,
    beta=0.0,
    replicates=100_000,
    seed=1,
    negative_control=False,
    workers=1,
) -> TestReport:
    """Unit-volume box values (cutoff 1e-3) against the stable law they must follow.

    The negative control shifts the reference law's stability index by +0.3.
    """
    report = TestReport("ecf", seed, replicates)
    measure = LevyMeasure.from_beta(alpha, beta)
    rng = np.random.default_rng(seed)
    values = sample_noise_values(measure, 1.0, 1e-3, replicates, rng, workers=workers)
    ref_alpha = alpha + 0.3 * negative_control
    ref = StableParams(ref_alpha, sigma_alpha_pow(ref_alpha) ** (1.0 / ref_alpha), beta, 0.0)
    # the 0.03 floor absorbs the documented sub-cutoff bias; below 1e5
    # replicates the threshold widens with the Monte-Carlo error
    threshold = 0.03 * max(1.0, math.sqrt(100_000.0 / replicates))
    dist = ecf_sup_distance(values, ref)
    report.add(
        f"box-law alpha={alpha} beta={beta}",
        dist,
        threshold,
        1.0 / math.sqrt(replicates),
        dist < threshold,
        "jump-built law vs stable cf",
    )
    # oracle self-consistency: exact sampler against its own cf
    oracle = sample_stable(box_law(measure, 1.0), rng, replicates)
    report.entries.append(ecf_test(oracle, box_law(measure, 1.0), name="oracle self-test"))
    return report.finish()


def _sup_tail_statistic(values, alpha, lam_grid):
    """sup over the grid of lambda^alpha * empirical exceedance, with the SE
    of the entry attaining the sup."""
    values = np.abs(values)
    n = values.shape[0]
    stats = []
    for lam in lam_grid:
        p_hat = float((values > lam).mean())
        stats.append((lam**alpha * p_hat, lam**alpha * math.sqrt(max(p_hat * (1 - p_hat), 1e-12) / n)))
    idx = int(np.argmax([s for s, _ in stats]))
    return stats[idx]


def tail_bound_suite(
    alpha=0.5,
    beta=0.0,
    replicates=100_000,
    seed=2,
    negative_control=False,
    workers=1,
) -> TestReport:
    """Tail statistics of box values truncated at K = 1 and of weighted stable sums.

    Checks volume linearity of the sup tail statistic, the 1/u large-
    deviation envelope above the truncation level (alpha < 1), and the
    invariance of the weighted-sum tail under weight vectors of equal
    alpha-power mass.

    Exceedances above the truncation level need several jumps and scale
    super-linearly in volume, so the linearity check stays at levels within
    the truncation and at volumes small enough that single jumps dominate
    (for alpha > 1 also small enough that the compensated bulk cannot reach
    the lowest level).  The negative control shifts the index of the
    equivalent-weight construction by +0.3.
    """
    report = TestReport("tail", seed, replicates)
    measure = LevyMeasure.from_beta(alpha, beta)
    rng = np.random.default_rng(seed)
    if alpha < 1:
        lam_grid = np.array([0.25, 0.5, 1.0])
        volumes = (0.004, 0.008, 0.016)
    else:
        lam_grid = np.array([0.5, 0.75, 1.0])
        volumes = (0.0005, 0.001, 0.002)

    ref_volume = volumes[-1]
    stats = {}
    for v in volumes:
        vals = sample_noise_values(measure, v, 1e-3, replicates, rng, truncation=1.0, workers=workers)
        stats[v] = _sup_tail_statistic(vals, alpha, lam_grid)
    s_ref, se_ref = stats[ref_volume]
    for v in volumes[:-1]:
        s_v, se_v = stats[v]
        scaled = s_v * ref_volume / v
        se = 3.0 * math.sqrt((se_v * ref_volume / v) ** 2 + se_ref**2)
        report.add(
            f"volume-linearity |B|={v}",
            abs(scaled - s_ref),
            se,
            se / 3.0,
            abs(scaled - s_ref) <= se,
            "tail statistic linear in volume",
        )

    if alpha < 1:
        # the 1/u regime needs visible exceedances, so it runs on unit volume,
        # where the envelope is alpha/(1-alpha) * K**(1-alpha) * volume
        ld_vals = sample_noise_values(measure, 1.0, 1e-3, replicates, rng, truncation=1.0, workers=workers)
        envelope = alpha / (1.0 - alpha)
        for u in (2.0, 4.0, 8.0):
            p_hat = float((np.abs(ld_vals) > u).mean())
            se = math.sqrt(max(p_hat * (1 - p_hat), 1e-12) / replicates) * u
            stat = p_hat * u
            report.add(
                f"large-deviation u={u}K",
                stat,
                envelope * (1.0 + 3.0 * se / max(envelope, 1e-12)),
                se,
                stat <= envelope + 3.0 * se,
                "1/u envelope above the truncation level",
            )

    # weighted sums of exact stable draws: equal alpha-power mass, equal law
    base = StableParams(alpha, 1.0, beta, 0.0)
    draws = sample_stable(base, rng, (replicates, 3))
    w_flat = np.ones(3)
    sum_flat = draws @ w_flat
    eq_alpha = alpha + 0.3 * negative_control
    w_conc = np.array([3.0 ** (1.0 / eq_alpha), 0.0, 0.0])
    sum_conc = draws @ w_conc
    lam_grid_w = np.array([2.0, 4.0, 8.0, 16.0])
    s_flat, se_flat = _sup_tail_statistic(sum_flat, alpha, lam_grid_w)
    s_conc, se_conc = _sup_tail_statistic(sum_conc, alpha, lam_grid_w)
    se = 3.0 * math.sqrt(se_flat**2 + se_conc**2)
    report.add(
        "weight-invariance",
        abs(s_flat - s_conc),
        se,
        se / 3.0,
        abs(s_flat - s_conc) <= se,
        "tail bound depends on weights through the alpha-power mass only",
    )
    return report.finish()


def moment_scaling_suite(
    alpha=0.5,
    p=0.75,
    beta=0.0,
    replicates=100_000,
    seed=3,
    negative_control=False,
    workers=1,
) -> TestReport:
    """Log-log slope of the truncated p-th moment against the level K.

    Box values of volume 0.01 above cutoff 1e-4 (alpha < 1) or 1e-3, truncated
    at K = 1, 2, 4, 8.  The slope must equal p - alpha within 0.1.  The
    negative control shifts the target slope by +0.3.
    """
    _check_exponent(alpha, p)
    k_grid = (1.0, 2.0, 4.0, 8.0)
    cutoff = 1e-4 if alpha < 1 else 1e-3
    report = TestReport("moment", seed, replicates)
    measure = LevyMeasure.from_beta(alpha, beta)
    rng = np.random.default_rng(seed)
    logs = []
    ses = []
    for k in k_grid:
        vals = sample_noise_values(measure, 0.01, cutoff, replicates, rng, truncation=k, workers=workers)
        powers = np.abs(vals) ** p
        mean = float(powers.mean())
        logs.append(math.log(mean))
        ses.append(float(powers.std(ddof=1)) / (mean * math.sqrt(replicates)))
    x = np.log(np.asarray(k_grid, dtype=float))
    slope = float(np.polyfit(x, np.array(logs), 1)[0])
    denom = float(((x - x.mean()) ** 2).sum())
    slope_se = math.sqrt(sum(se**2 * (xi - x.mean()) ** 2 for se, xi in zip(ses, x)) / denom**2)
    target = (p - alpha) + 0.3 * negative_control
    report.add(
        f"moment-slope alpha={alpha} p={p}",
        slope,
        target,
        slope_se,
        abs(slope - target) <= 0.1,
        "p-th moment grows like K^(p-alpha)",
    )
    return report.finish()


def survival_suite(
    alpha=0.5,
    beta=0.0,
    k_grid=(1.0, 2.0, 4.0),
    replicates=10_000,
    seed=4,
    negative_control=False,
) -> TestReport:
    """No-oversized-jump probability against its exponential formula.

    In a window of unit space-time volume, simulated above 0.9 min(k_grid),
    P(no jump of modulus > K) = exp(-K^(-alpha)), within three binomial
    standard errors per level.  The negative control shifts alpha in the
    reference formula by +0.3 (levels K > 1 give it power).
    """
    report = TestReport("survival", seed, replicates)
    measure = LevyMeasure.from_beta(alpha, beta)
    rng = np.random.default_rng(seed)
    cutoff = 0.9 * min(k_grid)
    ref_alpha = alpha + 0.3 * negative_control
    for k in k_grid:
        flags = sample_large_jump_flags(measure, 1.0, cutoff, k, replicates, rng)
        p_hat = float((~flags).mean())
        target = math.exp(-(k ** (-ref_alpha)))
        se = math.sqrt(max(target * (1 - target), 1e-12) / replicates)
        report.add(
            f"survival K={k}",
            p_hat,
            target,
            se,
            abs(p_hat - target) <= 3.0 * se,
            "exponential law of the first oversized jump",
        )
    return report.finish()


def local_property_suite(
    alpha=0.5,
    beta=0.0,
    replicates=200,
    seed=5,
    negative_control=False,
) -> TestReport:
    """Exact zero integrals on realizations where the integrand vanishes.

    The integrand is a deterministic profile masked to zero whenever the
    realization on (0, 1] x (0, 1) has fewer than three jumps (a
    window-measurable predicate).  On every masked realization both the full
    and the K = 1 truncated integrals must be exactly zero.  The negative
    control drops the mask.  Both integrands are bilinear in (t, x), so a
    2-point Gauss rule integrates their compensators exactly.
    """
    report = TestReport("local", seed, replicates)
    measure = LevyMeasure.from_beta(alpha, beta)
    domain = Box.interval(0.0, 1.0)
    # aim for about two jumps per window so the sparse predicate fires
    config = NoiseConfig(measure, 1.0, domain, cutoff=min(0.5, 2.0 ** (-1.0 / alpha)))
    rng = np.random.default_rng(seed)
    masked_hits = 0
    masked_nonzero = 0
    masked_nonzero_trunc = 0
    for _ in range(replicates):
        jumps = simulate_jumps(config, rng)
        if jumps.n >= 3:
            continue
        masked_hits += 1
        if negative_control:
            rule = lambda t, x, hist: (1.0 + t) * (1.0 + x)
        else:
            rule = lambda t, x, hist: 0.0
        profile = PredictableField(rule, name="masked-profile")
        full = integrate_field(profile, jumps, 1.0, domain, config, n_nodes=2)
        trunc = integrate_field(profile, jumps, 1.0, domain, config, truncation=1.0, n_nodes=2)
        if full != 0.0:
            masked_nonzero += 1
        if trunc != 0.0:
            masked_nonzero_trunc += 1
    report.add(
        "vanishing-event zeros (full)",
        float(masked_nonzero),
        0.0,
        0.0,
        masked_nonzero == 0 and masked_hits > 0,
        f"{masked_hits} masked realizations",
    )
    report.add(
        "vanishing-event zeros (truncated)",
        float(masked_nonzero_trunc),
        0.0,
        0.0,
        masked_nonzero_trunc == 0 and masked_hits > 0,
        f"{masked_hits} masked realizations",
    )
    return report.finish()


SUITES = {
    "ecf": ecf_suite,
    "tail": tail_bound_suite,
    "moment": moment_scaling_suite,
    "survival": survival_suite,
    "local": local_property_suite,
}


def run_suite(name, **kwargs) -> TestReport:
    if name not in SUITES:
        raise KeyError(f"unknown suite '{name}'; available: {', '.join(sorted(SUITES))}")
    return SUITES[name](**kwargs)
