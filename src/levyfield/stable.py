"""Stable laws: parameters, characteristic function, exact sampler, jump measure.

The Chambers--Mallows--Stuck sampler is the reference oracle for every
distribution built from simulated jumps, so it stays independent of the
jump machinery in `noise`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "StableParams",
    "LevyMeasure",
    "StableConstants",
    "levy_tail_mass",
    "sigma_alpha_pow",
    "mu_shift",
    "stable_cf",
    "sample_stable",
]


def _check_alpha(alpha):
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (0, 2), got {alpha}")
    if alpha == 1.0:
        raise ValueError("alpha = 1 is not supported")


@dataclass(frozen=True)
class StableParams:
    """Stability index, scale, skewness and shift of a stable law, alpha != 1."""

    alpha: float
    sigma: float = 1.0
    beta: float = 0.0
    mu: float = 0.0

    def __post_init__(self):
        _check_alpha(self.alpha)
        if not 0 <= self.sigma < math.inf:
            raise ValueError("sigma must be finite and nonnegative")
        if not abs(self.beta) <= 1:
            raise ValueError("beta must lie in [-1, 1]")
        if not math.isfinite(self.mu):
            raise ValueError("mu must be finite")

    def scaled(self, c):
        """Parameters of c*X for c > 0."""
        if c <= 0:
            raise ValueError("c must be positive")
        return StableParams(self.alpha, c * self.sigma, self.beta, c * self.mu)


@dataclass(frozen=True)
class LevyMeasure:
    """Jump measure with density p*a*z^(-a-1) on z > 0 and q*a*(-z)^(-a-1) on z < 0.

    p + q = 1; the skewness of the laws it generates is beta = p - q.
    """

    alpha: float
    p: float
    q: float

    def __post_init__(self):
        _check_alpha(self.alpha)
        if not (self.p >= 0 and self.q >= 0 and abs(self.p + self.q - 1.0) <= 1e-12):
            raise ValueError("p and q must be nonnegative with p + q = 1")

    @classmethod
    def from_beta(cls, alpha, beta):
        if not abs(beta) <= 1:
            raise ValueError("beta must lie in [-1, 1]")
        return cls(alpha, (1.0 + beta) / 2.0, (1.0 - beta) / 2.0)

    @property
    def beta(self):
        return self.p - self.q


def levy_tail_mass(measure: LevyMeasure, t) -> float:
    """Mass of the jump measure outside [-t, t]; equals t**(-alpha)."""
    if t <= 0:
        raise ValueError("t must be positive")
    return float(t) ** (-measure.alpha)


def sigma_alpha_pow(alpha) -> float:
    """Alpha-th power of the per-unit-volume stable scale.

    Equals the conditionally convergent integral of sin(x)/x**alpha over
    (0, inf), evaluated in closed form.  Strictly positive on (0, 2) \\ {1}.
    """
    _check_alpha(alpha)
    return math.gamma(2.0 - alpha) / (1.0 - alpha) * math.cos(math.pi * alpha / 2.0)


def mu_shift(alpha, beta) -> float:
    """Location shift beta * alpha / (alpha - 1) of the unit-volume jump-built law."""
    _check_alpha(alpha)
    return beta * alpha / (alpha - 1.0)


@dataclass(frozen=True)
class StableConstants:
    """Derived constants of the unit-volume law: scale power, shift, tail constant.

    tail_const is the reciprocal of sigma_alpha_pow; the asymptotic one-sided
    tail of a standardized skew-beta law is tail_const * (1 + beta) / 2.
    """

    sigma_alpha_pow: float
    mu_shift: float
    tail_const: float

    @classmethod
    def for_skewness(cls, alpha, beta=0.0):
        s = sigma_alpha_pow(alpha)
        return cls(s, mu_shift(alpha, beta), 1.0 / s)


def stable_cf(params: StableParams, u):
    """Characteristic function at u (scalar or array); modulus never exceeds 1."""
    u_arr = np.asarray(u, dtype=float)
    a, s, b, m = params.alpha, params.sigma, params.beta, params.mu
    skew = 1.0 - 1j * np.sign(u_arr) * b * math.tan(math.pi * a / 2.0)
    out = np.exp(-np.abs(u_arr) ** a * s**a * skew + 1j * u_arr * m)
    return out if out.ndim else complex(out)


def sample_stable(params: StableParams, rng, size=None):
    """Exact stable draws via the Chambers--Mallows--Stuck transform.

    The auxiliary angle is shifted by arctan(beta tan(pi alpha / 2)) / alpha
    so that the output characteristic function is exactly
    ``stable_cf(params, .)``.

    Parameters
    ----------
    params : StableParams
    rng : numpy.random.Generator
    size : int or tuple, optional
    """
    a, b = params.alpha, params.beta
    half_pi = math.pi / 2.0
    angle = rng.uniform(-half_pi, half_pi, size)
    expo = rng.standard_exponential(size)
    tb = b * math.tan(half_pi * a)
    shift = math.atan(tb) / a
    scale = (1.0 + tb * tb) ** (1.0 / (2.0 * a))
    core = (
        scale
        * np.sin(a * (angle + shift))
        / np.cos(angle) ** (1.0 / a)
        * (np.cos(angle - a * (angle + shift)) / expo) ** ((1.0 - a) / a)
    )
    return params.sigma * core + params.mu
