"""Green kernels, their alpha-integrability functional, and sup-Lp functional.

Five kernel families: free-space heat (d in {1, 2}), heat on the unit
interval with absorbing boundary (method of images), subordinated fractional
heat, cable, and the wave kernels in d = 1, 2.  `i_alpha` is the space-time
integral of G**alpha up to time t (infinite exactly when the exponent
condition for the kind fails); `j_p` is the spatial Lp mass sup over source
points.

The fractional kernel's values come from `eval_kernel` on its spec; that,
`subordinator_density` and `i_alpha`/`j_p` memoize, for one call only,
the subordinator density at each exact s of its integral branch
(0 < s < 10, gamma != 1/2) and that integral's angular factor at each theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np
from scipy import integrate as _si
from scipy import special as _sp

from .boxes import Box

__all__ = [
    "KernelKind",
    "KernelSpec",
    "eval_kernel",
    "subordinator_density",
    "i_alpha",
    "j_p",
    "i_alpha_finite",
    "time_shift_modulus",
    "space_shift_modulus",
]


class KernelKind(str, Enum):
    HEAT_FREE = "heat_free"
    HEAT_DIRICHLET_INTERVAL = "heat_dirichlet_interval"
    FRACTIONAL_HEAT = "fractional_heat"
    CABLE = "cable"
    WAVE_1D = "wave_1d"
    WAVE_2D = "wave_2d"


_KIND_DIMS = {
    KernelKind.HEAT_FREE: (1, 2),
    KernelKind.HEAT_DIRICHLET_INTERVAL: (1,),
    KernelKind.FRACTIONAL_HEAT: (1,),
    KernelKind.CABLE: (1,),
    KernelKind.WAVE_1D: (1,),
    KernelKind.WAVE_2D: (2,),
}


@dataclass(frozen=True)
class KernelSpec:
    """One Green kernel: kind, dimension, optional bounded evaluation domain.

    `domain=None` means the whole space.  The interval kernel pins the domain
    to (0, 1).  `gamma` is the subordination order of the fractional kernel,
    restricted to (0, 1]; gamma = 1 falls back to the unsubordinated heat
    flow it is built from.
    """

    kind: KernelKind
    dim: int = 1
    gamma: float | None = None
    domain: Box | None = None

    def __post_init__(self):
        if self.dim not in _KIND_DIMS[self.kind]:
            raise ValueError(f"{self.kind.value} supports dimensions {_KIND_DIMS[self.kind]}")
        if self.kind is KernelKind.FRACTIONAL_HEAT:
            if self.gamma is None or not 0.0 < self.gamma <= 1.0:
                raise ValueError("fractional kernel needs gamma in (0, 1]")
        elif self.gamma is not None:
            raise ValueError("gamma applies only to the fractional kernel")
        if self.domain is not None and self.domain.dim != self.dim:
            raise ValueError("kernel domain dimension must match the kernel dimension")
        if self.kind is KernelKind.HEAT_DIRICHLET_INTERVAL:
            dom = self.domain or Box.interval(0.0, 1.0)
            if dom.lows != (0.0,) or dom.highs != (1.0,):
                raise ValueError("interval kernel is defined on (0, 1)")
            object.__setattr__(self, "domain", dom)


def _sqdist(x, y, dim):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if dim == 1:
        return (x - y) ** 2
    return ((x - y) ** 2).sum(axis=-1)


def _gauss(t, sq, dim, diffusivity):
    # (2 pi c t)^{-d/2} exp(-sq / (2 c t)) with c the variance rate
    var = diffusivity * t
    return (2.0 * math.pi * var) ** (-dim / 2.0) * np.exp(-sq / (2.0 * var))


def _gaussian_kind(spec, t, x, y, per_t):
    """G(t, x, y) for the Gaussian kinds; None for the wave and subordinated kernels.

    `per_t`: `t` is 1-D, on a leading axis of the result, with the bytes of one
    call per t.  An array `**` rounds unlike a scalar one and the shell count
    follows a call's largest t, so factors of t alone are then made per t.
    """
    if spec.kind in (KernelKind.WAVE_1D, KernelKind.WAVE_2D) or spec.gamma not in (None, 1.0):
        return None
    sq = _sqdist(x, y, spec.dim)
    t = t.reshape(t.shape + (1,) * sq.ndim) if per_t else t

    def each(fn, a):
        return np.array([fn(v) for v in a.flat]).reshape(a.shape) if per_t else fn(a)

    var = (2.0 if spec.kind in (KernelKind.CABLE, KernelKind.FRACTIONAL_HEAT) else 1.0) * t  # variance rate
    pref = each(lambda v: (2.0 * math.pi * v) ** (-spec.dim / 2.0), var)

    def gauss(sq):  # _gauss with the prefactor computed once
        return pref * np.exp(-sq / (2.0 * var))

    if spec.kind is KernelKind.HEAT_DIRICHLET_INTERVAL:
        return _image_sum(gauss, x, y, each(_image_shells, t) if per_t else _image_shells(float(np.max(t))))
    out = gauss(sq)
    return out * each(np.exp, -t) if spec.kind is KernelKind.CABLE else out


_IMAGE_TOL = 1e-14


def _image_shells(t):
    # image shells 2n +/- offsets decay like exp(-(2n-2)^2 / (2 t)); stop when
    # the largest possible new term falls below the series tolerance
    n_max = 1
    while n_max < 64:
        bound = (2.0 * math.pi * t) ** -0.5 * math.exp(-((2 * n_max - 2) ** 2) / (2.0 * t))
        if bound < _IMAGE_TOL:
            break
        n_max += 1
    return n_max


def _image_sum(gauss, x, y, shells):
    # heat kernel on (0, 1) by images of the free kernel `gauss(sq)`, in +/- k pairs
    # (pair sums commute: the source-target swap is exact); `shells` is one count,
    # or one per element (no shell past an element's own count)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any((x < 0) | (x > 1) | (y < 0) | (y > 1)):
        raise ValueError("interval kernel arguments must lie in [0, 1]")
    u = x - y
    v = x + y
    total = gauss(u**2) - gauss(v**2)
    for k in range(1, int(np.max(shells)) + 1):
        new = total + (gauss((u + 2.0 * k) ** 2) + gauss((u - 2.0 * k) ** 2))
        new -= gauss((v + 2.0 * k) ** 2) + gauss((v - 2.0 * k) ** 2)
        total = new if np.ndim(shells) == 0 else np.where(k <= shells, new, total)
    return np.maximum(total, 0.0)


def subordinator_density(gamma, s):
    """Density of the unit-time one-sided stable subordinator of order gamma.

    Closed form for gamma = 1/2.  Otherwise: for s < 10 the single-integral
    representation over (0, pi) (well conditioned there), for s >= 10 the
    convergent series in powers of s**(-gamma).  Accuracy degrades as gamma
    approaches 1, where the integrand concentrates into a spike; the orders
    exercised here stay at or below 0.9.  The angular factor of the integral
    is memoized for this call only.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    return _density(gamma, float(s), ({}, {}))


def _density(gamma, s, memo):
    # memo = (density by exact s, angular factor by exact theta), owned by
    # one top-level call; only the integral branch is stored
    if s <= 0.0:
        return 0.0
    if gamma == 0.5:
        return s ** (-1.5) * math.exp(-1.0 / (4.0 * s)) / (2.0 * math.sqrt(math.pi))
    g = gamma
    if s >= 10.0:
        total = 0.0
        for k in range(1, 400):
            envelope = _sp.gamma(k * g + 1.0) / _sp.gamma(k + 1.0) * s ** (-k * g - 1.0)
            total += (-1.0) ** (k + 1) * envelope * math.sin(math.pi * k * g)
            # the sine factor can vanish at rational gamma, so convergence is
            # judged on the sine-free envelope
            if envelope < 1e-18 * max(abs(total), 1e-300) and k > 3:
                break
        return total / math.pi
    values, angular = memo
    if s in values:
        return values[s]
    ratio = g / (1.0 - g)

    def a_fn(theta):
        return (
            np.sin(g * theta) ** ratio
            * np.sin((1.0 - g) * theta)
            * np.sin(theta) ** (-1.0 / (1.0 - g))
        )

    x_pow = s ** (-ratio)

    def integrand(theta):
        a = angular.get(theta)
        if a is None:
            a = angular[theta] = a_fn(theta)
        return a * np.exp(-x_pow * a)

    breaks = [math.pi * f for f in (0.5, 0.9, 0.99)]
    val, _ = _si.quad(integrand, 0.0, math.pi, limit=400, points=breaks)
    values[s] = ratio / math.pi * s ** (-1.0 / (1.0 - g)) * val
    return values[s]


def eval_kernel(spec: KernelSpec, t, x, y):
    """Kernel value G(t, x, y); vectorized over broadcastable t, x, y.

    t must be positive.  The planar wave kernel returns inf on its singular
    ring |x - y| = t rather than a silently large number.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr <= 0):
        raise ValueError("t must be positive")
    out = _gaussian_kind(spec, t_arr, x, y, per_t=False)
    if out is not None:
        return out
    kind = spec.kind
    if kind is KernelKind.WAVE_1D:
        r = np.sqrt(_sqdist(x, y, 1))
        return np.where(r < t_arr, 0.5, 0.0)
    if kind is KernelKind.WAVE_2D:
        sq = _sqdist(x, y, 2)
        tsq = t_arr**2
        inside = sq < tsq
        on_ring = sq == tsq
        with np.errstate(invalid="ignore", divide="ignore"):
            vals = np.where(inside, 1.0 / (2.0 * math.pi * np.sqrt(np.maximum(tsq - sq, 0.0))), 0.0)
        return np.where(on_ring, np.inf, vals)
    if kind is KernelKind.FRACTIONAL_HEAT:
        ts, sqs = np.broadcast_arrays(t_arr, _sqdist(x, y, spec.dim))
        memo = ({}, {})
        vals = [_subordinated_from_sq(spec.gamma, float(t), float(sq), spec.dim, memo) for t, sq in zip(ts.flat, sqs.flat)]
        out = np.array(vals, dtype=float).reshape(ts.shape)
        return out if out.ndim else float(out)
    raise ValueError(f"unknown kernel kind {kind}")


def _eval_kernel_per_t(spec: KernelSpec, ts, x, y):
    """`eval_kernel(spec, t, x, y)` for each t of the 1-D `ts`, on a leading axis, same bytes."""
    out = _gaussian_kind(spec, ts, x, y, per_t=True)
    if out is None:  # the wave and subordinated kernels already go element by element
        out = eval_kernel(spec, ts.reshape(ts.shape + (1,) * np.ndim(_sqdist(x, y, spec.dim))), x, y)
    return out


def _subordinated_from_sq(gamma, t, sq, dim, memo):
    # subordination: the heat kernel (variance 2s) at times t**(1/gamma) * s against the order-gamma density
    t_resc = t ** (1.0 / gamma)

    def integrand(s):
        return _gauss(t_resc * s, sq, dim, 2.0) * _density(gamma, s, memo)

    # the heat factor peaks near s = sq / (2 dim t_resc); below the density's
    # integral/series switch at s = 10 integrate directly with breakpoints,
    # above it in log scale where the algebraic tail is exponential
    s_peak = sq / (2.0 * dim * t_resc) if sq > 0 else 0.0
    breaks = sorted({1.0} | ({s_peak} if 0.0 < s_peak < 10.0 else set()))
    left, _ = _si.quad(integrand, 0.0, 10.0, limit=400, points=breaks)

    def log_integrand(v):
        s = math.exp(v)
        return integrand(s) * s

    v_lo = math.log(10.0)
    v_hi = max(v_lo, math.log(max(s_peak, 10.0))) + 45.0
    log_breaks = [math.log(s_peak)] if s_peak > 10.0 else None
    right, _ = _si.quad(log_integrand, v_lo, v_hi, limit=400, points=log_breaks)
    return left + right


# ---------------------------------------------------------------------------
# Integrability functionals
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _gauss_legendre(n):
    return np.polynomial.legendre.leggauss(n)


def _gl_on(a, b, n):
    nodes, weights = _gauss_legendre(n)
    mid, half = (a + b) / 2.0, (b - a) / 2.0
    return mid + half * nodes, half * weights


def i_alpha_finite(spec: KernelSpec, alpha) -> bool:
    """Whether the alpha-integrability functional is finite for this kind.

    Heat-type kernels require alpha < 1 + 2/d.  The subordinated kernel
    requires alpha < 1 + d/(2 gamma); its time integral additionally needs
    alpha < 1 + 2 gamma / d and its spatial heavy tail needs
    alpha > d / (d + 2 gamma), so the gate takes the intersection.  Wave
    (d <= 2) and cable kernels are integrable for every alpha in (0, 2).
    """
    d = spec.dim
    kind = spec.kind
    if kind in (KernelKind.HEAT_FREE, KernelKind.HEAT_DIRICHLET_INTERVAL, KernelKind.CABLE):
        return alpha < 1.0 + 2.0 / d
    if kind is KernelKind.FRACTIONAL_HEAT:
        g = spec.gamma
        if g == 1.0:
            return alpha < 1.0 + 2.0 / d
        upper = 1.0 + min(d / (2.0 * g), 2.0 * g / d)
        return d / (d + 2.0 * g) < alpha < upper
    return True


def _heat_free_i_alpha(d, alpha, t, diffusivity=1.0):
    # integral over space of the Gaussian kernel to the alpha equals
    # (2 pi c s)^{d(1-alpha)/2} alpha^{-d/2}; integrate the power of s
    expo = d * (1.0 - alpha) / 2.0
    return alpha ** (-d / 2.0) * (2.0 * math.pi * diffusivity) ** expo * t ** (expo + 1.0) / (expo + 1.0)


def _fractional_spatial_lp(spec, t, p):
    # honest quadrature over space of the subordinated kernel to the p
    g = spec.gamma
    body = t ** (1.0 / (2.0 * g))  # spatial scale of the kernel at time t
    memo = ({}, {})

    def f(x):
        return _subordinated_from_sq(g, float(t), float(_sqdist(x, 0.0, 1)), 1, memo) ** p

    inner, _ = _si.quad(f, 0.0, 10.0 * body, limit=200)
    outer, _ = _si.quad(f, 10.0 * body, np.inf, limit=200)
    return 2.0 * (inner + outer)


def _bounded_domain_i_alpha(spec, t, alpha):
    # sup over 64 source points of the space-time quadrature; 12 graded panels
    # toward s = 0 absorb the kernel blowup
    dom = spec.domain
    lo, hi = dom.lows[0], dom.highs[0]
    xs = np.linspace(lo + 1e-6, hi - 1e-6, 64)
    edges = t * (0.5 ** np.arange(12, -1, -1))
    edges[0] = 0.0
    y_nodes, y_w = _gl_on(lo, hi, 48)
    acc = np.zeros(64)
    for a, b in zip(edges[:-1], edges[1:]):
        for s, w in zip(*_gl_on(a, b, 16)):
            vals = eval_kernel(spec, s, xs[:, None], y_nodes) ** alpha
            acc += w * (vals * y_w).sum(axis=1)
    return float(acc.max())


def i_alpha(spec: KernelSpec, t, alpha):
    """Space-time integral of G**alpha up to time t; inf when divergent.

    Closed forms on the whole space; for bounded domains the value is the
    worst case over a source-point grid, computed by graded quadrature.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if not 0.0 < alpha < 2.0:
        raise ValueError("alpha must lie in (0, 2)")
    if not i_alpha_finite(spec, alpha):
        return math.inf
    kind = spec.kind
    if spec.domain is not None:
        return _bounded_domain_i_alpha(spec, t, alpha)
    if kind is KernelKind.HEAT_FREE:
        return _heat_free_i_alpha(spec.dim, alpha, t, 1.0)
    if kind is KernelKind.WAVE_1D:
        return 2.0 ** (-alpha) * t**2
    if kind is KernelKind.WAVE_2D:
        return (2.0 * math.pi) ** (1.0 - alpha) / ((2.0 - alpha) * (3.0 - alpha)) * t ** (3.0 - alpha)
    if kind is KernelKind.CABLE:
        # spatial integral (4 pi s)^{(1-alpha)/2} alpha^{-1/2} e^{-alpha s};
        # time integral via the lower incomplete gamma function
        k = (3.0 - alpha) / 2.0
        pref = alpha**-0.5 * (4.0 * math.pi) ** ((1.0 - alpha) / 2.0)
        return pref * alpha ** (-k) * _sp.gamma(k) * _sp.gammainc(k, alpha * t)
    if kind is KernelKind.FRACTIONAL_HEAT:
        if spec.gamma == 1.0:
            return _heat_free_i_alpha(spec.dim, alpha, t, 2.0)
        # exact self-similarity: the spatial integral scales like
        # s^(-d (alpha-1) / (2 gamma)); one quadrature at s = 1 fixes the level
        k = spec.dim * (alpha - 1.0) / (2.0 * spec.gamma)
        return _fractional_spatial_lp(spec, 1.0, alpha) * t ** (1.0 - k) / (1.0 - k)
    raise ValueError(f"unknown kernel kind {kind}")


def _bounded_domain_j_p(spec, t, p):
    dom = spec.domain
    lo, hi = dom.lows[0], dom.highs[0]
    xs = np.linspace(lo + 1e-6, hi - 1e-6, 64)
    y_nodes, y_w = _gl_on(lo, hi, 64)
    vals = eval_kernel(spec, t, xs[:, None], y_nodes) ** p
    return float((vals * y_w).sum(axis=1).max())


def j_p(spec: KernelSpec, t, p):
    """Sup over source points of the spatial integral of G(t, x, .)**p.

    On the whole space the kernels are translation invariant and the sup is
    x-free; on bounded domains it is maximized over a 64-point source grid.
    For the fractional kernel the value is computed by honest spatial
    quadrature at each t (no self-similar shortcut), so scaling claims about
    it stay falsifiable.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if not 0.0 < p <= 2.0:
        raise ValueError("p must lie in (0, 2]")
    kind = spec.kind
    if spec.domain is not None:
        return _bounded_domain_j_p(spec, t, p)
    d = spec.dim
    if kind is KernelKind.HEAT_FREE:
        return (2.0 * math.pi * t) ** (-d * (p - 1.0) / 2.0) * p ** (-d / 2.0)
    if kind is KernelKind.CABLE:
        return math.exp(-p * t) * (4.0 * math.pi * t) ** (-(p - 1.0) / 2.0) * p**-0.5
    if kind is KernelKind.WAVE_1D:
        return 2.0 ** (1.0 - p) * t
    if kind is KernelKind.WAVE_2D:
        if p >= 2.0:
            return math.inf
        return (2.0 * math.pi) ** (1.0 - p) / (2.0 - p) * t ** (2.0 - p)
    if kind is KernelKind.FRACTIONAL_HEAT:
        if spec.gamma == 1.0:
            return (4.0 * math.pi * t) ** (-d * (p - 1.0) / 2.0) * p ** (-d / 2.0)
        return _fractional_spatial_lp(spec, t, p)
    raise ValueError(f"unknown kernel kind {kind}")


# ---------------------------------------------------------------------------
# Continuity moduli of the kernel in time and source point
# ---------------------------------------------------------------------------


def _modulus(spec, horizon, p, x, shifted_eval):
    # 10 graded time panels of 9 Gauss nodes, 64 nodes in space
    dom = spec.domain or Box.interval(0.0, 1.0)
    lo, hi = dom.lows[0], dom.highs[0]
    edges = horizon * (0.5 ** np.arange(10, -1, -1))
    edges[0] = 0.0
    y_nodes, y_w = _gl_on(lo, hi, 64)
    acc = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        t_nodes, t_w = _gl_on(a, b, 9)
        for t, w in zip(t_nodes, t_w):
            base = eval_kernel(spec, t, x, y_nodes)
            diff = np.abs(base - shifted_eval(t, y_nodes)) ** p
            acc += w * float((diff * y_w).sum())
    return acc


def time_shift_modulus(spec: KernelSpec, horizon, p, h, x):
    """Lp modulus of the time-shifted kernel over the window, at source x."""
    return _modulus(spec, horizon, p, x, lambda t, y: eval_kernel(spec, t + h, x, y))


def space_shift_modulus(spec: KernelSpec, horizon, p, h, x):
    """Lp modulus of the source-shifted kernel over the window, at source x."""
    return _modulus(spec, horizon, p, x, lambda t, y: eval_kernel(spec, t, x + h, y))
