"""Independent numerical oracles used to derive expected test values.

Everything here is deliberately implemented without touching the package's
own closed forms: oscillatory quadrature with alternating-series
acceleration, direct density quadratures, Fourier inversion, and brute-force
space-time integration.  Tests freeze the values these oracles produce and
keep the oracles around for property checks over parameter grids.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate as si

from levyfield.boxes import Box
from levyfield.noise import JumpSet, simulate_jumps


def osc_quad_sin_power(alpha, n_half_periods=200, levels=14):
    """Integral of sin(x)/x**alpha over (0, inf): half-period quadrature plus
    repeated averaging of the alternating partial sums."""
    pieces = []
    for k in range(n_half_periods):
        val, _ = si.quad(lambda x: math.sin(x) / x**alpha, k * math.pi, (k + 1) * math.pi, limit=50)
        pieces.append(val)
    partial = np.cumsum(pieces)
    # each averaging pass gains roughly one power of k for algebraic tails
    for _ in range(levels):
        if partial.shape[0] < 2:
            break
        partial = 0.5 * (partial[:-1] + partial[1:])
    return float(partial[-1])


def _density(measure, z):
    a = measure.alpha
    if z > 0:
        return measure.p * a * z ** (-a - 1.0)
    if z < 0:
        return measure.q * a * (-z) ** (-a - 1.0)
    return 0.0


def levy_tail_quad(measure, t):
    """Mass of the jump measure outside [-t, t]: density quadrature after the
    substitution z = 1/u, which maps the heavy tail onto a finite interval."""
    pos, _ = si.quad(lambda u: _density(measure, 1.0 / u) / u**2, 0.0, 1.0 / t, limit=400)
    neg, _ = si.quad(lambda u: _density(measure, -1.0 / u) / u**2, 0.0, 1.0 / t, limit=400)
    return pos + neg


def band_quad(measure, lower, upper):
    """First moment of the jump measure over lower < |z| <= upper, by
    quadrature; upper = inf handled through an inverse substitution."""
    a = measure.alpha

    def signed(z):
        return z * _density(measure, z) + (-z) * _density(measure, -z)

    if math.isinf(upper):
        if a <= 1:
            raise ValueError("divergent")
        # z = 1/u turns the tail into a finite integral
        val, _ = si.quad(lambda u: signed(1.0 / u) / u**2, 0.0, 1.0 / lower, limit=400)
        return val
    val, _ = si.quad(signed, lower, upper, limit=400)
    return val


def gaussian_heat_lp(d, p, t, diffusivity=1.0):
    """Spatial integral of the Gaussian kernel to the p, via the product of
    one-dimensional Gaussian integrals."""
    var = diffusivity * t
    one_dim = (2.0 * math.pi * var) ** (-p / 2.0) * math.sqrt(2.0 * math.pi * var / p)
    return one_dim**d


def heat_i_alpha_quad(d, alpha, t, diffusivity=1.0):
    """Brute-force time quadrature of the Gaussian spatial integral."""
    val, _ = si.quad(lambda s: gaussian_heat_lp(d, alpha, s, diffusivity), 0.0, t, limit=400)
    return val


def wave2d_i_alpha_quad(alpha, t):
    """Brute-force radial-then-time quadrature of the planar wave kernel."""

    def spatial(s):
        val, _ = si.quad(
            lambda r: (2.0 * math.pi) ** (-alpha) * (s**2 - r**2) ** (-alpha / 2.0) * 2.0 * math.pi * r,
            0.0,
            s,
            limit=200,
            points=[s * 0.999999],
        )
        return val

    val, _ = si.quad(spatial, 0.0, t, limit=200)
    return val


def wave1d_i_alpha_quad(alpha, t):
    def spatial(s):
        return 0.5**alpha * 2.0 * s

    val, _ = si.quad(spatial, 0.0, t, limit=200)
    return val


def fourier_fractional_kernel(gamma, t, x, dim=1):
    """Fractional kernel by normalized Fourier inversion (dim = 1)."""
    if dim != 1:
        raise NotImplementedError
    val, _ = si.quad(lambda xi: math.cos(xi * x) * math.exp(-t * xi ** (2.0 * gamma)), 0.0, np.inf, limit=400)
    return val / math.pi


def cable_i_alpha_quad(alpha, t):
    def spatial(s):
        one_dim = (4.0 * math.pi * s) ** (-alpha / 2.0) * math.exp(-alpha * s) * math.sqrt(4.0 * math.pi * s / alpha)
        return one_dim

    val, _ = si.quad(spatial, 0.0, t, limit=400)
    return val


def hat_integrals_scalar(chi, a, b):
    """Integrals of the hat basis on grid `chi` over [a, b], in np.float64
    scalars cell by cell: the drift operator's wave rule as first written."""
    n = chi.shape[0]
    out = np.zeros(n)
    a = max(a, chi[0])
    b = min(b, chi[-1])
    if b <= a:
        return out
    for m in range(n - 1):
        lo, hi = chi[m], chi[m + 1]
        c, d = max(a, lo), min(b, hi)
        if d <= c:
            continue
        h = hi - lo
        out[m] += ((hi - c) ** 2 - (hi - d) ** 2) / (2.0 * h)
        out[m + 1] += ((d - lo) ** 2 - (c - lo) ** 2) / (2.0 * h)
    return out


def ecf_points(samples, u_grid):
    """Plain empirical characteristic function (no chunking tricks)."""
    samples = np.asarray(samples, dtype=float)
    return np.array([np.exp(1j * u * samples).mean() for u in u_grid])


def simulate_jumps_partitioned(config, rng, n_space_cells=4, ring_ratio=2.0, seed_info=""):
    """Alternative generator: per-cell, per-modulus-ring exponential clocks.

    Splits the domain into `n_space_cells` slabs along the first axis and the
    modulus range into geometric rings (cutoff, ..., 1, inf); each (ring, cell)
    pair runs an independent Poisson clock with rate |cell| * ring mass.
    Equal in law to `simulate_jumps`; a cross-check generator.
    """
    if config.horizon == 0:
        return simulate_jumps(config, rng, seed_info)
    a, p = config.measure.alpha, config.measure.p
    lo, hi = config.domain.lows[0], config.domain.highs[0]
    edges = np.linspace(lo, hi, n_space_cells + 1)
    rings = [math.inf]
    r = 1.0
    while r > config.cutoff:
        rings.append(r)
        r /= ring_ratio
    rings.append(config.cutoff)
    rings = np.array(rings)[::-1]  # increasing, cutoff ... 1, inf
    times, locs, sizes = [], [], []
    for j in range(len(rings) - 1):
        r_lo, r_hi = rings[j], rings[j + 1]
        mass = r_lo ** (-a) - (0.0 if math.isinf(r_hi) else r_hi ** (-a))
        for k in range(n_space_cells):
            cell = Box(
                (edges[k],) + config.domain.lows[1:],
                (edges[k + 1],) + config.domain.highs[1:],
            )
            rate = cell.volume * mass
            t = 0.0
            arrivals = []
            while True:
                t += rng.exponential(1.0 / rate)
                if t > config.horizon:
                    break
                arrivals.append(t)
            m = len(arrivals)
            if m == 0:
                continue
            times.append(np.array(arrivals))
            locs.append(cell.sample(rng, m))
            # modulus inverse-cdf restricted to the ring
            v = rng.random(m)
            hi_term = 0.0 if math.isinf(r_hi) else r_hi ** (-a)
            mags = (r_lo ** (-a) - v * (r_lo ** (-a) - hi_term)) ** (-1.0 / a)
            sizes.append(mags * np.where(rng.random(m) < p, 1.0, -1.0))
    if not times:
        d = config.domain.dim
        return JumpSet(np.empty(0), np.empty((0, d)), np.empty(0), config.horizon, config.domain, config.cutoff, seed_info)
    t_all = np.concatenate(times)
    x_all = np.vstack(locs)
    z_all = np.concatenate(sizes)
    order = np.argsort(t_all, kind="stable")
    return JumpSet(t_all[order], x_all[order], z_all[order], config.horizon, config.domain, config.cutoff, seed_info)
