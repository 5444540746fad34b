"""Simulated jump fields: Poisson jump sets, box noise values, truncation.

A jump set is one realization of the marked Poisson field on a space-time
window, restricted to jump moduli above a cutoff.  Box values are plain jump
sums below the stability threshold alpha = 1 and compensated sums above it;
the omitted sub-cutoff jumps bias the mean by at most
volume * alpha/(1-alpha) * cutoff**(1-alpha) when alpha < 1 and contribute
variance at most volume * alpha/(2-alpha) * cutoff**(2-alpha) when alpha > 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .boxes import Box, SpaceTimeBox
from .stable import LevyMeasure

__all__ = [
    "NoiseConfig",
    "JumpSet",
    "CompensatorBand",
    "compensator_band",
    "simulate_jumps",
    "noise_of_box",
    "truncate",
    "first_large_jump_time",
    "sample_noise_values",
    "sample_large_jump_flags",
    "sample_weighted_sums",
    "write_csv",
    "save_jumps_csv",
    "load_jumps_csv",
]

# largest expected jump count of one window or one farm replicate
COUNT_GUARD = 1e8
# expected draws per farm chunk; chunk boundaries fix the random streams, so
# this is a constant, not a setting
MAX_CHUNK_DRAWS = 20_000_000
# farm chunks draw and reduce in blocks of whole replicates of at most this
# many draws; draws, arithmetic and sums are elementwise or per replicate, so
# the block size never changes a byte, only the memory a chunk touches
BLOCK_DRAWS = 1 << 20


@dataclass(frozen=True)
class NoiseConfig:
    """Window and cutoff for one simulated jump field.

    The expected jump count is horizon * |domain| * cutoff**(-alpha); a window
    expecting more than COUNT_GUARD jumps is rejected before any allocation.
    """

    measure: LevyMeasure
    horizon: float
    domain: Box
    cutoff: float = 1e-3

    def __post_init__(self):
        if self.horizon < 0:
            raise ValueError("horizon must be nonnegative")
        if self.domain.dim not in (1, 2):
            raise ValueError("domain dimension must be 1 or 2")
        if self.cutoff <= 0:
            raise ValueError("cutoff must be positive")
        if not math.isfinite(self.expected_jump_count):
            raise ValueError("expected jump count must be finite")
        _check_guard(self.expected_jump_count)

    @property
    def expected_jump_count(self):
        return self.horizon * self.domain.volume * self.cutoff ** (-self.measure.alpha)


@dataclass(frozen=True)
class JumpSet:
    """One realization of the jump field: times, locations, signed sizes.

    Records are ordered by timestamp, ties broken by insertion index.  Every
    size has modulus above the cutoff and every (time, location) lies in the
    simulation window.
    """

    times: np.ndarray
    locations: np.ndarray
    sizes: np.ndarray
    horizon: float
    domain: Box
    cutoff: float
    seed_info: str = ""

    def __post_init__(self):
        if self.times.shape[0] != self.sizes.shape[0] or self.locations.shape[0] != self.times.shape[0]:
            raise ValueError("times, locations and sizes must have equal length")
        if self.times.size and np.any(np.diff(self.times) < 0):
            raise ValueError("timestamps must be nondecreasing")

    @property
    def n(self):
        return self.times.shape[0]

    @property
    def dim(self):
        return self.locations.shape[1] if self.locations.ndim == 2 else 1


@dataclass(frozen=True)
class CompensatorBand:
    """First moment of the jump measure over a modulus band (lower, upper]."""

    lower: float
    upper: float
    value: float


def compensator_band(measure: LevyMeasure, lower, upper) -> CompensatorBand:
    """Integral of z over the band lower < |z| <= upper against the jump measure.

    Closed form beta * alpha/(alpha-1) * (lower**(1-alpha) - upper**(1-alpha)),
    reading inf**(1-alpha) as 0 when alpha > 1 and 0**(1-alpha) as 0 when
    alpha < 1.  Divergent combinations are rejected.
    """
    a, b = measure.alpha, measure.beta
    if lower < 0 or not upper > lower:
        raise ValueError("band must satisfy 0 <= lower < upper")
    if math.isinf(upper) and a < 1:
        raise ValueError("band integral diverges at infinity for alpha < 1")
    if lower == 0 and a > 1:
        raise ValueError("band integral diverges at zero for alpha > 1")
    if b == 0.0:
        return CompensatorBand(lower, upper, 0.0)
    lo_term = 0.0 if lower == 0 else lower ** (1.0 - a)
    hi_term = 0.0 if math.isinf(upper) else upper ** (1.0 - a)
    value = b * a / (a - 1.0) * (lo_term - hi_term)
    return CompensatorBand(lower, upper, value)


def _check_guard(lam):
    if lam > COUNT_GUARD:
        raise ValueError(f"expected jump count {lam:.3g} exceeds guard {COUNT_GUARD:.3g}")


def _check_level(level, cutoff):
    # None is no truncation; NaN fails the comparison
    if level is not None and not level > cutoff:
        raise ValueError("truncation level must exceed the simulation cutoff")


def _check_exponent(alpha, p):
    # the moment window of the truncated-noise estimates; NaN fails it
    if not (alpha < p < 1 if alpha < 1 else alpha < p <= 2):
        raise ValueError("moment exponent must lie in (alpha, 1) for alpha < 1 and in (alpha, 2] for alpha > 1")


def _compensation(measure: LevyMeasure, cutoff, level=None) -> float:
    """Drift per unit volume removed from a jump sum truncated at `level`.

    Zero for alpha < 1 (plain sums) and for an infinite cutoff (an empty
    band); otherwise the band integral over (cutoff, level], or (cutoff, inf)
    for the default `level=None`.
    """
    _check_level(level, cutoff)
    if measure.alpha < 1 or cutoff == math.inf:
        return 0.0
    return compensator_band(measure, cutoff, math.inf if level is None else level).value


def _draw_magnitudes(alpha, cutoff, rng, out):
    # inverse cdf of the modulus above the cutoff, in place: cutoff * V**(-1/alpha), V in (0,1]
    rng.random(out.shape[0], out=out)
    np.subtract(1.0, out, out=out)
    out **= -1.0 / alpha
    out *= cutoff
    return out


def simulate_jumps(config: NoiseConfig, rng, seed_info="") -> JumpSet:
    """Simulate one jump set as a homogeneous marked Poisson field.

    Count ~ Poisson(horizon * |domain| * cutoff**(-alpha)); times uniform on
    the horizon, locations uniform on the domain, moduli inverse-cdf above the
    cutoff, signs positive with probability p.
    """
    d = config.domain.dim
    if config.horizon == 0:
        return JumpSet(np.empty(0), np.empty((0, d)), np.empty(0), config.horizon, config.domain, config.cutoff, seed_info)
    n = int(rng.poisson(config.expected_jump_count))
    times = rng.uniform(0.0, config.horizon, n)
    locs = config.domain.sample(rng, n)
    sizes = _draw_magnitudes(config.measure.alpha, config.cutoff, rng, np.empty(n))
    np.negative(sizes, out=sizes, where=rng.random(n) >= config.measure.p)
    order = np.argsort(times, kind="stable")
    return JumpSet(times[order], locs[order], sizes[order], config.horizon, config.domain, config.cutoff, seed_info)


def _require_inside_window(jumps: JumpSet, box: SpaceTimeBox):
    eps = 1e-12
    if box.t_start < -eps or box.t_end > jumps.horizon + eps:
        raise ValueError("box time range exceeds the simulated window")
    if not jumps.domain.encloses(box.space):
        raise ValueError("box spatial range exceeds the simulated domain")


def noise_of_box(jumps: JumpSet, box: SpaceTimeBox, config: NoiseConfig, level=None) -> float:
    """Noise value of a space-time box, with jumps above `level` removed.

    Plain jump sum for alpha < 1; for alpha > 1 the sum is compensated by
    volume times the band integral over (cutoff, level], where the default
    `level=None` keeps every jump and the band is (cutoff, inf).
    """
    comp = _compensation(config.measure, jumps.cutoff, level)
    _require_inside_window(jumps, box)
    mask = box.contains(jumps.times, jumps.locations)
    if level is not None:
        mask &= np.abs(jumps.sizes) <= level
    return float(jumps.sizes[mask].sum()) - box.volume * comp


def truncate(jumps: JumpSet, level) -> JumpSet:
    """Retain exactly the jumps with modulus <= level (inclusive boundary)."""
    _check_level(level, jumps.cutoff)
    keep = np.abs(jumps.sizes) <= level
    return replace(
        jumps,
        times=jumps.times[keep],
        locations=jumps.locations[keep],
        sizes=jumps.sizes[keep],
    )


def first_large_jump_time(jumps: JumpSet, space: Box, level) -> float:
    """Earliest time a jump with modulus above `level` lands in `space`; inf if none."""
    _check_level(level, jumps.cutoff)
    mask = (np.abs(jumps.sizes) > level) & space.contains(jumps.locations)
    if not mask.any():
        return math.inf
    return float(jumps.times[mask].min())


# ---------------------------------------------------------------------------
# Replicate farms.  These sample scalar functionals of many independent jump
# sets without materializing coordinates, in chunked flat arrays; they follow
# exactly the same construction as `simulate_jumps`.  Box values draw positive
# and negative jumps as two independent Poisson streams (thinning), which
# avoids a per-jump sign stream.
# ---------------------------------------------------------------------------


def _farm(n, lam, chunk_fn, rng, workers=None, dtype=float):
    """Assemble `n` replicates from chunks of at most MAX_CHUNK_DRAWS expected draws.

    `chunk_fn(r, stream)` returns the values of `r` replicates.  With
    `workers=None` every chunk draws from `rng` in chunk order on this
    thread; with an integer, chunk i draws from the i-th child spawned from
    `rng` and up to `workers` threads share the chunks, so results do not
    depend on the worker count.
    """
    _check_guard(lam)
    if not (n >= 0 and float(n).is_integer()):
        raise ValueError("replicate count must be a nonnegative integer")
    n = int(n)
    per = max(1, int(MAX_CHUNK_DRAWS / max(lam, 1.0)))
    sizes = [min(per, n - start) for start in range(0, n, per)]
    streams = [rng] * len(sizes) if workers is None else rng.spawn(len(sizes))
    if workers is not None and workers > 1 and len(sizes) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(chunk_fn, sizes, streams))
    else:
        results = map(chunk_fn, sizes, streams)
    out = np.empty(n, dtype=dtype)
    start = 0
    for r, res in zip(sizes, results):
        out[start : start + r] = res
        start += r
    return out


def _segment_sums(values, counts):
    """Per-replicate sums of a flat draw array split by `counts`."""
    r = counts.shape[0]
    total = values.shape[0]
    if total == 0:
        return np.zeros(r)
    if np.any(counts == 0):
        idx = np.repeat(np.arange(r), counts)
        return np.bincount(idx, weights=values, minlength=r)
    offsets = np.empty(r, dtype=np.intp)
    offsets[0] = 0
    np.cumsum(counts[:-1], out=offsets[1:])
    return np.add.reduceat(values, offsets)


def _magnitude_sums(alpha, cutoff, counts, rng, mark=None):
    """Per-replicate magnitude sums of r >= 1 replicates of `counts` jumps, after `mark(block)` rewrites
    each block in place; a chunk with an empty replicate is one block (one reduceat/bincount pick)."""
    ends, cuts = np.cumsum(counts), [0]
    while cuts[-1] < len(counts):
        j = np.searchsorted(ends, ends[cuts[-1]] - counts[cuts[-1]] + BLOCK_DRAWS, side="right")
        cuts.append(max(cuts[-1] + 1, int(j)) if counts.all() else len(counts))
    sizes = np.diff(np.concatenate(([0], ends))[cuts])
    buf = np.empty(sizes.max())
    sums = []
    for i, j, m in zip(cuts, cuts[1:], sizes):
        block = _draw_magnitudes(alpha, cutoff, rng, buf[:m])
        if mark is not None:
            mark(block)
        sums.append(_segment_sums(block, counts[i:j]))
    return np.concatenate(sums)


def _one_sided_sums(rate, alpha, cutoff, truncation, r, rng):
    counts = rng.poisson(rate, r) if rate > 0 else np.zeros(r, dtype=np.int64)
    clip = None if truncation is None else lambda block: np.putmask(block, block > truncation, 0.0)
    return _magnitude_sums(alpha, cutoff, counts, rng, clip)


def _box_rate(measure, volume, cutoff):
    # expected jumps above the cutoff in a region of the given volume; NaN fails the check
    if not 0 <= volume < math.inf:
        raise ValueError("volume must be finite and nonnegative")
    return volume * cutoff ** (-measure.alpha)


def sample_noise_values(
    measure: LevyMeasure,
    volume,
    cutoff,
    n,
    rng,
    truncation=None,
    workers=1,
):
    """Draw `n` independent box noise values for a region of given volume.

    The law of a box value depends on the region only through its space-time
    volume, so the farm never materializes coordinates.  `truncation` removes
    jumps above that modulus (and shrinks the compensation band for
    alpha > 1).  `workers` threads split the replicate chunks; results do not
    depend on the worker count.
    """
    a = measure.alpha
    lam = _box_rate(measure, volume, cutoff)
    comp = volume * _compensation(measure, cutoff, truncation)

    def run_chunk(r, crng):
        pos = _one_sided_sums(lam * measure.p, a, cutoff, truncation, r, crng)
        neg = _one_sided_sums(lam * measure.q, a, cutoff, truncation, r, crng)
        return pos - neg

    return _farm(n, lam, run_chunk, rng, workers=workers) - comp


def sample_large_jump_flags(measure, volume, cutoff, threshold, n, rng):
    """Boolean draws: does some jump of modulus above `threshold` occur?

    One draw per replicate over a region of the given space-time volume,
    simulated above `cutoff` (< threshold required).
    """
    _check_level(threshold, cutoff)
    lam = _box_rate(measure, volume, cutoff)

    def run_chunk(r, rng):
        # per-replicate counts of large jumps, exact in any grouping
        above = _magnitude_sums(measure.alpha, cutoff, rng.poisson(lam, r), rng, lambda b: np.greater(b, threshold, out=b))
        return above > 0

    return _farm(n, lam, run_chunk, rng, dtype=bool)


def sample_weighted_sums(config: NoiseConfig, weight, n, rng, truncation=None, weight_integral=None):
    """Draw `n` values of the jump sum weighted by a deterministic function.

    weight(times, locations), locations of shape (m, d), must be vectorized and
    elementwise: it is evaluated on slices of the jumps.  For alpha > 1 the
    compensator `weight_integral`, the weight's integral over the window, is required.
    """
    a = config.measure.alpha
    lam = config.expected_jump_count
    comp = _compensation(config.measure, config.cutoff, truncation)
    if a > 1:
        if weight_integral is None:
            raise ValueError("weight_integral is required when alpha > 1")
        comp *= weight_integral

    def run_chunk(r, rng):
        counts = rng.poisson(lam, r)
        total = int(counts.sum())
        times = rng.uniform(0.0, config.horizon, total)
        locs = config.domain.sample(rng, total)
        w = np.empty(total)
        for s in range(0, total, BLOCK_DRAWS):
            w[s : s + BLOCK_DRAWS] = weight(times[s : s + BLOCK_DRAWS], locs[s : s + BLOCK_DRAWS])
        del times, locs
        z = _draw_magnitudes(a, config.cutoff, rng, np.empty(total))
        np.negative(z, out=z, where=rng.random(total) >= config.measure.p)
        if truncation is not None:
            z[np.abs(z) > truncation] = 0.0
        w *= z
        return np.bincount(np.repeat(np.arange(r), counts), weights=w, minlength=r)

    return _farm(n, lam, run_chunk, rng) - comp


# ---------------------------------------------------------------------------
# CSV serialization: every value with 17 significant digits, which round-trips
# doubles bit for bit (and writes integers below 1e17 as plain digits).
# Comment lines carry provenance and window metadata.
# ---------------------------------------------------------------------------


def write_csv(path, columns, rows, comments=()):
    """Write `# comment` lines (empty ones skipped), a `columns` header, then
    `rows` as %.17g values."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for comment in filter(None, comments):
            fh.write(f"# {comment}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join("%.17g" % v for v in row) + "\n")


def save_jumps_csv(jumps: JumpSet, path, header_comment=None):
    """Header `t,x1[,x2],z` after an optional comment and a `# window` line."""
    d = jumps.dim
    lows = ",".join("%.17g" % v for v in jumps.domain.lows)
    highs = ",".join("%.17g" % v for v in jumps.domain.highs)
    window = "window horizon=%.17g lows=%s highs=%s cutoff=%.17g seed_info=%s" % (
        jumps.horizon, lows, highs, jumps.cutoff, jumps.seed_info or "-"
    )
    columns = ["t"] + [f"x{i + 1}" for i in range(d)] + ["z"]
    rows = np.column_stack([jumps.times, jumps.locations.reshape(jumps.n, d), jumps.sizes]).tolist()
    write_csv(path, columns, rows, [header_comment, window])


def load_jumps_csv(path) -> JumpSet:
    meta = {}
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if line.startswith("# window"):
                    for item in line[len("# window") :].split():
                        key, _, val = item.partition("=")
                        meta[key] = val
                continue
            if line.startswith("t,"):
                continue
            rows.append([float(v) for v in line.split(",")])
    lows = tuple(float(v) for v in meta["lows"].split(","))
    highs = tuple(float(v) for v in meta["highs"].split(","))
    d = len(lows)
    data = np.array(rows, dtype=float).reshape(-1, d + 2)
    seed_info = meta.get("seed_info", "-")
    return JumpSet(
        times=data[:, 0].copy(),
        locations=data[:, 1 : 1 + d].copy(),
        sizes=data[:, 1 + d].copy(),
        horizon=float(meta["horizon"]),
        domain=Box(lows, highs),
        cutoff=float(meta["cutoff"]),
        seed_info="" if seed_info == "-" else seed_info,
    )
