"""Stochastic integrals of simple and predictable fields against jump noise.

Integrals are exact finite jump sums: each retained jump contributes the
integrand's left-limit value at the jump coordinates times the jump size;
for alpha > 1 a deterministic compensator (band integral times the
space-time quadrature of the integrand) is subtracted.  Integrands never see
jumps at or after their evaluation time; violating that raises.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boxes import Box, SpaceTimeBox
from .kernels import _gl_on
from .noise import JumpSet, NoiseConfig, _compensation, noise_of_box, write_csv

__all__ = [
    "SimpleProcess",
    "PredictableField",
    "JumpHistory",
    "PredictabilityError",
    "IntegralPath",
    "integrate_simple",
    "integrate_field",
    "lp_norm",
    "field_quadrature",
]


class PredictabilityError(RuntimeError):
    """An integrand asked for jumps at or after its own evaluation time."""


class JumpHistory:
    """Read-only view of a jump set clipped strictly before a horizon time."""

    def __init__(self, jumps: JumpSet, now: float):
        self._jumps = jumps
        self._now = now

    def before(self, t=None):
        """Times, locations and sizes of jumps strictly before t (default: now)."""
        t = self._now if t is None else t
        if t > self._now + 1e-15:
            raise PredictabilityError(
                f"integrand requested jumps up to t={t} while being evaluated at {self._now}"
            )
        mask = self._jumps.times < t
        return self._jumps.times[mask], self._jumps.locations[mask], self._jumps.sizes[mask]

    def count(self, t=None):
        return int(self.before(t)[0].shape[0])

    def sum_sizes(self, t=None):
        return float(self.before(t)[2].sum())


@dataclass(frozen=True)
class PredictableField:
    """Field given by an evaluation rule (t, x, history) -> value.

    The rule receives a `JumpHistory` limited to jumps strictly before t, so
    left limits are structural.  `rule` may ignore the history for
    deterministic fields.
    """

    rule: object
    name: str = "field"

    def evaluate(self, t, x, jumps: JumpSet):
        return float(self.rule(t, x, JumpHistory(jumps, t)))


def _as_field(x):
    if isinstance(x, PredictableField):
        return x
    if callable(x):
        return PredictableField(lambda t, loc, hist: x(t, loc), name=getattr(x, "__name__", "field"))
    raise TypeError("integrand must be a PredictableField or a callable (t, x) -> value")


@dataclass(frozen=True)
class SimpleProcess:
    """Piecewise-constant field: time knots and per-interval (cell, value) lists.

    Value j on interval i applies on (knots[i], knots[i+1]] x cells[i][j].
    Cells must be pairwise disjoint within each interval; values are plain
    numbers fixed before the interval opens.
    """

    knots: np.ndarray
    cells: list

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        object.__setattr__(self, "knots", knots)
        if knots.ndim != 1 or knots.shape[0] < 2:
            raise ValueError("need at least two time knots")
        if knots[0] != 0.0 or np.any(np.diff(knots) <= 0):
            raise ValueError("knots must start at 0 and strictly increase")
        if len(self.cells) != knots.shape[0] - 1:
            raise ValueError("one cell list per knot interval required")
        for interval in self.cells:
            for i, (box_i, _) in enumerate(interval):
                for box_j, _ in interval[i + 1 :]:
                    if box_i.intersect(box_j) is not None:
                        raise ValueError("cells within an interval must be disjoint")

    def value_at(self, t, x):
        """Field value at (t, x); zero off the cells and at t = 0."""
        if t <= self.knots[0] or t > self.knots[-1]:
            return 0.0
        i = int(np.searchsorted(self.knots, t, side="left")) - 1
        for box, val in self.cells[i]:
            if bool(box.contains(x)[0]):
                return float(val)
        return 0.0

    def as_field(self) -> PredictableField:
        return PredictableField(lambda t, x, hist: self.value_at(t, x), name="simple")


def integrate_simple(
    process: SimpleProcess,
    jumps: JumpSet,
    t,
    box: Box,
    config: NoiseConfig,
    truncation=None,
) -> float:
    """Integral of a simple process over (0, t] x box: the exact cell sum.

    Each (interval, cell) pair contributes its value times the noise of the
    clipped space-time box; linear in the process by construction.
    """
    total = 0.0
    knots = process.knots
    for i in range(knots.shape[0] - 1):
        lo = min(knots[i], t)
        hi = min(knots[i + 1], t)
        if hi <= lo:
            break
        for cell, val in process.cells[i]:
            clipped = cell.intersect(box)
            if clipped is None or val == 0.0:
                continue
            total += val * noise_of_box(jumps, SpaceTimeBox(lo, hi, clipped), config, level=truncation)
    return total


def field_quadrature(field, jumps, t, box: Box, n_nodes=32, time_breaks=None, power=None):
    """Space-time quadrature of X (or |X|^power) over (0, t] x box.

    Composite Gauss-Legendre: time panels split at the jump times (where
    adapted integrands may jump) plus any extra `time_breaks`; tensor nodes
    over the spatial box.  `power=None` integrates the signed field itself.
    """
    field = _as_field(field)
    breaks = {0.0, float(t)}
    breaks.update(float(s) for s in jumps.times if 0.0 < s < t)
    if time_breaks is not None:
        breaks.update(float(s) for s in time_breaks if 0.0 < s < t)
    edges = sorted(breaks)
    dim = box.dim
    axes = [_gl_on(lo, hi, n_nodes) for lo, hi in zip(box.lows, box.highs)]

    def term(s, x):
        v = field.evaluate(s, x, jumps)
        return v if power is None else abs(v) ** power

    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        for s, ws in zip(*_gl_on(a, b, n_nodes)):
            if dim == 1:
                for y, wy in zip(*axes[0]):
                    total += ws * wy * term(s, y)
            else:
                for y1, w1 in zip(*axes[0]):
                    for y2, w2 in zip(*axes[1]):
                        total += ws * w1 * w2 * term(s, (y1, y2))
    return total


def integrate_field(
    field,
    jumps: JumpSet,
    t,
    box: Box,
    config: NoiseConfig,
    truncation=None,
    n_nodes=32,
) -> float:
    """Jump-sum integral of a predictable field over (0, t] x box.

    Sums X(T_i-, X_i) * z_i over retained jumps with T_i <= t (a jump exactly
    at t counts; the integrand sees only the strict past).  For alpha > 1 the
    compensator, band value times the signed space-time quadrature of X, is
    subtracted.
    """
    field = _as_field(field)
    band = _compensation(config.measure, jumps.cutoff, truncation)
    mask = (jumps.times <= t) & box.contains(jumps.locations)
    if truncation is not None:
        mask &= np.abs(jumps.sizes) <= truncation
    total = 0.0
    for i in np.nonzero(mask)[0]:
        loc = jumps.locations[i] if box.dim > 1 else float(jumps.locations[i, 0])
        total += field.evaluate(float(jumps.times[i]), loc, jumps) * float(jumps.sizes[i])
    if band != 0.0:
        total -= band * field_quadrature(field, jumps, t, box, n_nodes=n_nodes)
    return total


def lp_norm(field, p, horizon, box: Box):
    """Quadrature value of (int |X|^p)^(1/p) on (0,T] x box for a deterministic field."""
    if not 0.0 < p <= 2.0:
        raise ValueError("p must lie in (0, 2]")
    jumps = JumpSet(np.empty(0), np.empty((0, box.dim)), np.empty(0), float(horizon), box, 1.0)
    return field_quadrature(field, jumps, horizon, box, power=p) ** (1.0 / p)


@dataclass
class IntegralPath:
    """Right-continuous path t -> I(X)(t, B) sampled at its breakpoints.

    Values are exact at the stored times; between jumps the path is constant
    (alpha < 1) or linear in t (alpha > 1, compensator drift).
    """

    times: np.ndarray
    values: np.ndarray

    @classmethod
    def compute(cls, field, jumps, box, config, horizon, truncation=None, n_nodes=16):
        times = {0.0, float(horizon)}
        times.update(float(s) for s in jumps.times if 0.0 < s <= horizon)
        grid = np.array(sorted(times))
        vals = np.array(
            [
                integrate_field(field, jumps, s, box, config, truncation=truncation, n_nodes=n_nodes)
                if s > 0
                else 0.0
                for s in grid
            ]
        )
        return cls(grid, vals)

    def sup_abs(self):
        return float(np.abs(self.values).max())

    def save_csv(self, path, header_comment=None):
        write_csv(path, ["t", "value"], zip(self.times, self.values), [header_comment])
