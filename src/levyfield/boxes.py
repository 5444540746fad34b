"""Axis-aligned boxes in R^d and space-time windows.

Spatial boxes are half-open, [lo, hi) per axis; time intervals are
left-open, (t_start, t_end].  With these conventions adjacent boxes
partition their union exactly, which the additivity identities rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Box:
    """Axis-aligned spatial box with positive extent on every axis."""

    lows: tuple
    highs: tuple

    def __post_init__(self):
        lows = tuple(float(v) for v in np.atleast_1d(self.lows))
        highs = tuple(float(v) for v in np.atleast_1d(self.highs))
        object.__setattr__(self, "lows", lows)
        object.__setattr__(self, "highs", highs)
        if len(lows) != len(highs) or not lows:
            raise ValueError("box bounds must be nonempty and of equal length")
        if not all(map(math.isfinite, lows + highs)):
            raise ValueError("box bounds must be finite")
        if any(h <= l for l, h in zip(lows, highs)):
            raise ValueError("box must have positive extent on every axis")

    @classmethod
    def interval(cls, lo, hi):
        return cls((lo,), (hi,))

    @property
    def dim(self):
        return len(self.lows)

    @property
    def volume(self):
        return float(np.prod([h - l for l, h in zip(self.lows, self.highs)]))

    def contains(self, points):
        """Boolean mask for points of shape (n, dim), one point (dim,), or (n,) when dim == 1."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim < 2 and (self.dim == 1 or pts.shape == (self.dim,)):
            pts = pts.reshape(-1, self.dim)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError(f"points of shape {pts.shape} do not fit a {self.dim}-dimensional box")
        lo = np.array(self.lows)
        hi = np.array(self.highs)
        return np.all((pts >= lo) & (pts < hi), axis=-1)

    def encloses(self, other: "Box") -> bool:
        return all(ol >= l and oh <= h for l, h, ol, oh in zip(self.lows, self.highs, other.lows, other.highs))

    def intersect(self, other: "Box"):
        """Intersection box, or None when the overlap has zero volume."""
        lo = [max(a, b) for a, b in zip(self.lows, other.lows)]
        hi = [min(a, b) for a, b in zip(self.highs, other.highs)]
        if any(h <= l for l, h in zip(lo, hi)):
            return None
        return Box(tuple(lo), tuple(hi))

    def sample(self, rng, n):
        lo = np.array(self.lows)
        hi = np.array(self.highs)
        return lo + rng.random((n, self.dim)) * (hi - lo)


@dataclass(frozen=True)
class SpaceTimeBox:
    """Time interval (t_start, t_end] crossed with a spatial box."""

    t_start: float
    t_end: float
    space: Box

    def __post_init__(self):
        if not self.t_end > self.t_start:
            raise ValueError("time interval must have positive length")

    @property
    def volume(self):
        return (self.t_end - self.t_start) * self.space.volume

    def contains(self, times, locations):
        times = np.asarray(times, dtype=float)
        mask = (times > self.t_start) & (times <= self.t_end)
        return mask & self.space.contains(locations)
