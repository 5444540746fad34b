"""Mild solutions: linear convolution, truncated Picard iteration, gluing.

The solution field is represented on a tensor evaluation grid plus the exact
jump coordinates.  Each Picard sweep evaluates the coefficient at the
previous iterate's left-limit values at jump points (jumps strictly before
the point being evaluated), which enforces adaptedness structurally.  For
alpha > 1 the compensator and any explicit drift are applied through one
shared linear quadrature operator, so identities that compare differently
compensated solves hold to rounding.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import asdict, dataclass, replace as _dc_replace

import numpy as np

from .kernels import KernelKind, KernelSpec, _eval_kernel_per_t, _gl_on, eval_kernel, i_alpha_finite
from .noise import (
    JumpSet, NoiseConfig, _check_exponent, _check_level, _compensation, first_large_jump_time, truncate, write_csv
)

__all__ = [
    "LipschitzSigma",
    "SolverConfig",
    "SolutionField",
    "PicardDiagnostics",
    "PicardDivergenceError",
    "GlueResult",
    "sigma_zero",
    "sigma_one",
    "sigma_identity",
    "sigma_affine",
    "solve_linear",
    "picard_solve",
    "picard_solve_drifted",
    "glue",
]

# Gauss-Legendre nodes per time panel and per lattice cell in the drift operator
DRIFT_NODES = 8


class PicardDivergenceError(RuntimeError):
    """Successive-iterate distances grew three sweeps in a row."""

    def __init__(self, message, diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class LipschitzSigma:
    """Coefficient u -> sigma(u) with a declared Lipschitz constant.

    The declared constant and the derived growth bound
    max(lip_const, |sigma(0)|) are spot-checked on 10^3 deterministic random
    pairs at construction; failures raise.
    """

    fn: object
    lip_const: float
    name: str = "sigma"

    def __post_init__(self):
        if self.lip_const < 0:
            raise ValueError("Lipschitz constant must be nonnegative")
        probe = np.random.default_rng(20240817)
        u = probe.uniform(-50.0, 50.0, 1000)
        v = probe.uniform(-50.0, 50.0, 1000)
        fu = np.array([self.fn(x) for x in u])
        fv = np.array([self.fn(x) for x in v])
        slack = 1e-9
        if np.any(np.abs(fu - fv) > self.lip_const * np.abs(u - v) + slack):
            raise ValueError(f"{self.name}: declared Lipschitz constant {self.lip_const} fails a spot check")
        growth = self.growth_bound
        if np.any(np.abs(fu) > growth * (1.0 + np.abs(u)) + slack):
            raise ValueError(f"{self.name}: growth bound check failed")

    @property
    def growth_bound(self):
        return max(self.lip_const, abs(float(self.fn(0.0))))

    def __call__(self, u):
        arr = np.asarray(u, dtype=float)
        out = np.array([self.fn(x) for x in arr.ravel()]).reshape(arr.shape)
        return out if out.ndim else float(out)


def sigma_zero():
    return LipschitzSigma(lambda u: 0.0, 0.0, "zero")


def sigma_one():
    return LipschitzSigma(lambda u: 1.0, 0.0, "one")


def sigma_identity():
    return LipschitzSigma(lambda u: u, 1.0, "identity")


def sigma_affine(a, b):
    return LipschitzSigma(lambda u: a * u + b, abs(a), f"affine({a},{b})")


@dataclass(frozen=True)
class SolverConfig:
    """Kernel, noise window, truncation level and Picard controls.

    The moment exponent must lie in (alpha, 1) when alpha < 1 and in
    (alpha, 2] when alpha > 1; the kernel's sup-Lp functional must be
    integrable on the horizon for that exponent.
    """

    kernel: KernelSpec
    noise: NoiseConfig
    truncation: float | None
    p: float
    n_t: int = 16
    n_x: int = 16
    max_iterations: int = 25
    tolerance: float = 1e-8

    def __post_init__(self):
        if self.kernel.dim != self.noise.domain.dim:
            raise ValueError("kernel dimension must match the noise domain dimension")
        _check_exponent(self.noise.measure.alpha, self.p)
        _check_level(self.truncation, self.noise.cutoff)
        if not (math.isfinite(self.tolerance) and self.tolerance >= 0):
            raise ValueError("tolerance must be finite and nonnegative")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.n_t < 2 or self.n_x < 2:
            raise ValueError("need at least 2 grid points per axis")
        self._check_jp_integrable()

    def _check_jp_integrable(self):
        # J_p(t) ~ t^-r near zero must have r < 1; r is known for each family
        spec, p = self.kernel, self.p
        d = spec.dim
        if spec.kind is KernelKind.WAVE_1D:
            ok = True
        elif spec.kind is KernelKind.WAVE_2D:
            ok = p < 2.0  # J_p is infinite from p = 2 on
        elif spec.kind is KernelKind.FRACTIONAL_HEAT and spec.gamma < 1.0:
            # the spatial tail |x|^-(d + 2 gamma) needs p (d + 2 gamma) > d
            g = spec.gamma
            ok = d * (p - 1.0) / (2.0 * g) < 1.0 and p * (d + 2.0 * g) > d
        else:  # heat, Dirichlet, cable and the gamma = 1 fractional kernel
            ok = d * (p - 1.0) / 2.0 < 1.0
        if not ok:
            raise ValueError("sup-Lp kernel functional is not integrable near zero for this exponent")


@dataclass
class PicardDiagnostics:
    iterations: int
    sup_diffs: list
    residual: float
    converged: bool

    def to_json(self, k_used=None, meta=None):
        payload = dict(asdict(self), k_used=k_used, meta=meta)
        return json.dumps({k: v for k, v in payload.items() if v is not None}, sort_keys=True)


@dataclass
class SolutionField:
    """Mild-solution values on the evaluation grid and at jump coordinates."""

    t_grid: np.ndarray
    x_grid: np.ndarray
    grid_values: np.ndarray  # (n_t, n_x)
    jump_values: np.ndarray
    diagnostics: PicardDiagnostics | None = None
    k_used: float | None = None

    def max_grid_abs_diff(self, other: "SolutionField"):
        return float(np.abs(self.grid_values - other.grid_values).max())

    def eval_vector(self):
        """Values ordered as the solver workspace orders evaluation points."""
        return np.concatenate([self.jump_values, self.grid_values.ravel()])

    def save_csv(self, path, header_comment=None):
        rows = ((t, x, u) for t, row in zip(self.t_grid, self.grid_values) for x, u in zip(self.x_grid, row))
        write_csv(path, ["t", "x", "u"], rows, [header_comment])


# ---------------------------------------------------------------------------
# Evaluation workspace: jump matrix and drift operator on a fixed lattice
# ---------------------------------------------------------------------------


def _hat_integrals(chi, a, b):
    """Integrals of the piecewise-linear hat basis on the grid `chi` (a list of floats) over [a, b]."""
    out = [0.0] * len(chi)
    a = max(a, chi[0])
    b = min(b, chi[-1])
    if b <= a:
        return out
    # Python floats: `** 2` calls libm pow as on an np.float64, where an array
    # `** 2` is x*x (other bytes); only the cells that meet (a, b) are visited
    for m in range(bisect.bisect_right(chi, a) - 1, bisect.bisect_left(chi, b)):
        lo, hi = chi[m], chi[m + 1]
        c = lo if lo > a else a
        d = hi if hi < b else b
        h = hi - lo
        # integral of (hi - y)/h over [c, d] -> left node, (y - lo)/h -> right
        out[m] += ((hi - c) ** 2 - (hi - d) ** 2) / (2.0 * h)
        out[m + 1] += ((d - lo) ** 2 - (c - lo) ** 2) / (2.0 * h)
    return out


class _PicardWorkspace:
    """Shared geometry for Picard sweeps on one jump set.

    Evaluation points are the tensor grid plus the jump coordinates.  The
    jump matrix A holds kernel * jump size for strictly earlier jumps.  The
    drift operator Q maps coefficient values on the lattice (interpolated
    bilinearly) to the space-time kernel convolution at every evaluation
    point; it is exact for the flat-in-space wave kernel.
    """

    def __init__(self, config: SolverConfig, jumps: JumpSet):
        if config.noise.domain.dim != 1:
            raise NotImplementedError("the nonlinear solver runs on one-dimensional domains")
        self.config = config
        self.jumps = jumps
        dom = config.noise.domain
        horizon = config.noise.horizon
        self.t_grid = np.linspace(0.0, horizon, config.n_t)
        self.x_grid = np.linspace(dom.lows[0], dom.highs[0], config.n_x)
        # grid times never coincide with jump times: nudge by one ulp
        jt = set(float(s) for s in jumps.times)
        for i, t in enumerate(self.t_grid):
            while float(self.t_grid[i]) in jt:
                self.t_grid[i] = np.nextafter(self.t_grid[i], -math.inf)
        self.jump_t = jumps.times.copy()
        self.jump_x = jumps.locations[:, 0].copy()
        self.jump_z = jumps.sizes.copy()
        self.n_jumps = self.jump_t.shape[0]
        tt, xx = np.meshgrid(self.t_grid, self.x_grid, indexing="ij")
        self.eval_t = np.concatenate([self.jump_t, tt.ravel()])
        self.eval_x = np.concatenate([self.jump_x, xx.ravel()])
        self.n_eval = self.eval_t.shape[0]
        self.grid_slice = slice(self.n_jumps, self.n_eval)
        self.A = self._build_jump_matrix()
        self.Q = None  # built on demand for alpha > 1

    def _build_jump_matrix(self):
        if self.n_jumps == 0:
            return np.zeros((self.n_eval, 0))
        dt = self.eval_t[:, None] - self.jump_t[None, :]
        mask = dt > 0
        A = np.zeros((self.n_eval, self.n_jumps))
        if mask.any():
            rows, cols = np.nonzero(mask)
            vals = eval_kernel(self.config.kernel, dt[rows, cols], self.eval_x[rows], self.jump_x[cols])
            A[rows, cols] = vals * self.jump_z[cols]
        return A

    def _time_breaks(self, t_e, x_e):
        breaks = {0.0, float(t_e)}
        breaks.update(float(t) for t in self.t_grid if 0.0 < t < t_e)
        if self.config.kernel.kind is KernelKind.WAVE_1D:
            # cone edge crossing lattice nodes and domain ends kinks the
            # spatial mass in s
            for b in list(self.x_grid):
                s = t_e - abs(x_e - b)
                if 0.0 < s < t_e:
                    breaks.add(float(s))
        return sorted(breaks)

    def build_drift_operator(self):
        """Rows: evaluation points; columns: (time, space) lattice nodes.

        One kernel evaluation per row covers all its time nodes and cells.
        """
        if self.Q is not None:
            return self.Q
        t_grid, spec, chi = self.t_grid, self.config.kernel, self.x_grid.tolist()
        nt, nx = t_grid.shape[0], len(chi)
        Q = np.zeros((self.n_eval, nt * nx))
        lo, hi = self.x_grid[:-1, None], self.x_grid[1:, None]
        ys, wy = _gl_on(lo, hi, DRIFT_NODES)
        cell_frac = (ys - lo) / (hi - lo)
        for e, (t_e, x_e) in enumerate(zip(self.eval_t.tolist(), self.eval_x.tolist())):
            if t_e <= 0:
                continue
            edges = self._time_breaks(t_e, x_e)
            panels = zip(*(_gl_on(a, b, DRIFT_NODES) for a, b in zip(edges, edges[1:])))
            s, ws = (np.concatenate(part) for part in panels)
            tau = t_e - s
            keep = tau > 0
            s, ws, tau = s[keep], ws[keep], tau[keep]
            if spec.kind is KernelKind.WAVE_1D:
                sp = 0.5 * np.array([_hat_integrals(chi, x_e - r, x_e + r) for r in tau.tolist()])
            else:
                g = _eval_kernel_per_t(spec, tau, x_e, ys) * wy
                sp = np.zeros((tau.shape[0], nx))
                sp[:, :-1] += (g * (1.0 - cell_frac)).sum(axis=2)
                sp[:, 1:] += (g * cell_frac).sum(axis=2)
            k = np.clip(np.searchsorted(t_grid, s, side="right") - 1, 0, nt - 2)
            frac = (s - t_grid[k]) / (t_grid[k + 1] - t_grid[k])
            # node by node, k before k + 1: three or more terms meet in one entry
            terms = np.stack([(ws * (1.0 - frac))[:, None] * sp, (ws * frac)[:, None] * sp], axis=1)
            np.add.at(Q[e].reshape(nt, nx), np.stack([k, k + 1], axis=1).ravel(), terms.reshape(-1, nx))
        self.Q = Q
        return Q

    def lattice_values(self, u_eval):
        return u_eval[self.grid_slice].reshape(self.t_grid.shape[0], self.x_grid.shape[0])

    def sweep(self, u_eval, sigma: LipschitzSigma, band_value):
        """One Picard application: jump sum minus band_value * drift."""
        s_jump = sigma(u_eval[: self.n_jumps]) if self.n_jumps else np.empty(0)
        out = self.A @ s_jump if self.n_jumps else np.zeros(self.n_eval)
        if band_value != 0.0:
            Q = self.build_drift_operator()
            w = sigma(self.lattice_values(u_eval)).ravel()
            out -= band_value * (Q @ w)
        return out

    def solution_field(self, u_eval, diagnostics, k_used=None):
        return SolutionField(
            t_grid=self.t_grid.copy(),
            x_grid=self.x_grid.copy(),
            grid_values=self.lattice_values(u_eval).copy(),
            jump_values=u_eval[: self.n_jumps].copy(),
            diagnostics=diagnostics,
            k_used=k_used,
        )


def _iterate(ws: _PicardWorkspace, sigma: LipschitzSigma, band_value, config: SolverConfig, start=None):
    u = np.zeros(ws.n_eval) if start is None else start.copy()
    diffs = []
    converged = False
    for _ in range(config.max_iterations):
        u_next = ws.sweep(u, sigma, band_value)
        diffs.append(float(np.abs(u_next - u).max()))
        u = u_next
        if diffs[-1] < config.tolerance:
            converged = True
            break
        if len(diffs) >= 4 and diffs[-1] > diffs[-2] > diffs[-3] > diffs[-4]:
            diag = PicardDiagnostics(len(diffs), diffs, math.inf, False)
            raise PicardDivergenceError("successive-iterate distances grew three sweeps in a row", diag)
    residual = float(np.abs(ws.sweep(u, sigma, band_value) - u).max())
    return u, PicardDiagnostics(len(diffs), diffs, residual, converged)


def _solve(config: SolverConfig, sigma: LipschitzSigma, jumps: JumpSet, start, tail_drift: bool):
    """Truncate at `config.truncation`, then iterate with the (tail-drifted) band."""
    level, measure = config.truncation, config.noise.measure
    work_jumps = jumps if level is None else truncate(jumps, level)
    band = _compensation(measure, jumps.cutoff, level)
    if tail_drift:
        band += _compensation(measure, level)
    ws = _PicardWorkspace(config, work_jumps)
    u, diag = _iterate(ws, sigma, band, config, start=start)
    return ws.solution_field(u, diag, k_used=level)


def solve_linear(kernel: KernelSpec, jumps: JumpSet, config: SolverConfig) -> SolutionField:
    """Mild solution of the linear equation: kernel smoothing of the raw noise.

    u(t, x) is the sum of G(t - T_i, x, X_i) * z_i over strictly earlier
    jumps, minus the full-band compensator drift when alpha > 1.  Requires a
    finite alpha-integrability functional for the kernel, which must be
    `config.kernel`.
    """
    alpha = config.noise.measure.alpha
    if not i_alpha_finite(kernel, alpha):
        raise ValueError("the linear equation has no solution for this kernel and alpha")
    if kernel != config.kernel:
        raise ValueError("the kernel must be the solver configuration's kernel")
    ws = _PicardWorkspace(config, jumps)
    u = ws.sweep(np.zeros(ws.n_eval), sigma_one(), _compensation(config.noise.measure, jumps.cutoff))
    return ws.solution_field(u, None)


def picard_solve(
    config: SolverConfig,
    sigma: LipschitzSigma,
    jumps: JumpSet,
    start=None,
) -> SolutionField:
    """Solve the truncated-noise equation by Picard iteration from zero.

    Truncation is applied here; `config.truncation=None` solves against the
    full simulated noise.  Iteration stops when the sup over evaluation
    points of the successive difference falls below the tolerance; growing
    differences for three consecutive sweeps raise `PicardDivergenceError`.
    `start` optionally seeds iterate zero with another solution field's
    evaluation vector for cross-start uniqueness checks.
    """
    return _solve(config, sigma, jumps, start, tail_drift=False)


def picard_solve_drifted(
    config: SolverConfig,
    sigma: LipschitzSigma,
    jumps: JumpSet,
) -> SolutionField:
    """Solve the truncated equation with the explicit tail-drift term.

    Only meaningful for alpha > 1: the drift coefficient is the band integral
    over (K, inf), applied through the same quadrature operator as the
    compensator, so a full-noise solve and a drifted truncated solve agree
    exactly on realizations without jumps above K.
    """
    if config.noise.measure.alpha <= 1:
        raise ValueError("the drifted equation applies to alpha > 1 only")
    if config.truncation is None:
        raise ValueError("the drifted equation needs a truncation level")
    return _solve(config, sigma, jumps, None, tail_drift=True)


@dataclass
class GlueResult:
    field: SolutionField | None
    k_used: float | None
    resolved: bool


def glue(config: SolverConfig, sigma: LipschitzSigma, jumps: JumpSet, k_ladder) -> GlueResult:
    """Pick the smallest ladder level whose large jumps stay out of the window.

    Solves the truncated equation at that level (drifted for alpha > 1).
    Unresolved realizations (every level sees an oversized jump) are
    reported, not errors.
    """
    levels = list(k_ladder)
    if not levels:
        raise ValueError("the truncation ladder must be nonempty")
    if not all(b > a for a, b in zip(levels, levels[1:])):
        raise ValueError("the truncation ladder must strictly increase")
    _check_level(levels[0], jumps.cutoff)
    horizon = config.noise.horizon
    for level in levels:
        tau = first_large_jump_time(jumps, config.noise.domain, level)
        if tau > horizon:
            solve = picard_solve_drifted if config.noise.measure.alpha > 1 else picard_solve
            return GlueResult(solve(_dc_replace(config, truncation=level), sigma, jumps), level, True)
    return GlueResult(None, None, False)
