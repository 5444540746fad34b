"""Command-line front door: noise | linear | solve | kernels | verify.

Every output file starts with a comment line carrying the package version
and the seed.  Exit codes: 0 success, 1 statistical-suite failure, 2 usage
or configuration error (nothing written), 3 internal error (a failed
computation, or a Picard solve that diverged or did not converge).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .boxes import Box, SpaceTimeBox
from .config import ConfigError, RunConfig, load_config
from .kernels import eval_kernel, i_alpha, j_p
from .noise import _check_exponent, noise_of_box, save_jumps_csv, simulate_jumps, write_csv
from .solver import PicardDivergenceError, picard_solve, picard_solve_drifted, solve_linear
from .verify import MIN_CF_SAMPLES, SUITES, run_suite

USAGE_ERROR = 2
SUITE_FAILURE = 1
INTERNAL_ERROR = 3


def _header(cfg: RunConfig):
    return f"levyfield {__version__} seed={cfg.run.seed}"


def _prepare_out(cfg: RunConfig):
    out = Path(cfg.run.out)
    out.mkdir(parents=True, exist_ok=True)
    echo = out / "config_echo.cfg"
    echo.write_text(f"# {_header(cfg)}\n" + cfg.normalized_text(), encoding="utf-8")
    return out


def _split_domain(box):
    mid = (box.lows[0] + box.highs[0]) / 2.0
    left = Box((box.lows[0],) + box.lows[1:], (mid,) + box.highs[1:])
    right = Box((mid,) + box.lows[1:], (box.highs[0],) + box.highs[1:])
    return left, right


def cmd_noise(cfg: RunConfig) -> int:
    noise_config = cfg.noise_config()
    replicates = cfg.run.replicates
    if replicates < 1:
        raise ConfigError("replicates must be at least 1")
    out = _prepare_out(cfg)
    rng = np.random.default_rng(cfg.run.seed)
    window = SpaceTimeBox(0.0, noise_config.horizon, noise_config.domain)
    left, right = _split_domain(noise_config.domain)
    rows = []
    first = None
    for r in range(replicates):
        jumps = simulate_jumps(noise_config, rng, seed_info=f"{cfg.run.seed}/{r}")
        if first is None:
            first = jumps
        rows.append(
            (
                r,
                jumps.n,
                noise_of_box(jumps, window, noise_config),
                noise_of_box(jumps, SpaceTimeBox(0.0, noise_config.horizon, left), noise_config),
                noise_of_box(jumps, SpaceTimeBox(0.0, noise_config.horizon, right), noise_config),
            )
        )
    save_jumps_csv(first, out / "jumps.csv", header_comment=_header(cfg))
    columns = ["replicate", "count", "value_full", "value_left", "value_right"]
    write_csv(out / "noise_values.csv", columns, rows, [_header(cfg)])
    counts = np.array([r[1] for r in rows], dtype=float)
    values = np.array([r[2] for r in rows])
    print(f"replicates={replicates} mean_count={counts.mean():.6g} expected={noise_config.expected_jump_count:.6g}")
    print(f"mean_value={values.mean():.6g} sd_value={values.std(ddof=1) if replicates > 1 else 0.0:.6g}")
    print(f"wrote {out / 'jumps.csv'} and {out / 'noise_values.csv'}")
    return 0


def cmd_linear(cfg: RunConfig) -> int:
    solver_cfg = cfg.solver_config()
    out = _prepare_out(cfg)
    rng = np.random.default_rng(cfg.run.seed)
    jumps = simulate_jumps(solver_cfg.noise, rng, seed_info=str(cfg.run.seed))
    sol = solve_linear(solver_cfg.kernel, jumps, solver_cfg)
    sol.save_csv(out / "linear_solution.csv", header_comment=_header(cfg))
    print(f"jumps={jumps.n} grid={sol.grid_values.shape} wrote {out / 'linear_solution.csv'}")
    return 0


def cmd_solve(cfg: RunConfig) -> int:
    solver_cfg = cfg.solver_config()
    sigma = cfg.sigma()
    out = _prepare_out(cfg)
    rng = np.random.default_rng(cfg.run.seed)
    jumps = simulate_jumps(solver_cfg.noise, rng, seed_info=str(cfg.run.seed))
    try:
        sol = (picard_solve_drifted if cfg.noise.alpha > 1 else picard_solve)(solver_cfg, sigma, jumps)
        d = sol.diagnostics
    except PicardDivergenceError as exc:
        d = exc.diagnostics
    diag_path = out / "diagnostics.json"
    diag_path.write_text(d.to_json(k_used=solver_cfg.truncation, meta=_header(cfg)), encoding="utf-8")
    if not d.converged:  # diverged, or out of iterations: no solution file
        print(f"error: the Picard iteration did not converge; see {diag_path}", file=sys.stderr)
        return INTERNAL_ERROR
    sol.save_csv(out / "solution.csv", header_comment=_header(cfg))
    print(f"jumps={jumps.n} iterations={d.iterations} residual={d.residual:.3g} converged={d.converged}")
    print(f"wrote {out / 'solution.csv'} and {diag_path}")
    return 0


def cmd_kernels(cfg: RunConfig) -> int:
    spec = cfg.kernel_spec()
    out = _prepare_out(cfg)
    alpha = cfg.noise.alpha
    p = cfg.solver.p
    times = np.array([0.25, 0.5, 1.0, 2.0, 4.0])
    xs = np.linspace(-2.0, 2.0, 17) if spec.domain is None else np.linspace(
        spec.domain.lows[0] + 1e-3, spec.domain.highs[0] - 1e-3, 17
    )
    y0 = 0.0 if spec.domain is None else (spec.domain.lows[0] + spec.domain.highs[0]) / 2.0

    def value(t, x):
        if spec.dim == 1:
            return float(eval_kernel(spec, t, x, y0))
        return float(eval_kernel(spec, t, (x, 0.0), (y0, 0.0)))

    comments = [_header(cfg)]
    values = [(t, x, value(t, x)) for t in times for x in xs]
    write_csv(out / "kernel_values.csv", ["t", "x", "value"], values, comments)
    functionals = [(t, i_alpha(spec, t, alpha), j_p(spec, t, p)) for t in times]
    write_csv(out / "kernel_functionals.csv", ["t", "i_alpha", "j_p"], functionals, comments)
    print(f"wrote {out / 'kernel_values.csv'} and {out / 'kernel_functionals.csv'}")
    return 0


def cmd_verify(cfg: RunConfig, suite_name: str) -> int:
    names = sorted(SUITES) if suite_name == "all" else [suite_name]
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        print(
            f"unknown suite '{unknown[0]}'; available: {', '.join(sorted(SUITES))} or 'all'",
            file=sys.stderr,
        )
        return USAGE_ERROR
    if "moment" in names:
        try:
            _check_exponent(cfg.noise.alpha, cfg.solver.p)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if "ecf" in names and 0 < cfg.verify.replicates < MIN_CF_SAMPLES:
        raise ConfigError(f"the ecf suite needs at least {MIN_CF_SAMPLES} replicates")
    out = _prepare_out(cfg)
    all_passed = True
    for name in names:
        kwargs = {"alpha": cfg.noise.alpha, "beta": cfg.noise.beta, "seed": cfg.run.seed,
                  "negative_control": cfg.verify.negative_control}
        if name in ("ecf", "tail", "moment") and cfg.run.threads > 1:
            kwargs["workers"] = cfg.run.threads
        if cfg.verify.replicates > 0:
            kwargs["replicates"] = cfg.verify.replicates
        if name == "moment":
            kwargs["p"] = cfg.solver.p
        report = run_suite(name, **kwargs)
        (out / f"report_{name}.json").write_text(report.to_json(), encoding="utf-8")
        print("\n".join(report.summary_lines()))
        all_passed &= report.passed
    return 0 if all_passed else SUITE_FAILURE


COMMANDS = {"noise": cmd_noise, "linear": cmd_linear, "solve": cmd_solve, "kernels": cmd_kernels}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="levyfield",
        description="Simulate heavy-tailed random-field noise and solve its SPDEs",
    )
    parser.add_argument("--config", type=str, default=None, help="path to a key=value or JSON config")
    parser.add_argument("--seed", type=int, default=None, help="override the configured seed")
    parser.add_argument("--out", type=str, default=None, help="override the output directory")
    parser.add_argument("--replicates", type=int, default=None, help="override the replicate count")
    parser.add_argument("--threads", type=int, default=None, help="worker threads for replicate farms")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("noise", help="simulate jump sets and box noise values")
    sub.add_parser("linear", help="solve the linear equation")
    sub.add_parser("solve", help="solve the nonlinear truncated equation")
    sub.add_parser("kernels", help="tabulate kernel values and functionals")
    verify = sub.add_parser("verify", help="run statistical verification suites")
    verify.add_argument("suite", help="suite name or 'all'")
    verify.add_argument(
        "--negative-control",
        action="store_true",
        help="apply the suite's built-in perturbation (must fail)",
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        for key in ("seed", "out", "replicates", "threads"):
            if getattr(args, key) is not None:
                setattr(cfg.run, key, getattr(args, key))
        if args.command == "verify":
            cfg.verify.negative_control |= args.negative_control
            if args.replicates is not None:  # for verify, the suites' replicate count
                cfg.verify.replicates = args.replicates
            return cmd_verify(cfg, args.suite)
        return COMMANDS[args.command](cfg)
    except (OSError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:  # a failed computation: one line, no traceback
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
