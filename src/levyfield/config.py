"""Run configuration: sectioned key=value files with a JSON-equivalent form.

The native format is INI-style sections ([run], [noise], [kernel], [solver],
[verify]) holding key=value pairs; a top-level JSON object with the same
sections parses identically.  Unknown sections or keys are rejected before
any simulation starts, and a parsed configuration echoes back to a
normalized text form that re-parses to the same values.
"""

from __future__ import annotations

import configparser
import json
from dataclasses import dataclass, field, fields as dc_fields
from pathlib import Path

from .boxes import Box
from .kernels import KernelKind, KernelSpec
from .noise import NoiseConfig
from .stable import LevyMeasure

__all__ = ["ConfigError", "RunConfig", "parse_config", "load_config"]


class ConfigError(ValueError):
    """Malformed or unknown configuration content."""


@dataclass
class RunSection:
    seed: int = 1
    replicates: int = 1000
    out: str = "out"
    threads: int = 1


@dataclass
class NoiseSection:
    alpha: float = 0.5
    beta: float = 0.0
    horizon: float = 1.0
    domain: str = "0,1"
    cutoff: float = 1e-3


@dataclass
class KernelSection:
    kind: str = "wave_1d"
    dim: int = 1
    gamma: float = 0.5
    bounded: bool = True


@dataclass
class SolverSection:
    truncation: float = 1.0
    p: float = 0.75
    n_t: int = 17
    n_x: int = 17
    max_iterations: int = 25
    tolerance: float = 1e-8
    sigma: str = "affine:1,1"


@dataclass
class VerifySection:
    replicates: int = 0  # 0: use the suite defaults
    negative_control: bool = False


_SECTION_TYPES = {
    "run": RunSection,
    "noise": NoiseSection,
    "kernel": KernelSection,
    "solver": SolverSection,
    "verify": VerifySection,
}


def _coerce(value, target_type):
    if target_type is bool:
        if isinstance(value, bool):
            return value
        text = str(value).strip().lower()
        if text in ("1", "true", "yes", "on"):
            return True
        if text in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"cannot read '{value}' as a boolean")
    try:
        return target_type(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"cannot read '{value}' as {target_type.__name__}") from exc


def _fill_section(cls, data, section_name):
    allowed = {f.name: f.type for f in dc_fields(cls)}
    out = cls()
    for key, value in data.items():
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}' in section [{section_name}]")
        current = getattr(out, key)
        setattr(out, key, _coerce(value, type(current)))
    return out


@dataclass
class RunConfig:
    run: RunSection = field(default_factory=RunSection)
    noise: NoiseSection = field(default_factory=NoiseSection)
    kernel: KernelSection = field(default_factory=KernelSection)
    solver: SolverSection = field(default_factory=SolverSection)
    verify: VerifySection = field(default_factory=VerifySection)

    def domain_box(self) -> Box:
        parts = [p.strip() for p in self.noise.domain.split(";") if p.strip()]
        lows, highs = [], []
        for part in parts:
            bounds = [b.strip() for b in part.split(",")]
            if len(bounds) != 2:
                raise ConfigError(f"domain axis '{part}' must be 'lo,hi'")
            lows.append(float(bounds[0]))
            highs.append(float(bounds[1]))
        return Box(tuple(lows), tuple(highs))

    def noise_config(self) -> NoiseConfig:
        # NoiseConfig accepts an empty window; a run needs a positive horizon
        if not self.noise.horizon > 0:
            raise ConfigError("horizon must be positive")
        try:
            return NoiseConfig(
                measure=LevyMeasure.from_beta(self.noise.alpha, self.noise.beta),
                horizon=self.noise.horizon,
                domain=self.domain_box(),
                cutoff=self.noise.cutoff,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def kernel_spec(self) -> KernelSpec:
        try:
            kind = KernelKind(self.kernel.kind)
        except ValueError as exc:
            names = ", ".join(k.value for k in KernelKind)
            raise ConfigError(f"unknown kernel kind '{self.kernel.kind}'; one of: {names}") from exc
        gamma = self.kernel.gamma if kind is KernelKind.FRACTIONAL_HEAT else None
        try:
            domain = self.domain_box() if self.kernel.bounded else None
            if kind is KernelKind.HEAT_DIRICHLET_INTERVAL:
                domain = Box.interval(0.0, 1.0)
            return KernelSpec(kind=kind, dim=self.kernel.dim, gamma=gamma, domain=domain)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def sigma(self):
        from .solver import sigma_affine, sigma_identity, sigma_one, sigma_zero

        desc = self.solver.sigma.strip()
        if desc == "zero":
            return sigma_zero()
        if desc == "one":
            return sigma_one()
        if desc == "identity":
            return sigma_identity()
        if desc.startswith("affine:"):
            try:
                a, b = (float(v) for v in desc[len("affine:") :].split(","))
            except ValueError as exc:
                raise ConfigError("sigma 'affine:a,b' needs two numbers") from exc
            return sigma_affine(a, b)
        raise ConfigError(f"unknown sigma '{desc}' (zero | one | identity | affine:a,b)")

    def solver_config(self):
        from .solver import SolverConfig

        try:
            return SolverConfig(
                kernel=self.kernel_spec(),
                noise=self.noise_config(),
                truncation=self.solver.truncation,
                p=self.solver.p,
                n_t=self.solver.n_t,
                n_x=self.solver.n_x,
                max_iterations=self.solver.max_iterations,
                tolerance=self.solver.tolerance,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def normalized_text(self) -> str:
        """Canonical key=value form; re-parsing yields an equal RunConfig."""
        lines = []
        for name in ("run", "noise", "kernel", "solver", "verify"):
            section = getattr(self, name)
            lines.append(f"[{name}]")
            for f in dc_fields(section):
                value = getattr(section, f.name)
                if isinstance(value, bool):
                    value = "true" if value else "false"
                elif isinstance(value, float):
                    value = "%.17g" % value
                lines.append(f"{f.name} = {value}")
            lines.append("")
        return "\n".join(lines)


def parse_config(text: str) -> RunConfig:
    """Parse INI-style key=value text or an equivalent JSON object."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON configuration: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("JSON configuration must be an object of sections")
    else:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"invalid configuration: {exc}") from exc
        data = {s: dict(parser.items(s)) for s in parser.sections()}
    cfg = RunConfig()
    for section_name, payload in data.items():
        if section_name not in _SECTION_TYPES:
            raise ConfigError(f"unknown section [{section_name}]")
        if not isinstance(payload, dict):
            raise ConfigError(f"section [{section_name}] must hold key=value pairs")
        setattr(cfg, section_name, _fill_section(_SECTION_TYPES[section_name], payload, section_name))
    # construction of the derived objects validates cross-field constraints
    cfg.noise_config()
    return cfg


def load_config(path) -> RunConfig:
    text = Path(path).read_text(encoding="utf-8")
    return parse_config(text)
