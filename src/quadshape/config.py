"""Plain-text run configuration.

The format is deliberately small: ``[section]`` headers with ``key = value``
lines, ``#`` comments, and no nesting.  The ``[source]`` section may repeat,
once per disk; standard config parsers reject duplicate sections, which is
why this one is hand-rolled.  Unknown sections or keys are errors, not
warnings: a typo in a tolerance should never silently run with defaults.

Example::

    [geometry]
    kind = ellipse
    rx = 1.2
    ry = 0.8
    n = 128

    [source]
    x = 0.0
    y = 0.0
    rho = 0.1
    mass = 6.283185307179586

    [params]
    k = 1.0
    A = 1.0
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import get_type_hints

from .flow import FlowConfig
from .geometry import Curve, MetricParams
from .potential import Disk, SourceTerm


class ConfigError(Exception):
    """Malformed or inconsistent run configuration."""


@dataclass(frozen=True)
class GeometrySpec:
    """Initial curve description; ``build`` realizes it as a Curve."""

    kind: str = "circle"
    n: int = 256
    radius: float = 1.0
    rx: float = 1.0
    ry: float = 1.0
    base_radius: float = 1.0
    cos: dict = field(default_factory=dict)
    sin: dict = field(default_factory=dict)

    def build(self):
        if self.kind == "circle":
            return Curve.circle(self.radius, n=self.n)
        if self.kind == "ellipse":
            return Curve.ellipse(self.rx, self.ry, n=self.n)
        if self.kind == "radial":
            return Curve.from_radial(self.base_radius, cos=self.cos,
                                     sin=self.sin, n=self.n)
        raise ConfigError(f"unknown geometry kind '{self.kind}'")


@dataclass(frozen=True)
class FDSpec:
    t_step: float = 1e-3

    def __post_init__(self):
        if not (math.isfinite(self.t_step) and self.t_step > 0):
            raise ValueError("t_step must be finite and positive")


@dataclass(frozen=True)
class OutputSpec:
    snapshot_every: int = 25
    svg: bool = True
    max_eigs: int = 16

    def __post_init__(self):
        if self.snapshot_every < 1:
            raise ValueError("snapshot_every must be at least 1")
        if self.max_eigs < 1:
            raise ValueError("max_eigs must be at least 1")


@dataclass(frozen=True)
class RunConfig:
    geometry: GeometrySpec
    source: SourceTerm
    params: MetricParams
    fd: FDSpec
    directions: tuple
    flow: FlowConfig
    output: OutputSpec

    def build_curve(self):
        return self.geometry.build()


DEFAULT_DIRECTIONS = ("const", "cos1", "cos2", "sin2")

# Sections whose keys are exactly the fields of one dataclass.
SCALAR_SECTIONS = {"params": MetricParams, "fd": FDSpec, "flow": FlowConfig,
                   "output": OutputSpec}


def _parse_scalar(text, key, section, caster):
    try:
        return caster(text)
    except ValueError:
        raise ConfigError(f"bad value for '{key}' in [{section}]: {text!r}") from None


def _parse_bool(text, key, section):
    low = text.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"bad value for '{key}' in [{section}]: {text!r}")


def parse_config_text(text):
    """Parse config text into a RunConfig.  Raises ConfigError on any
    unknown section or key and re-raises value errors from the validating
    dataclasses (so e.g. a nonpositive k fails here, not mid-run)."""
    sections = []          # list of (name, {key: raw}) in file order
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = (line[1:-1].strip().lower(), {})
            sections.append(current)
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in current[1]:
            raise ConfigError(f"line {lineno}: duplicate key '{key}' in [{current[0]}]")
        current[1][key] = value.strip()

    known = {"geometry", "source", "directions", *SCALAR_SECTIONS}
    seen = set()
    for name, _ in sections:
        if name not in known:
            raise ConfigError(f"unknown section [{name}]")
        if name != "source" and name in seen:
            raise ConfigError(f"section [{name}] may not repeat")
        seen.add(name)

    geometry = GeometrySpec()
    disks = []
    directions = DEFAULT_DIRECTIONS
    scalars = {}

    for name, body in sections:
        if name == "geometry":
            geometry = _build_geometry(body)
        elif name == "source":
            disks.append(_build_disk(body))
        elif name == "directions":
            for key, val in body.items():
                if key != "modes":
                    raise ConfigError(f"unknown key '{key}' in [directions]")
                directions = tuple(m.strip() for m in val.split(",") if m.strip())
                if not directions:
                    raise ConfigError("[directions] modes list is empty")
        else:
            scalars[name] = _parse_section(SCALAR_SECTIONS[name], body, name)

    if not disks:
        raise ConfigError("at least one [source] section is required")
    try:
        source = SourceTerm(tuple(disks))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    for name, cls in SCALAR_SECTIONS.items():
        scalars.setdefault(name, cls())
    return RunConfig(geometry=geometry, source=source, directions=directions,
                     **scalars)


def _parse_section(cls, body, section):
    """The dataclass ``cls`` built from a section's keys, each value cast
    to its field's type (``_parse_bool`` for bool fields)."""
    types = get_type_hints(cls)
    kw = {}
    for key, val in body.items():
        if key not in types:
            raise ConfigError(f"unknown key '{key}' in [{section}]")
        if types[key] is bool:
            kw[key] = _parse_bool(val, key, section)
        else:
            kw[key] = _parse_scalar(val, key, section, types[key])
    try:
        return cls(**kw)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _build_geometry(body):
    kind = body.pop("kind", "circle").lower()
    n = _parse_scalar(body.pop("n", "256"), "n", "geometry", int)
    kw = {"kind": kind, "n": n}
    allowed = {
        "circle": {"radius"},
        "ellipse": {"rx", "ry"},
        "radial": {"base_radius"},
    }
    if kind not in allowed:
        raise ConfigError(f"unknown geometry kind '{kind}'")
    cos, sin = {}, {}
    for key, val in body.items():
        if kind == "radial" and key[:3] in ("cos", "sin") and key[3:].isdigit():
            target = cos if key[:3] == "cos" else sin
            target[int(key[3:])] = _parse_scalar(val, key, "geometry", float)
        elif key in allowed[kind]:
            kw[key] = _parse_scalar(val, key, "geometry", float)
        else:
            raise ConfigError(f"unknown key '{key}' in [geometry]")
    if kind == "radial":
        kw["cos"], kw["sin"] = cos, sin
    return GeometrySpec(**kw)


def _build_disk(body):
    kw = {}
    for key, val in body.items():
        if key not in ("x", "y", "rho", "mass"):
            raise ConfigError(f"unknown key '{key}' in [source]")
        kw[key] = _parse_scalar(val, key, "source", float)
    for key in ("rho", "mass"):
        if key not in kw:
            raise ConfigError(f"[source] is missing '{key}'")
    try:
        return Disk(kw.get("x", 0.0), kw.get("y", 0.0), kw["rho"], kw["mass"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    return parse_config_text(text)
