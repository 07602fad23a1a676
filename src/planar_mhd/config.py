"""Flat key = value run configuration.

'#' starts a comment, blank lines are skipped, unknown keys are rejected.
Every key has a documented default; parse_config of an empty document gives
the default configuration, and parse_config(render_config(cfg)) round-trips
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .diagnostics import check_alpha, default_alpha
from .model import PhysParams
from .solver import SchemeConfig


class ConfigError(Exception):
    """Invalid configuration text or values."""


@dataclass(frozen=True)
class RunConfig:
    scenario: str = "uniform-rest"     # library name or path to a state table
    n_cells: int = 128
    t_end: float = 0.1
    cfl: float = 0.5
    dt_max: float = 0.05
    delta: float = 0.0                 # vacuum regularization shift (0 = off)
    alpha: float | None = None         # weight exponent; None = min(1, q_exp)/2
    record_every: int = 1
    snapshot_times: tuple = ()
    output_dir: str = "out"
    lambda_visc: float = 1.0
    mu_visc: float = 1.0
    nu_mag: float = 1.0
    gas_R: float = 1.0
    c_v: float = 1.0
    kappa_a: float = 1.0
    kappa_b: float = 1.0
    q_exp: float = 2.0
    picard_tol: float = 1e-10
    picard_max_iters: int = 50
    theta_floor_tol: float = 1e-8

    def phys_params(self):
        return PhysParams(self.lambda_visc, self.mu_visc, self.nu_mag,
                          self.gas_R, self.c_v, self.kappa_a, self.kappa_b,
                          self.q_exp)

    def scheme_config(self):
        return SchemeConfig(cfl=self.cfl, dt_max=self.dt_max,
                            picard_tol=self.picard_tol,
                            picard_max_iters=self.picard_max_iters,
                            theta_floor_tol=self.theta_floor_tol)

    def resolved_alpha(self):
        params = self.phys_params()
        if self.alpha is None:
            return default_alpha(params)
        return check_alpha(self.alpha, params)


_INT_KEYS = {"n_cells", "record_every", "picard_max_iters"}
_STR_KEYS = {"scenario", "output_dir"}
_LIST_KEYS = {"snapshot_times"}
_ALL_KEYS = {f.name for f in fields(RunConfig)}


def _parse_value(key, raw, lineno):
    try:
        if key in _STR_KEYS:
            return raw
        if key in _INT_KEYS:
            return int(raw)
        if key in _LIST_KEYS:
            if not raw:
                return ()
            return tuple(float(part) for part in raw.split(","))
        if key == "alpha" and raw.lower() == "none":
            return None
        return float(raw)
    except ValueError:
        raise ConfigError(f"line {lineno}: cannot parse value {raw!r} for key {key!r}") from None


def _validate(cfg):
    """Check the run-level rules here; the physical, scheme and weight
    rules are checked (and worded) by PhysParams, SchemeConfig and
    check_alpha."""
    try:
        cfg.resolved_alpha()
        cfg.scheme_config()
    except ValueError as err:
        raise ConfigError(str(err)) from None
    for name in ("t_end", "delta"):
        value = getattr(cfg, name)
        if not 0.0 <= value < math.inf:
            raise ConfigError(f"{name} must be nonnegative and finite, got {value!r}")
    if cfg.n_cells < 4:
        raise ConfigError(f"n_cells must be at least 4, got {cfg.n_cells!r}")
    if cfg.record_every < 1:
        raise ConfigError(f"record_every must be at least 1, got {cfg.record_every!r}")
    if not all(0.0 <= t < math.inf for t in cfg.snapshot_times):
        raise ConfigError("snapshot_times must all be nonnegative and finite")
    return cfg


def parse_config(text):
    """Parse configuration text into a validated RunConfig."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in _ALL_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _parse_value(key, raw, lineno)
    return _validate(RunConfig(**values))


def render_config(cfg):
    """Render a RunConfig back to parseable text (exact round trip)."""
    lines = []
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if f.name == "alpha" and value is None:
            continue
        if f.name in _LIST_KEYS:
            shown = ",".join(repr(v) for v in value)
        elif isinstance(value, float):
            shown = repr(value)
        else:
            shown = str(value)
        lines.append(f"{f.name} = {shown}")
    return "\n".join(lines) + "\n"


def load_config_file(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from None
    return parse_config(text)
