"""Flat key = value run configuration.

'#' starts a comment, blank lines are skipped, unknown keys are rejected.
Every key has a documented default; parse_config of an empty document gives
the default configuration, and parse_config(render_config(cfg)) round-trips
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .diagnostics import check_alpha
from .model import MIN_CELLS, PhysParams, check_whole
from .solver import SchemeConfig


class ConfigError(Exception):
    """Invalid configuration text or values."""


@dataclass(frozen=True)
class RunConfig:
    scenario: str = "uniform-rest"     # library name or path to a state table
    n_cells: int = 128
    t_end: float = 0.1
    delta: float = 0.0                 # vacuum regularization shift (0 = off)
    alpha: float | None = None         # weight exponent; None = min(1, q_exp)/2
    record_every: int = 1
    snapshot_times: tuple = ()
    output_dir: str = "out"
    phys: PhysParams = PhysParams()
    scheme: SchemeConfig = SchemeConfig()


# the nested dataclasses whose fields are flat keys of the file
_SECTIONS = {"phys": PhysParams, "scheme": SchemeConfig}


def _flat_items(cfg):
    """(key, value) for every configuration key, section fields inlined."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.name in _SECTIONS:
            yield from _flat_items(value)
        else:
            yield f.name, value


_INT_KEYS = {"n_cells", "record_every", "picard_max_iters"}
_STR_KEYS = {"scenario", "output_dir"}
_LIST_KEYS = {"snapshot_times"}
_ALL_KEYS = {key for key, _ in _flat_items(RunConfig())}


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
    check_alpha, and the grid size and record stride by check_whole."""
    try:
        if cfg.alpha is not None:
            check_alpha(cfg.alpha, cfg.phys)
        check_whole("n_cells", cfg.n_cells, MIN_CELLS)
        check_whole("record_every", cfg.record_every, 1)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    for name in ("t_end", "delta"):
        value = getattr(cfg, name)
        if not 0.0 <= value < math.inf:
            raise ConfigError(f"{name} must be nonnegative and finite, got {value!r}")
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
    try:
        sections = {name: cls(**{f.name: values.pop(f.name)
                                 for f in fields(cls) if f.name in values})
                    for name, cls in _SECTIONS.items()}
    except ValueError as err:
        raise ConfigError(str(err)) from None
    return _validate(RunConfig(**values, **sections))


def render_config(cfg):
    """Render a RunConfig back to parseable text (exact round trip)."""
    lines = []
    for key, value in _flat_items(cfg):
        if key == "alpha" and value is None:
            continue
        if key in _LIST_KEYS:
            shown = ",".join(repr(v) for v in value)
        elif isinstance(value, float):
            shown = repr(value)
        else:
            shown = str(value)
        lines.append(f"{key} = {shown}")
    return "\n".join(lines) + "\n"


def load_config_file(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from None
    return parse_config(text)
