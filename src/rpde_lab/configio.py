"""Plain key-value config files and deterministic CSV emission.

Config format: one ``key = value`` per line, ``#`` starts a comment, blank
lines ignored. Values stay strings here; typed access is the caller's job.
CSV floats are written with ``repr`` so outputs are byte-identical across
runs and worker counts.
"""

from __future__ import annotations

import math
import os
from typing import Iterable, Mapping

from .errors import ConfigError


def parse_kv_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        out[key] = value.strip()
    return out


def load_kv_file(path: str) -> dict[str, str]:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        return parse_kv_text(fh.read())


def dump_kv_text(pairs: Mapping[str, object]) -> str:
    return "".join(f"{k} = {format_value(v)}\n" for k, v in pairs.items())


def write_kv_file(path: str, pairs: Mapping[str, object]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(dump_kv_text(pairs))


def get_typed(cfg: Mapping[str, str], key: str, kind, default=None):
    """Fetch ``key`` converted by ``kind``; ``default`` may be a value or None."""
    if key not in cfg:
        if default is None and key not in cfg:
            raise ConfigError(f"missing config key: {key}")
        return default
    raw = cfg[key]
    try:
        if kind is bool:
            if raw.lower() in ("1", "true", "yes", "on"):
                return True
            if raw.lower() in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"config key {key}: cannot parse {raw!r} as {kind.__name__}") from exc


def get_finite(cfg: Mapping[str, str], key: str, default: float | None = None) -> float:
    """get_typed of a float setting, which must be finite."""
    value = get_typed(cfg, key, float, default)
    if not math.isfinite(value):
        raise ConfigError(f"config key {key} must be finite, got {value!r}")
    return value


def format_value(v: object) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(float(v))  # plain-float repr also for numpy scalars
    return str(v)


def csv_line(fields: Iterable[object]) -> str:
    return ",".join(format_value(f) if not isinstance(f, str) else f for f in fields)


def write_csv(path: str, header: Iterable[str], rows: Iterable[Iterable[object]]) -> None:
    """Write rows with repr-formatted floats; newline fixed to ``\\n``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(csv_line(row) + "\n")
