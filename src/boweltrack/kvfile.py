"""Tiny `key: value` text format used for configs and phantom specs."""

from __future__ import annotations

from .errors import ConfigError


def read_kv_file(path) -> dict[str, str]:
    """Parse `key: value` lines; '#' starts a comment, blank lines skipped."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = list(fh)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not a UTF-8 text file: {exc}") from exc
    out: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key: value', got {raw.strip()!r}")
        key, value = line.split(":", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def parse_floats(value: str, count: int | None, key: str) -> tuple[float, ...]:
    """The numbers of `value`; exactly `count` of them unless it is None."""
    tokens = value.split()
    if count is not None and len(tokens) != count:
        raise ConfigError(f"{key!r} needs {count} numbers, got {len(tokens)}")
    try:
        return tuple(float(t) for t in tokens)
    except ValueError as exc:
        raise ConfigError(f"bad number in {key!r}: {exc}") from exc
