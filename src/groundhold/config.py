"""JSON run configuration and atomic output files.

One config file drives every subcommand: a top-level seed plus one
section per subcommand. Sections are plain objects so the whole file
round-trips through json without loss. atomic_output hands out a temp
name that is renamed into place on success, so readers never see a
half-written file.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path

from .errors import ConfigError

SECTIONS = ("estimate", "predict", "reduce-scenarios", "solve", "evaluate", "sweep")


def load_config(path) -> dict:
    """Parse and structurally validate a config file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        body = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(body, dict):
        raise ConfigError("config root must be an object")
    for name, section in body.items():
        if name == "seed":
            if not isinstance(section, int):
                raise ConfigError("seed must be an integer")
            continue
        if name not in SECTIONS:
            raise ConfigError(
                f"unknown config section {name!r}; expected one of "
                f"{', '.join(SECTIONS)} or seed"
            )
        if not isinstance(section, dict):
            raise ConfigError(f"section {name!r} must be an object")
    return body


def section_for(config: dict, name: str) -> dict:
    if name not in config:
        raise ConfigError(f"config has no {name!r} section")
    return config[name]


def require(section: dict, key: str, context: str):
    if key not in section:
        raise ConfigError(f"{context} config needs {key!r}")
    return section[key]


_REQUIRED = object()


def typed(section: dict, key: str, kind, context: str, default=_REQUIRED):
    """section[key] converted by kind (int or float), or default when the
    key is absent. A required key that is absent, or a value kind cannot
    convert, raises ConfigError naming the key."""
    if key not in section and default is not _REQUIRED:
        return default
    raw = require(section, key, context)
    try:
        return kind(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context} config {key!r}: {exc}") from exc


@contextmanager
def atomic_output(path):
    """Yield a temp path that replaces `path` only on clean exit."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, temp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    os.close(fd)
    try:
        yield temp
        os.replace(temp, path)
    finally:
        if os.path.exists(temp):
            os.unlink(temp)
