"""JSON run configuration, JSON input files and atomic output files.

One config file drives every subcommand: a top-level seed plus one
section per subcommand. Sections are plain objects so the whole file
round-trips through json without loss. load_input is the one reader of
the JSON input files (instances, results, scenario trees, PMF series)
and names the file in every error about its content; parse_cell does
the same for one cell of a CSV input file. atomic_output
hands out a temp name that is renamed into place on success, so readers
never see a half-written file.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path

from .errors import ConfigError, MissingInputError

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
            if not _is_exactly(section, int):
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


def section_for(config: dict, name: str, keys) -> dict:
    """The config's section name, which may set only the given keys."""
    if name not in config:
        raise ConfigError(f"config has no {name!r} section")
    for key in config[name]:
        if key not in keys:
            raise ConfigError(
                f"{name} config: unknown key {key!r}; expected one of {', '.join(keys)}"
            )
    return config[name]


def require(section: dict, key: str, context: str):
    if key not in section:
        raise ConfigError(f"{context} config needs {key!r}")
    return section[key]


_REQUIRED = object()


def _is_exactly(value, kind) -> bool:
    """Whether a JSON value is of kind exactly; true is not the int 1."""
    return isinstance(value, kind) and (kind is bool) == isinstance(value, bool)


def typed(section: dict, key: str, kind, context: str, default=_REQUIRED):
    """section[key] converted by kind (a checking parser), or checked
    to be a JSON int, bool or string as is, so 2.7 is not
    truncated to 2, "false" not read as true, nor [1] as "[1]"; default
    when the key is absent. A required key that is absent, or a value
    kind rejects, raises ConfigError naming the key."""
    if key not in section and default is not _REQUIRED:
        return default
    raw = require(section, key, context)
    if kind in (int, bool, str) and not _is_exactly(raw, kind):
        raise ConfigError(f"{context} config {key!r}: expected {kind.__name__}, got {raw!r}")
    try:
        return kind(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context} config {key!r}: {exc}") from exc


def load_input(path, what: str, from_body):
    """from_body applied to the parsed JSON of an input file.

    Invalid JSON, a missing field, or a value of the wrong shape, type
    or content raises MissingInputError naming the file; an unreadable
    file raises OSError.
    """
    try:
        return from_body(json.loads(Path(path).read_text()))
    except KeyError as exc:
        raise MissingInputError(f"{what} file {path} is missing {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise MissingInputError(f"{what} file {path} is malformed: {exc}") from exc


def parse_cell(parse, text, path, what: str, line: int, column: str):
    """parse(text) for one cell of a CSV input file. A value parse
    rejects raises MissingInputError naming the file, line and column."""
    try:
        return parse(text)
    except (TypeError, ValueError) as exc:
        raise MissingInputError(
            f"{what} file {path} line {line}, column {column!r}: {exc}"
        ) from exc


def csv_rows(reader, header, path, what: str, skip_blank: bool = False):
    """Yield (line, row) for each row of a csv.reader past its header.
    A row whose field count differs from the header's raises
    MissingInputError naming the file and line; skip_blank passes over
    empty lines."""
    for row in reader:
        if skip_blank and not row:
            continue
        if len(row) != len(header):
            raise MissingInputError(
                f"{what} file {path} line {reader.line_num} has {len(row)} fields, "
                f"its header {len(header)}"
            )
        yield reader.line_num, row


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
