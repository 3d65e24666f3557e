"""JSON run configuration, input files and output files.

One config file drives every subcommand: a top-level seed plus one
section per subcommand. Sections are plain objects so the whole file
round-trips through json without loss. parse_section reads a section
through a table of Key entries, whose parsers are the checking parsers
below (number, finite, count, ...) or the library's own. load_input is
the one reader of the JSON input files (instances, results, scenario
trees, PMF series) and names the file in every error about its content;
read_csv does the same for the CSV input files (records, observations,
training rows), streaming their rows through per-column parsers.
write_json writes every indented JSON output, write_csv every CSV
output but the per-sample costs. Commands return their outputs and
cli.main commits them through write_outputs: every file is written
beside its path and all are moved into place together, so readers
never see a half-written file nor a failed run's partial outputs. An
output's directory must exist; none is created.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
from datetime import datetime
from pathlib import Path
from typing import Callable, NamedTuple

from .errors import ConfigError, MissingInputError


def load_config(path) -> dict:
    """Parse a config file and check its seed and that its sections are
    objects; cli.main checks their names."""
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
            check_seed(section)
        elif not isinstance(section, dict):
            raise ConfigError(f"section {name!r} must be an object")
    return body


def check_seed(seed) -> int:
    """seed if it is an integer of at least 0, else ConfigError."""
    if not (_is_exactly(seed, int) and seed >= 0):
        raise ConfigError(f"seed must be an integer of at least 0, got {seed!r}")
    return seed


#: the default of a key the section must set
REQUIRED = object()
#: the default of a key whose absence leaves the library's default
OPTIONAL = object()


class Key(NamedTuple):
    """One key a config section may set.

    parse is a checking parser, or int, bool or str for a JSON value of
    exactly that type. default is the value of an absent key, REQUIRED
    or OPTIONAL. A key with a mode (mode key, value) is read only when
    the section's mode key holds that value. flag holds the
    argparse.add_argument keywords of the command-line flag that sets
    the key, if it has one."""

    name: str
    parse: Callable
    default: object = REQUIRED
    mode: tuple | None = None
    flag: dict | None = None


def _is_exactly(value, kind) -> bool:
    """Whether a JSON value is of kind exactly; true is not the int 1."""
    return isinstance(value, kind) and (kind is bool) == isinstance(value, bool)


def _parse(kind, raw, key: str, context: str):
    """raw converted by kind, or checked to be a JSON int, bool or string
    as is, so 2.7 is not truncated to 2, "false" not read as true, nor
    [1] as "[1]". A value kind rejects raises ConfigError naming the
    key."""
    if kind in (int, bool, str) and not _is_exactly(raw, kind):
        raise ConfigError(f"{context} config {key!r}: expected {kind.__name__}, got {raw!r}")
    try:
        return kind(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context} config {key!r}: {exc}") from exc


def number(value) -> float:
    """A JSON number, an int or a float but not a bool or a string, as a
    float."""
    if type(value) not in (int, float):
        raise ValueError(f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"must be finite, got {value!r}") from None


def finite(value) -> float:
    """A finite number."""
    x = number(value)
    if not math.isfinite(x):
        raise ValueError(f"must be finite, got {value!r}")
    return x


def positive(value) -> float:
    """A finite number greater than 0."""
    x = finite(value)
    if not x > 0:
        raise ValueError(f"must be greater than 0, got {value!r}")
    return x


def fraction(value) -> float:
    """A level or fraction in (0, 1]."""
    x = number(value)
    if not 0 < x <= 1:
        raise ValueError(f"must be in (0, 1], got {value!r}")
    return x


def timestamp(value):
    """An ISO 8601 timestamp, passed on as written."""
    datetime.fromisoformat(value)
    return value


def file_path(value):
    """A file path, written as a string."""
    if not isinstance(value, str):
        raise ValueError(f"expected a file path, got {value!r}")
    return value


def json_object(value):
    """A JSON object."""
    if not isinstance(value, dict):
        raise ValueError(f"expected an object, got {value!r}")
    return value


def one_of(*choices):
    """A parser accepting exactly one of choices."""

    def parse(value):
        if value not in choices:
            expected = ", ".join(repr(c) for c in choices)
            raise ValueError(f"expected one of {expected}, got {value!r}")
        return value

    return parse


def count(minimum):
    """A parser for a count: a JSON integer (not a bool) of at least
    minimum."""

    def parse(value):
        if type(value) is not int or value < minimum:
            raise ValueError(f"expected an integer of at least {minimum}, got {value!r}")
        return value

    return parse


def parse_section(section: dict, keys, context: str) -> dict:
    """The section's values parsed by keys, in their order, with the
    defaults of the keys it leaves out; an OPTIONAL key left out, or a
    key its mode does not read, is absent from the result. A key keys
    do not name, a missing REQUIRED key, a value its parser rejects or a
    key set where its mode does not read it raises ConfigError."""
    names = [key.name for key in keys]
    for name in section:
        if name not in names:
            raise ConfigError(
                f"{context} config: unknown key {name!r}; expected one of {', '.join(names)}"
            )
    values = {}
    for key in keys:
        if key.mode is not None:
            mode_key, reader = key.mode
            if values[mode_key] != reader:
                if key.name in section:
                    raise ConfigError(
                        f"{context} config {key.name!r}: read only when {mode_key!r} is "
                        f"{reader!r}, not {values[mode_key]!r}"
                    )
                continue
        if key.name in section:
            values[key.name] = _parse(key.parse, section[key.name], key.name, context)
        elif key.default is REQUIRED:
            raise ConfigError(f"{context} config needs {key.name!r}")
        elif key.default is not OPTIONAL:
            values[key.name] = key.default
    return values


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


def read_csv(path, what: str, parsers: dict, rest=None):
    """Yield each row of a UTF-8 CSV input file past its header as a
    list: the cells of the columns of parsers, each run through its
    column's parser, then, given rest, every other header column's, in
    header order, run through rest. Blank lines are passed over.

    A column of parsers the header lacks or repeats, a row whose field
    count differs from the header's, or a cell its parser rejects raises
    MissingInputError naming the file, and the line and column of a bad
    row or cell; a row's cells are parsed, and the first bad one named,
    in the order above. A file that is not UTF-8 text raises
    MissingInputError naming the file.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None) or []
            for column in parsers:
                if column not in header:
                    raise MissingInputError(f"{what} file {path} has no {column!r} column")
                if header.count(column) > 1:
                    raise MissingInputError(f"{what} file {path} repeats the {column!r} column")
            columns = [(header.index(column), parse) for column, parse in parsers.items()]
            if rest is not None:
                columns += [(i, rest) for i, column in enumerate(header) if column not in parsers]
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise MissingInputError(
                        f"{what} file {path} line {reader.line_num} has {len(row)} fields, "
                        f"its header {len(header)}"
                    )
                cells = []
                for i, parse in columns:
                    try:
                        cells.append(parse(row[i]))
                    except (TypeError, ValueError) as exc:
                        raise MissingInputError(
                            f"{what} file {path} line {reader.line_num}, "
                            f"column {header[i]!r}: {exc}"
                        ) from exc
                yield cells
    except UnicodeDecodeError:
        raise MissingInputError(f"{what} file {path} is not UTF-8 text") from None


def write_json(path, body) -> None:
    """Write body as JSON, one-space indented with a final newline."""
    Path(path).write_text(json.dumps(body, indent=1) + "\n")


def write_csv(path, header, rows) -> None:
    """Write the header, then each of rows, as CSV lines."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_outputs(outputs) -> None:
    """Call each (path, writer, *args) entry whose path is set on a temp
    file beside path, which the writer's open() makes with the umask's
    mode, and move them all into place once every one is written. Two
    entries on one file raise ConfigError before any is written; a
    writer's OSError, such as one for a missing directory, is raised
    again as an OSError naming path."""
    outputs = [(Path(path), *rest) for path, *rest in outputs if path is not None]
    files = [path.resolve() for path, *_ in outputs]
    for i, file in enumerate(files):
        if file in files[:i]:
            raise ConfigError(f"two outputs go to one file, {outputs[i][0]}")
    temps = []
    try:
        for path, write, *args in outputs:
            temps.append(path.with_name(f".{path.name}.{os.getpid()}.{len(temps)}"))
            try:
                write(temps[-1], *args)
            except OSError as exc:
                raise OSError(f"cannot write {path}: {exc.strerror}") from exc
        for temp, (path, *_) in zip(temps, outputs):
            os.replace(temp, path)
    finally:
        for temp in temps:
            # a temp under a missing directory or a file was never made
            with contextlib.suppress(FileNotFoundError, NotADirectoryError):
                temp.unlink()
