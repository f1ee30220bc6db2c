"""How spdpc reads and writes its files: the config, a model fixture and a
checkpoint through ``read_json`` and ``read_table``, every JSON artifact
through ``write_json`` and every CSV artifact through ``write_csv``."""

from __future__ import annotations

import csv
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import MISSING, fields
from pathlib import Path


class ReadError(ValueError):
    """Raised with the JSON path of the offending value."""


@contextmanager
def at(where, what: str = "{}"):
    """Re-raise a ValueError as a ReadError ``<where>: <what>``, its message in
    the braces; ``where`` is a JSON path or, for a whole document, its file."""
    try:
        yield
    except ValueError as err:
        raise ReadError(f"{where}: {what.format(err)}") from err


_REPEATED = object()  # the value of a key that a JSON object holds more than once


def _mark_repeats(pairs) -> dict:
    keys = [key for key, _ in pairs]
    return {key: _REPEATED if keys.count(key) > 1 else value for key, value in pairs}


def read_json(path):
    """The JSON document in the file ``path``, or an error that names the file.
    ``read_table`` then rejects each repeated key and each number no float
    holds (``NaN``, ``Infinity``, ``1e999``, an integer literal of 400 digits)."""
    path = Path(path)
    try:
        return json.loads(path.read_text(), object_pairs_hook=_mark_repeats)
    except OSError as err:  # missing, a directory, or not readable
        raise ReadError(f"{path}: cannot read ({err.strerror})") from err
    except (ValueError, RecursionError) as err:  # bad JSON or bytes, too deep, too long an int
        raise ReadError(f"{path}: not valid JSON ({err})") from err


def _finite(numbers: list) -> bool:
    """True when every number is finite, in one C call."""
    try:
        return math.isfinite(math.fsum(numbers))
    except (ValueError, OverflowError):  # inf - inf, an int no float holds, or a large sum
        return False


_TYPES = {int: {int}, float: {int, float}, str: {str}, dict: {dict}, None: {type(None)}}
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string",
               dict: "a JSON object", None: "null"}


def typed(value, kind, where: str = ""):
    """``value`` if it has the JSON type ``kind``: int, float (any number, as
    a Python float), str, dict, None (null), ``[kind]`` (a list, checked per
    element) or a tuple of alternatives.  A bool is no number, 2.0 no int, and
    a number must be finite.  A path below ``where`` is formatted only to raise."""
    alternatives = kind if type(kind) is tuple else (kind,)
    for alt in alternatives:
        if type(alt) is not list:
            if type(value) in _TYPES[alt]:
                if alt in (int, float) and not abs(value) <= sys.float_info.max:
                    raise ReadError(f"{where}: must be finite, got {value}")
                return float(value) if alt is float else value
        elif type(value) is list:
            inner = alt[0]
            found = set(map(type, value)) if type(inner) is not list else ()
            if found and found <= _TYPES[inner] and (inner not in (int, float) or _finite(value)):
                return list(map(float, value)) if inner is float and int in found else value
            rows = []  # elements one by one, the first bad one raising at its position
            for pos, row in enumerate(value):
                try:
                    rows.append(typed(row, inner))
                except ReadError as err:
                    raise ReadError(f"{where}[{pos}]{err}") from None
            return rows
    names = " or ".join("a list" if type(alt) is list else _TYPE_NAMES[alt]
                        for alt in alternatives)
    raise ReadError(f"{where}: expected {names}, got {json.dumps(value)}")


def read_table(entry, where: str, spec: dict) -> dict:
    """Every key of ``spec`` read from the JSON object ``entry`` at ``where``
    (``""`` for a document's root).  ``spec`` maps a key to (JSON type, default)
    or (JSON type, default, lower bound); a ``MISSING`` default makes it required."""
    entry, prefix = typed(entry, dict, where or "document"), f"{where}." if where else ""
    unknown = sorted(set(entry) - set(spec))
    if unknown:
        raise ReadError(f"{', '.join(prefix + k for k in unknown)}: unknown "
                        f"field{'s' if len(unknown) > 1 else ''}, expected one of "
                        f"{sorted(spec)}")
    table = {}
    for key, (kind, default, *lower) in spec.items():
        if key not in entry:
            if default is MISSING:
                raise ReadError(f"{prefix}{key}: missing")
            table[key] = default
            continue
        if entry[key] is _REPEATED:
            raise ReadError(f"{prefix}{key}: duplicate key")
        table[key] = value = typed(entry[key], kind, prefix + key)
        if lower and value < lower[0]:
            raise ReadError(f"{prefix}{key}: must be >= {lower[0]}, got {value}")
    return table


def read_by_kind(entry, where: str, kinds: dict, extra: dict) -> dict:
    """A table whose keys depend on its ``kind``: ``kinds`` maps each kind to
    the spec of its own keys, and every kind also takes ``extra``."""
    kind = typed(entry, dict, where).get("kind", MISSING)
    if kind not in tuple(kinds):  # a tuple compares an unhashable kind, a dict would hash it
        raise ReadError(f"{where}.kind: " + (
            "missing" if kind is MISSING else "duplicate key" if kind is _REPEATED else
            f"unknown kind {kind!r}, expected one of {sorted(kinds)}"))
    return read_table(entry, where, {"kind": (str, MISSING), **extra, **kinds[kind]})


def dataclass_spec(cls) -> dict:
    """The spec of a dataclass: its fields' types and defaults, declared there alone."""
    return {f.name: ({"int": int, "float": float}[f.type], f.default) for f in fields(cls)}


def write_json(path, doc, indent: int | None = 1) -> None:
    """``doc`` as JSON, ending in a newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=indent)
        fh.write("\n")


def write_csv(path, header, rows) -> None:
    """CSV with a header row; floats go through repr so a reread is exact."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
