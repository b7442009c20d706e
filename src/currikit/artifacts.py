"""One writer and one reader for every run artifact.

Files are UTF-8, in parent directories created as needed: JSONL holds one
``json.dumps`` record per line, JSON is indented by 2 with a trailing
newline. A write goes to a hidden temp file that replaces the target only
once complete, so a killed or failing process never leaves a half-written
artifact for a resumed run to trust (no fsync: a power cut is not covered).
A reader checks each record against its kind's schema (field -> JSON type),
kept beside that kind's writer, and raises ValueError naming ``path[:line]``.
Per-example files are written from columns and read into columns, a bounded
chunk of lines at a time, with example ids only at this edge.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from collections.abc import Iterable, Iterator
from itertools import islice
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path

import numpy as np


@contextlib.contextmanager
def atomic_open(path: str | Path, newline: str | None = None):
    """Text handle on ``.<name>.tmp`` beside ``path``; the temp file replaces
    ``path`` when the block exits normally and is removed otherwise."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with tmp.open("w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_jsonl(path: str | Path, records: Iterable) -> None:
    """One record per line, streamed: ``records`` may be a generator."""
    with atomic_open(path) as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


_CHUNK = 512  # lines a column reader or writer holds at a time
_BOOLS = ("false", "true")
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _encoded(column) -> list[str]:
    """Each entry as ``json.dumps`` writes it: a list holds strings, and an
    array's dtype says booleans, integers or numbers (any other dtype goes
    through ``json.dumps``)."""
    if not isinstance(column, np.ndarray):
        return list(map(encode_basestring_ascii, column))
    values = column.tolist()
    kind = column.dtype.kind
    if kind == "b":
        return list(map(_BOOLS.__getitem__, values))
    if kind in "iu":
        return list(map(int.__repr__, values))
    if kind == "f":
        reprs = list(map(float.__repr__, values))
        return list(map(_NON_FINITE.get, reprs, reprs))
    return list(map(json.dumps, values))


def write_columns(path: str | Path, columns: dict, header: dict | None = None) -> None:
    """One record per row of equal-length ``columns`` (field -> list of
    strings or array), fields in that order, after ``header`` as the first
    line when given: the bytes ``write_jsonl`` writes for the same records."""
    lengths = {len(column) for column in columns.values()}
    if len(lengths) != 1:
        raise ValueError(f"columns differ in length: {sorted(lengths)}")
    rows = lengths.pop()
    line = "{%s}\n" % ", ".join(encode_basestring_ascii(name).replace("%", "%%") + ": %s"
                                for name in columns)
    with atomic_open(path) as fh:
        if header is not None:
            fh.write(json.dumps(header) + "\n")
        for start in range(0, rows, _CHUNK):
            encoded = [_encoded(column[start:start + _CHUNK]) for column in columns.values()]
            fh.write("".join(map(line.__mod__, zip(*encoded))))


def write_json(path: str | Path, payload) -> None:
    write_text(path, json.dumps(payload, indent=2) + "\n")


def write_text(path: str | Path, text: str) -> None:
    with atomic_open(path) as fh:
        fh.write(text)


_NOUNS = {str: "a string", int: "an integer", float: "a number", bool: "a boolean",
          list: "an array", dict: "an object"}


def check(record, schema: dict[str, type], source: str | Path,
          line: int | None = None):
    """``record`` if it is a JSON object holding each ``schema`` field with
    exactly that JSON type (an int field takes no bool or float; a float field
    takes an int, stored back as a float, but no bool); otherwise ValueError
    naming ``source[:line]`` and the field."""
    if type(record) is not dict:
        problem = "not a JSON object"
    else:
        for name, kind in schema.items():
            if name not in record:
                problem = f"missing field '{name}'"
                break
            value = record[name]
            if type(value) is not kind:
                if kind is not float or type(value) is not int:
                    problem = f"field '{name}' must be {_NOUNS[kind]}, got {value!r}"
                    break
                record[name] = float(value)
        else:
            return record
    raise ValueError(f"{source if line is None else f'{source}:{line}'}: {problem}")


def read_json(path: str | Path, schema: dict[str, type] | None = None):
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not JSON ({exc})") from None
    return doc if schema is None else check(doc, schema, path)


def read_jsonl(path: str | Path, schema: dict[str, type] | None = None,
               skip: int = 0) -> Iterator:
    """The record on each line after the first ``skip``, checked against
    ``schema`` if given; a line that is not JSON (a truncated file, say)
    raises ValueError naming ``path:line``."""
    with Path(path).open("r", encoding="utf-8") as fh:
        yield from _records(path, islice(fh, skip, None), skip + 1, schema)


def _records(path, lines: Iterable[str], start: int, schema: dict[str, type] | None):
    for lineno, line in enumerate(lines, start=start):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: not JSON ({exc})") from None
        yield rec if schema is None else check(rec, schema, path, lineno)


_DTYPES = {float: np.float64, int: np.int64, bool: np.bool_}
_raw_decode = json.JSONDecoder().raw_decode


def read_columns(path: str | Path, schema: dict[str, type], ids: list[str] | None = None,
                 skip: int = 0, bounds: dict[str, tuple] | None = None
                 ) -> tuple[list[str], dict[str, np.ndarray]]:
    """The ``example_id`` of each record after the first ``skip`` lines and
    one array per other ``schema`` field (float64, int64 or bool), entry i
    belonging to id i; exactly ``ids`` in that order when given, ignoring
    other records. A repeated id, a non-finite number, a number outside its
    field's closed ``bounds`` (lo, hi) or a missing id raises ValueError
    naming the file.

    Lines are decoded a chunk at a time and each field is checked as a whole
    column. A chunk with any other line (not one JSON object directly
    followed by its newline, a field of another type or an integer for a
    number, a repeated id, a non-finite or out-of-bounds number) is read
    again line by line, which raises the error of its first bad line,
    ``path:line`` named."""
    fields = [name for name in schema if name != "example_id"]
    bounds = bounds or {}
    row: dict[str, int] = {}
    values: list[list] = [[] for _ in fields]
    with Path(path).open("r", encoding="utf-8") as fh:
        lines, start = islice(fh, skip, None), skip + 1
        while chunk := list(islice(lines, _CHUNK)):
            if not _add_chunk(chunk, schema, bounds, fields, row, values):
                _add_lines(path, chunk, start, schema, bounds, fields, row, values)
            start += len(chunk)
    if ids is None:
        ids, take = list(row), slice(None)
    else:
        missing = next((eid for eid in ids if eid not in row), None)
        if missing is not None:
            raise ValueError(f"{path}: no record for example {missing!r}")
        take = [row[eid] for eid in ids]
    return ids, {name: np.array(column, dtype=_DTYPES[schema[name]])[take]
                 for name, column in zip(fields, values)}


def _add_chunk(lines: list[str], schema: dict[str, type], bounds: dict[str, tuple],
               fields: list[str], row: dict[str, int], values: list[list]) -> bool:
    """Append the records of ``lines`` to ``row`` and ``values`` and return
    True if every line is regular; otherwise change nothing, return False."""
    try:
        records, ends = zip(*map(_raw_decode, lines))
    except json.JSONDecodeError:
        return False
    # Each line ends in its newline, which no document takes, so the
    # lengths exceed the ends by exactly len(lines) only if nothing else
    # follows any document.
    if (not lines[-1].endswith("\n") or sum(map(len, lines)) - sum(ends) != len(lines)
            or {*map(type, records)} != {dict}):
        return False
    columns = {}
    for name, kind in schema.items():
        try:
            column = list(map(itemgetter(name), records))
        except KeyError:
            return False
        if {*map(type, column)} - {kind}:
            return False
        if kind is float and not all(map(math.isfinite, column)):
            return False
        if name in bounds and not (bounds[name][0] <= min(column)
                                   and max(column) <= bounds[name][1]):
            return False
        columns[name] = column
    eids = columns["example_id"]
    new = dict(zip(eids, range(len(row), len(row) + len(eids))))
    if len(new) != len(eids) or not row.keys().isdisjoint(new):
        return False
    row.update(new)
    for name, column in zip(fields, values):
        column.extend(columns[name])
    return True


def _add_lines(path, lines: list[str], start: int, schema: dict[str, type],
               bounds: dict[str, tuple], fields: list[str], row: dict[str, int],
               values: list[list]) -> None:
    """``_add_chunk`` one line at a time, raising at the first bad line."""
    for lineno, rec in enumerate(_records(path, lines, start, schema), start=start):
        eid = rec["example_id"]
        if eid in row:
            raise ValueError(f"{path}:{lineno}: duplicate example id {eid!r}")
        row[eid] = len(row)
        for name, column in zip(fields, values):
            value = rec[name]
            if type(value) is float and not math.isfinite(value):
                raise ValueError(f"{path}:{lineno}: non-finite {name} {value} "
                                 f"for example {eid!r}")
            lo, hi = bounds.get(name, (-math.inf, math.inf))
            if not lo <= value <= hi:
                raise ValueError(f"{path}:{lineno}: {name} {value} for example "
                                 f"{eid!r} is outside [{lo}, {hi}]")
            column.append(value)
