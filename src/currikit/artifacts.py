"""One writer and one reader for every run artifact.

Files are UTF-8, in parent directories created as needed: JSONL holds one
``json.dumps`` record per line, JSON is indented by 2 with a trailing
newline. A write goes to a hidden temp file that replaces the target only
once complete, so a killed or failing process never leaves a half-written
artifact for a resumed run to trust (no fsync: a power cut is not covered).
A reader checks each record against its kind's schema (field -> JSON type),
kept beside that kind's writer, and raises ValueError naming ``path[:line]``.
Per-example files are read into columns, with example ids only at this edge.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from collections.abc import Iterable, Iterator
from itertools import islice
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
        for lineno, line in enumerate(islice(fh, skip, None), start=skip + 1):
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON ({exc})") from None
            yield rec if schema is None else check(rec, schema, path, lineno)


_DTYPES = {float: np.float64, int: np.int64}


def read_columns(path: str | Path, schema: dict[str, type], ids: list[str] | None = None,
                 skip: int = 0) -> tuple[list[str], dict[str, np.ndarray]]:
    """The ``example_id`` of each record after the first ``skip`` lines and
    one array per other ``schema`` field (float64 or int64), entry i
    belonging to id i; exactly ``ids`` in that order when given, ignoring
    other records. A repeated id, a non-finite number or a missing id raises
    ValueError naming the file."""
    fields = [name for name in schema if name != "example_id"]
    row: dict[str, int] = {}
    values: list[list] = [[] for _ in fields]
    for lineno, rec in enumerate(read_jsonl(path, schema, skip), start=skip + 1):
        eid = rec["example_id"]
        if eid in row:
            raise ValueError(f"{path}:{lineno}: duplicate example id {eid!r}")
        row[eid] = len(row)
        for name, column in zip(fields, values):
            value = rec[name]
            if type(value) is float and not math.isfinite(value):
                raise ValueError(f"{path}:{lineno}: non-finite {name} {value} "
                                 f"for example {eid!r}")
            column.append(value)
    if ids is None:
        ids, take = list(row), slice(None)
    else:
        missing = next((eid for eid in ids if eid not in row), None)
        if missing is not None:
            raise ValueError(f"{path}: no record for example {missing!r}")
        take = [row[eid] for eid in ids]
    return ids, {name: np.array(column, dtype=_DTYPES[schema[name]])[take]
                 for name, column in zip(fields, values)}
