"""One writer and one reader for every run artifact.

Files are UTF-8, in parent directories created as needed: JSONL holds one
``json.dumps`` record per line, JSON is indented by 2 with a trailing
newline. A write goes to a hidden temp file that replaces the target only
once complete, so a killed or failing process never leaves a half-written
artifact for a resumed run to trust (no fsync: a power cut is not covered).
"""

from __future__ import annotations

import contextlib
import json
import os
from collections.abc import Iterable, Iterator
from pathlib import Path


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


def read_json(path: str | Path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not JSON ({exc})") from None


def read_jsonl(path: str | Path) -> Iterator:
    """The record on each line; a line that is not JSON (a truncated file,
    say) raises ValueError naming ``path:line``."""
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON ({exc})") from None
            yield rec
