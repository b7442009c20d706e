import json
import re
from pathlib import Path

import pytest

import currikit
from currikit.artifacts import atomic_open, read_jsonl, write_json, write_jsonl

# A file write made around currikit.artifacts: Path.open or the builtin open
# in a write mode, Path.write_text/write_bytes, or json.dump to a handle.
UNSAFE_WRITE = re.compile(
    r"""\.open\(\s*["'][wax]"""
    r"""|\bopen\([^,()]+,\s*["'][wax]"""
    r"""|(?<!artifacts)\.write_(?:text|bytes)\("""
    r"""|\bjson\.dump\("""
)


def test_layout(tmp_path):
    write_jsonl(tmp_path / "sub" / "a.jsonl", ({"k": i} for i in range(2)))
    write_json(tmp_path / "b.json", {"k": [1]})
    assert (tmp_path / "sub" / "a.jsonl").read_bytes() == b'{"k": 0}\n{"k": 1}\n'
    assert (tmp_path / "b.json").read_text() == json.dumps({"k": [1]}, indent=2) + "\n"
    assert list(read_jsonl(tmp_path / "sub" / "a.jsonl")) == [{"k": 0}, {"k": 1}]


def test_failed_write_keeps_previous_file(tmp_path):
    path = tmp_path / "a.jsonl"
    write_jsonl(path, [{"k": 1}])
    before = path.read_bytes()
    with pytest.raises(RuntimeError):
        with atomic_open(path) as fh:
            fh.write('{"k": 2}\n')
            raise RuntimeError("killed mid-write")
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["a.jsonl"]


def test_truncated_jsonl_names_path_and_line(tmp_path):
    path = tmp_path / "a.jsonl"
    path.write_text('{"k": 1}\n{"k": 2}\n{"k"')
    with pytest.raises(ValueError, match=re.escape(f"{path}:3:")):
        list(read_jsonl(path))


def test_only_artifacts_writes_files():
    for write in ('path.open("w", encoding="utf-8")', "open(path, 'a')",
                  'out.write_text(text, encoding="utf-8")', "json.dump(obj, fh)"):
        assert UNSAFE_WRITE.search(write), write
    for read in ('path.open("r", encoding="utf-8")', "artifacts.write_text(p, t)",
                 "write_text(p, t)", "json.dumps(obj)"):
        assert not UNSAFE_WRITE.search(read), read
    offenders = [
        f"{py.name}:{lineno}: {line.strip()}"
        for py in sorted(Path(currikit.__file__).parent.glob("*.py"))
        if py.name != "artifacts.py"
        for lineno, line in enumerate(py.read_text().splitlines(), start=1)
        if UNSAFE_WRITE.search(line)
    ]
    assert offenders == []
