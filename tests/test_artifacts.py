import ast
import json
import re
from pathlib import Path

import pytest

import currikit
from currikit.artifacts import (
    atomic_open,
    check,
    read_json,
    read_jsonl,
    write_json,
    write_jsonl,
)

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


def test_missing_field_names_path_and_line(tmp_path):
    path = tmp_path / "a.jsonl"
    path.write_text('{"h": 0}\n{"k": 1}\n{"v": 2}\n')
    records = read_jsonl(path, {"k": int}, skip=1)  # the header lacks "k"
    assert next(records) == {"k": 1}
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: missing field 'k'")):
        next(records)
    path.write_text('{"h": 0}\n3\n')
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: not a JSON object")):
        list(read_jsonl(path, {"k": int}, skip=1))


@pytest.mark.parametrize("kind, value", [
    (str, "x"), (int, 3), (int, -2), (float, 0.5), (float, 3), (bool, True), (bool, False),
    (list, []), (dict, {"a": 1}),
])
def test_field_of_its_json_type_passes(kind, value):
    rec = check({"f": value}, {"f": kind}, "a.jsonl", 4)
    assert rec == {"f": value} and type(rec["f"]) is kind


@pytest.mark.parametrize("kind, value, noun", [
    (int, True, "an integer"), (int, 1.0, "an integer"), (int, "1", "an integer"),
    (float, False, "a number"), (float, "0.5", "a number"), (float, None, "a number"),
    (bool, 1, "a boolean"), (bool, "false", "a boolean"), (str, 5, "a string"),
    (list, {}, "an array"), (dict, [], "an object"),
])
def test_field_of_another_json_type_named(tmp_path, kind, value, noun):
    message = f"field 'f' must be {noun}, got {value!r}"
    with pytest.raises(ValueError, match=re.escape(f"a.jsonl:4: {message}")):
        check({"f": value}, {"f": kind}, "a.jsonl", 4)
    path = tmp_path / "a.json"
    write_json(path, {"f": value})
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        read_json(path, {"f": kind})
    path = tmp_path / "a.jsonl"
    write_jsonl(path, [{"f": kind()}, {"f": value}])
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: {message}")):
        list(read_jsonl(path, {"f": kind}))


# Calls that parse JSON or read an artifact without a schema, and the only
# functions allowed to make them: the corpus-record loop (user input with its
# own messages), the config loader, and the first-record sniff that tells a
# stats file from a scores file.
PARSE_ALLOWED = {("corpus.py", "load_jsonl"), ("cli.py", "load_config")}
UNCHECKED_READ_ALLOWED = {("cli.py", "_first_record")}


def unchecked_json_calls(source: str, module: str) -> list[str]:
    """'<module>:<line> <function>' for each json.load(s) call and each
    read_json/read_jsonl call with no schema argument, outside the allowed
    functions."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(func):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "attr", getattr(call.func, "id", None))
            parses = (name in ("load", "loads")
                      and getattr(call.func, "value", None) is not None
                      and getattr(call.func.value, "id", None) == "json")
            unchecked = (name in ("read_json", "read_jsonl") and len(call.args) < 2
                         and not any(k.arg == "schema" for k in call.keywords))
            if ((parses and (module, func.name) not in PARSE_ALLOWED)
                    or (unchecked and (module, func.name) not in UNCHECKED_READ_ALLOWED)):
                found.append(f"{module}:{call.lineno} {func.name}")
    return found


def test_only_artifacts_parses_json():
    sample = ("def f(p):\n    json.loads(s)\n    read_jsonl(p)\n"
              "    artifacts.read_json(p)\n    json.load(fh)\n"
              "def g(p):\n    read_jsonl(p, S, skip=1)\n    read_json(p, schema=S)\n"
              "    json.dumps(x)\n    artifacts.check(r, S, p)\n")
    assert unchecked_json_calls(sample, "m.py") == [
        "m.py:2 f", "m.py:3 f", "m.py:4 f", "m.py:5 f"]
    offenders = [
        hit
        for py in sorted(Path(currikit.__file__).parent.glob("*.py"))
        if py.name != "artifacts.py"
        for hit in unchecked_json_calls(py.read_text(), py.name)
    ]
    assert offenders == []


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
