import ast
import json
import math
import re
import tempfile
from functools import partial
from itertools import islice
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import currikit
from currikit import artifacts
from currikit.artifacts import (
    atomic_open,
    check,
    read_columns,
    read_json,
    read_jsonl,
    write_columns,
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


# --- columns, against the per-record forms they replace -----------------------
#
# The slower forms are kept here: one json.dumps per record on the way out,
# json.loads and check per line on the way in. The column writer must give
# their bytes and the column reader their columns or their error text.


def reference_write(path, records, header=None):
    """One ``json.dumps`` line per record, after the header when given."""
    lines = [] if header is None else [json.dumps(header) + "\n"]
    lines += [json.dumps(rec) + "\n" for rec in records]
    Path(path).write_text("".join(lines), encoding="utf-8")


def reference_read_columns(path, schema, ids=None, skip=0, bounds=None):
    """``read_columns`` one line at a time."""
    fields = [name for name in schema if name != "example_id"]
    row, values = {}, [[] for _ in fields]
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(islice(fh, skip, None), start=skip + 1):
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON ({exc})") from None
            check(rec, schema, path, lineno)
            eid = rec["example_id"]
            if eid in row:
                raise ValueError(f"{path}:{lineno}: duplicate example id {eid!r}")
            row[eid] = len(row)
            for name, column in zip(fields, values):
                value = rec[name]
                if type(value) is float and not math.isfinite(value):
                    raise ValueError(f"{path}:{lineno}: non-finite {name} {value} "
                                     f"for example {eid!r}")
                lo, hi = (bounds or {}).get(name, (-math.inf, math.inf))
                if not lo <= value <= hi:
                    raise ValueError(f"{path}:{lineno}: {name} {value} for example "
                                     f"{eid!r} is outside [{lo}, {hi}]")
                column.append(value)
    if ids is None:
        ids, take = list(row), slice(None)
    else:
        missing = next((eid for eid in ids if eid not in row), None)
        if missing is not None:
            raise ValueError(f"{path}: no record for example {missing!r}")
        take = [row[eid] for eid in ids]
    dtypes = {float: np.float64, int: np.int64, bool: np.bool_}
    return ids, {name: np.array(column, dtype=dtypes[schema[name]])[take]
                 for name, column in zip(fields, values)}


COLUMNS = settings(derandomize=True, deadline=None, max_examples=200)
CHUNKS = st.sampled_from([1, 2, 3, 512])  # lines a reader or writer holds at once

# Characters JSON escapes or that a careless encoder gets wrong: quote,
# backslash, controls, DEL, the JS line separators, non-ASCII and astral.
ODD_CHARS = '"\\\x00\x01\x1f\x7f\n\r\t\u2028\u2029\xe9\u20ac\U0001f600%{}:,'
TEXT = st.text(alphabet=st.one_of(st.sampled_from(ODD_CHARS), st.characters()),
               max_size=8)
EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.5e-310, 1e16, 1e-7,
               1e22, 0.1, 1 / 3, -1.5e300]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
KINDS = {
    "str": (TEXT, None),
    "float": (FLOATS, np.float64),
    "int": (st.integers(-2 ** 63, 2 ** 63 - 1), np.int64),
    "uint": (st.integers(2 ** 63, 2 ** 64 - 1), np.uint64),
    "bool": (st.booleans(), np.bool_),
}


@st.composite
def tables(draw):
    """Equal-length columns of random kinds under random field names."""
    rows = draw(st.integers(0, 9))
    names = draw(st.lists(TEXT, min_size=1, max_size=4, unique=True))
    columns = {}
    for name in names:
        values, dtype = KINDS[draw(st.sampled_from(sorted(KINDS)))]
        drawn = draw(st.lists(values, min_size=rows, max_size=rows))
        columns[name] = drawn if dtype is None else np.array(drawn, dtype=dtype)
    return columns


def records_of(columns):
    lists = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns.values()]
    return [dict(zip(columns, row)) for row in zip(*lists)]


@COLUMNS
@given(columns=tables(), header=st.one_of(st.none(), st.fixed_dictionaries(
    {"metric_name": TEXT, "higher_is_easier": st.booleans(), "num_subsets": st.integers()})),
    chunk=CHUNKS)
def test_write_columns_bytes_are_json_dumps(columns, header, chunk):
    with tempfile.TemporaryDirectory() as tmp:
        path, expected = Path(tmp) / "columns.jsonl", Path(tmp) / "records.jsonl"
        with mock.patch.object(artifacts, "_CHUNK", chunk):
            write_columns(path, columns, header)
        reference_write(expected, records_of(columns), header)
        assert path.read_bytes() == expected.read_bytes()


def test_write_columns_edge_values(tmp_path):
    """Every edge value of each kind at least once, across chunks of 2."""
    columns = {
        "example_id": ['"', "\\", "\x00\x1f\x7f", "\u2028\u2029", "\xe9\u20ac\U0001f600",
                       "%s", "", "a\nb\r\t", "{\"k\": 1}", "plain", "x", "y", "z"],
        "f": np.array(EDGE_FLOATS),
        "i": np.array([0, -1, 2 ** 63 - 1, -2 ** 63, 7, 10 ** 15, 1, 2, 3, 4, 5, 6, 8]),
        "u": np.array([2 ** 64 - 1] * 13, dtype=np.uint64),
        "b": np.arange(13) % 3 == 0,
        "100%": np.arange(13, dtype=np.int8),
    }
    with mock.patch.object(artifacts, "_CHUNK", 2):
        write_columns(tmp_path / "columns.jsonl", columns, {"metric_name": "\u2028"})
    reference_write(tmp_path / "records.jsonl", records_of(columns), {"metric_name": "\u2028"})
    assert ((tmp_path / "columns.jsonl").read_bytes()
            == (tmp_path / "records.jsonl").read_bytes())


def test_write_columns_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError, match="columns differ in length"):
        write_columns(tmp_path / "a.jsonl", {"example_id": ["a", "b"],
                                             "correct": np.array([True])})
    assert not list(tmp_path.iterdir())


# Each per-example schema the column reader serves, with the header line
# its files start with, if any.
SCHEMAS = {
    "outcomes": ({"example_id": str, "correct": bool}, None),
    "td_stats": ({"example_id": str, "confidence": float, "correctness": int,
                  "variability": float}, None),
    "scores": ({"example_id": str, "score": float},
               {"metric_name": "length", "higher_is_easier": False}),
}


def base_records(schema, count=7):
    rng = np.random.default_rng(count)
    values = {str: lambda i: f"e{i}\u2028\"", bool: lambda i: bool(rng.integers(2)),
              int: lambda i: int(rng.integers(-5, 50)),
              float: lambda i: float(rng.normal())}
    return [{name: values[kind](i) for name, kind in schema.items()}
            for i in range(count)]


MISSING = object()


def _swap(rec, name, value):
    rec = dict(rec)
    if value is MISSING:
        del rec[name]
    else:
        rec[name] = value
    return rec


def _replace(lines, i, new):
    return "".join(lines[:i] + new + lines[i + 1:])


# Each mutation takes the file's lines (each ending in "\n") and the index
# of a body line, and returns the new text.
MUTATIONS = {
    "none": lambda lines, i: "".join(lines),
    "blank-line": lambda lines, i: _replace(lines, i, ["\n", lines[i]]),
    "leading-spaces": lambda lines, i: _replace(lines, i, ["  " + lines[i]]),
    "trailing-spaces": lambda lines, i: _replace(lines, i, [lines[i][:-1] + " \t\n"]),
    "crlf": lambda lines, i: _replace(lines, i, [lines[i][:-1] + "\r\n"]),
    "all-crlf": lambda lines, i: "".join(line[:-1] + "\r\n" for line in lines),
    "two-records-one-line": lambda lines, i: _replace(lines, i, [lines[i][:-1]]),
    "record-split-across-lines": lambda lines, i: _replace(
        lines, i, [lines[i].replace(", ", ",\n", 1)]),
    "truncated-last-line": lambda lines, i: "".join(lines)[:-(i + 2)],
    "no-final-newline": lambda lines, i: "".join(lines)[:-1],
    "space-for-final-newline": lambda lines, i: "".join(lines)[:-1] + " ",
    "garbage-for-final-newline": lambda lines, i: "".join(lines)[:-1] + "x",
    "not-an-object": lambda lines, i: _replace(lines, i, ["[1, 2]\n"]),
    "byte-order-mark": lambda lines, i: _replace(lines, i, ["\ufeff" + lines[i]]),
}


def outcome(reader, path, schema, ids, skip):
    """What ``reader`` gives: its columns as (dtype, bytes), or its error."""
    try:
        got_ids, columns = reader(path, schema, ids, skip)
    except (ValueError, OverflowError) as exc:
        return type(exc).__name__, str(exc)
    return got_ids, {name: (c.dtype.str, c.tobytes()) for name, c in columns.items()}


def record_edits(schema):
    """(field, value) edits of one record: none, a value of another JSON type,
    a missing or an extra field, NaN, the infinities, an int or a huge int
    for a number, a huge int for an integer, and the first record's id."""
    wrong = ["x", 7, 2.5, True, None, [1], {"k": 1}]
    edits = [None, ("extra", 1), ("example_id", "e0\u2028\"")]
    for name, kind in schema.items():
        edits += [(name, value) for value in [MISSING, *wrong]]
        if kind is float:
            edits += [(name, v) for v in (math.nan, math.inf, -math.inf, 3, 10 ** 400)]
        if kind is int:
            edits.append((name, 2 ** 64))
    return edits


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@pytest.mark.parametrize("kind", sorted(SCHEMAS))
def test_read_columns_matches_line_reader(tmp_path, kind, mutation):
    """Every record edit at two positions, read whole and for five ids in
    another order, in chunks of 1, 3 and 512 lines."""
    schema, header = SCHEMAS[kind]
    skip = 0 if header is None else 1
    path = tmp_path / f"{kind}.jsonl"
    for edit in record_edits(schema):
        for index in (0, 4):
            records = base_records(schema)
            if edit is not None:
                records[index] = _swap(records[index], *edit)
            lines = ([] if header is None else [json.dumps(header) + "\n"]) + [
                json.dumps(rec) + "\n" for rec in records]
            path.write_bytes(MUTATIONS[mutation](lines, skip + index).encode("utf-8"))
            for ids in (None, [f"e{i}\u2028\"" for i in (5, 0, 3, 6, 1)]):
                expected = outcome(reference_read_columns, path, schema, ids, skip)
                for chunk in (1, 3, 512):
                    with mock.patch.object(artifacts, "_CHUNK", chunk):
                        got = outcome(read_columns, path, schema, ids, skip)
                    assert got == expected, (edit, index, ids, chunk)


def test_read_columns_bounds_match_line_reader(tmp_path):
    """A dynamics-stats file with each field at, just inside and just past
    its bounds at two positions, read in chunks of 1, 3 and 512 lines."""
    schema, _ = SCHEMAS["td_stats"]
    bounds = {"confidence": (0.0, 1.0), "correctness": (0, math.inf),
              "variability": (0.0, 0.5)}
    edges = {"confidence": [0.0, -0.0, 1.0, -5e-324, 1.0000000000000002, 7.0],
             "correctness": [0, 10 ** 6, -1],
             "variability": [0.0, 0.5, 0.49999999999999994, 0.5000000000000001, -0.5]}
    path = tmp_path / "td_stats.jsonl"
    base = [{"example_id": f"e{i}", "confidence": 0.25, "correctness": 1,
             "variability": 0.125} for i in range(7)]
    for name, values in edges.items():
        for value in values:
            for index in (0, 4):
                records = [dict(rec) for rec in base]
                records[index][name] = value
                reference_write(path, records)
                expected = outcome(partial(reference_read_columns, bounds=bounds),
                                   path, schema, None, 0)
                assert (type(expected[1]) is dict) == (bounds[name][0] <= value
                                                      <= bounds[name][1])
                for chunk in (1, 3, 512):
                    with mock.patch.object(artifacts, "_CHUNK", chunk):
                        got = outcome(partial(read_columns, bounds=bounds),
                                      path, schema, None, 0)
                    assert got == expected, (name, value, index, chunk)


def test_read_columns_holds_one_chunk_of_lines(tmp_path, monkeypatch):
    """Lines are taken from the file a chunk at a time, never all at once."""
    path = tmp_path / "outcomes.jsonl"
    n = 10
    write_columns(path, {"example_id": [f"e{i}" for i in range(n)],
                         "correct": np.arange(n) % 2 == 0})
    monkeypatch.setattr(artifacts, "_CHUNK", 3)
    sizes = []
    real = artifacts._add_chunk

    def spy(lines, *args):
        sizes.append(len(lines))
        return real(lines, *args)

    monkeypatch.setattr(artifacts, "_add_chunk", spy)
    ids, columns = read_columns(path, {"example_id": str, "correct": bool})
    assert sizes == [3, 3, 3, 1]
    assert ids == [f"e{i}" for i in range(n)]
    assert columns["correct"].tolist() == [i % 2 == 0 for i in range(n)]
