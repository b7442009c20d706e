"""Fuzzing of every file a command reads back, driven through ``main``.

Each example takes a good run's file, deletes one field of one record or
gives it a value of another JSON type, runs the command that reads the file
and expects exit 1 naming the file, no traceback, and no artifact beyond
``config.json``. A config example gives one field a value of another JSON
type, NaN or an infinity and expects the field named instead; a config with
an unknown field, top level or in a section, an empty path field or a
negative seed, must exit 1 naming it. The
examples are drawn deterministically, so every run of the suite tries the
same ones.
"""

import contextlib
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from currikit import cli, difficulty, dynamics
from currikit.cli import main

MISSING = object()  # the field is deleted

# One value of each JSON type.
VALUES = ("x", 7, 2.5, True, None, [1], {"k": 1})

CONFIG = {
    "synth": {"num_classes": 2, "train_size": 40, "val_size": 20, "test_size": 20,
              "feature_dim": 8, "seed": 3},
    "train": {"epochs": 2, "batch_size": 8, "eval_per_epoch": 2},
    "seeds": [1, 2],
}

FUZZ = settings(derandomize=True, deadline=None, max_examples=20)


def takes(kind: type, value) -> bool:
    return type(value) is kind or (kind is float and type(value) is int)


def edits(schema: dict) -> st.SearchStrategy:
    """(field, value): a schema field deleted or given a value of another type."""
    return st.sampled_from(sorted(schema)).flatmap(lambda name: st.tuples(
        st.just(name),
        st.sampled_from([MISSING, *(v for v in VALUES if not takes(schema[name], v))]),
    ))


# Corpus records are user input: id, text_a and label take any non-null value
# (it is stringified); features must be an object in every record or none.
CORPUS_EDITS = st.sampled_from(
    [(name, MISSING) for name in ("id", "text_a", "label", "features")]
    + [(name, None) for name in ("id", "text_a", "label")]
    + [("features", v) for v in VALUES if not isinstance(v, dict)]
)


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A config, a swept run (dynamics teacher, random and corr_anneal
    students), a length scores file and a synthetic corpus on disk."""
    root = tmp_path_factory.mktemp("fuzz")
    cfg = root / "config.json"
    cfg.write_text(json.dumps(CONFIG))
    run = root / "run"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["sweep", "--config", str(cfg), "--out", str(run),
                     "--schedulers", "random,corr_anneal"]) == 0
        assert main(["teacher", "--config", str(cfg), "--out", str(run),
                     "--metric", "length"]) == 0
        assert main(["synth", "--config", str(cfg), "--out", str(root / "synth")]) == 0
    return root


def rewrite(path: Path, index: int, edit) -> None:
    """Apply ``edit`` to record ``index`` of a JSONL file, or to a JSON file."""
    name, value = edit
    jsonl = path.suffix == ".jsonl"
    records = ([json.loads(line) for line in path.read_text().splitlines()]
               if jsonl else [json.loads(path.read_text())])
    if value is MISSING:
        del records[index][name]
    else:
        records[index][name] = value
    path.write_text("".join(json.dumps(r) + "\n" for r in records) if jsonl
                    else json.dumps(records[0]))


def expect_named_failure(work: Path, name: Path | str, argv: list[str]) -> None:
    """Exit 1 naming ``name`` (a path, or a config field); no traceback and
    no new file but the snapshot, ``config.json`` and ``inputs.json``."""
    before = {p for p in work.rglob("*") if p.is_file()}
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 1, err.getvalue()
    assert str(name) in err.getvalue(), err.getvalue()
    assert "Traceback" not in err.getvalue()
    after = {p for p in work.rglob("*") if p.is_file()}
    assert {p.name for p in after - before} <= {"config.json", "inputs.json"}


def copy(src: Path, dst: Path) -> Path:
    dst.parent.mkdir(parents=True, exist_ok=True)
    (shutil.copytree if src.is_dir() else shutil.copyfile)(src, dst)
    return dst


@pytest.mark.parametrize("command", ["student", "datamap"])
@FUZZ
@given(index=st.integers(0, 39), edit=edits(dynamics._TD_SCHEMA))
def test_td_stats(base, command, index, edit):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        path = copy(base / "run" / "teacher" / "td_stats.jsonl", work / "td_stats.jsonl")
        rewrite(path, index, edit)
        out = str(work / "o")
        argv = (["student", "--config", str(base / "config.json"), "--out", out,
                 "--scheduler", "conf+var_comp", "--scores", str(path)]
                if command == "student" else
                ["datamap", "--out", out, "--stats", str(path)])
        expect_named_failure(work, path, argv)


@FUZZ
@given(index=st.integers(0, 40), data=st.data())
def test_scores(base, index, data):
    schema = difficulty._HEADER_SCHEMA if index == 0 else difficulty._SCORE_SCHEMA
    edit = data.draw(edits(schema))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        path = copy(base / "run" / "teacher" / "scores_length.jsonl", work / "s.jsonl")
        rewrite(path, index, edit)
        expect_named_failure(work, path, [
            "student", "--config", str(base / "config.json"), "--out", str(work / "o"),
            "--scheduler", "length", "--scores", str(path)])


@pytest.mark.parametrize("kind", ["outcomes", "summary"])
@FUZZ
@given(index=st.integers(0, 19), data=st.data())
def test_compare_inputs(base, kind, index, data):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        students = base / "run" / "students"
        a = copy(students / "random", work / "a")
        b = copy(students / "corr_anneal", work / "b")
        if kind == "outcomes":
            path, schema = b / "seed_2" / "outcomes_test_id.jsonl", cli._OUTCOME_SCHEMA
        else:
            path, schema, index = b / "summary.json", cli._SUMMARY_SCHEMA, 0
        rewrite(path, index, data.draw(edits(schema)))
        expect_named_failure(work, path, [
            "compare", "--a", str(a), "--b", str(b),
            "--out", str(work / "o" / "cmp")])


@FUZZ
@given(edit=edits(cli._META_SCHEMA))
def test_teacher_meta(base, edit):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        teacher = work / "o" / "teacher"
        copy(base / "run" / "teacher" / "td_stats.jsonl", teacher / "td_stats.jsonl")
        path = copy(base / "run" / "teacher" / "meta.json", teacher / "meta.json")
        rewrite(path, 0, edit)
        expect_named_failure(work, path, [
            "student", "--config", str(base / "config.json"), "--out", str(work / "o"),
            "--scheduler", "corr_anneal"])


@FUZZ
@given(index=st.integers(0, 39), edit=CORPUS_EDITS)
def test_corpus_record(base, index, edit):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        path = copy(base / "synth" / "data" / "train.jsonl", work / "train.jsonl")
        validation = copy(base / "synth" / "data" / "validation.jsonl",
                          work / "validation.jsonl")
        rewrite(path, index, edit)
        cfg = work / "config.json"
        cfg.write_text(json.dumps({
            "data": {"train": str(path), "validation": str(validation)},
            "train": CONFIG["train"], "seeds": [1]}))
        expect_named_failure(work, path, [
            "teacher", "--config", str(cfg), "--out", str(work / "o")])


# Every config field, top level and per section, with the config it is set in
# (the data section needs a data config) and its JSON type.
CONFIG_FIELDS = sorted((section, name, kind)
                       for section, fields in cli._FIELDS.items()
                       for name, (kind, _) in fields.items())
DATA_CONFIG = {"data": {"train": "train.jsonl", "validation": "validation.jsonl"},
               "train": CONFIG["train"], "seeds": [1]}


def write_config(work: Path, section: str, name: str, value) -> Path:
    """The base config of ``section`` with field ``section.name`` set."""
    config = json.loads(json.dumps(DATA_CONFIG if section == "data" else CONFIG))
    (config if section == "config" else config.setdefault(section, {}))[name] = value
    path = work / "bad.json"
    path.write_text(json.dumps(config))
    return path


@pytest.mark.parametrize("section, name, kind", CONFIG_FIELDS,
                         ids=[f"{section}.{name}" for section, name, _ in CONFIG_FIELDS])
@FUZZ
@given(data=st.data())
def test_config_field(section, name, kind, data):
    value = data.draw(st.sampled_from([*(v for v in VALUES if not takes(kind, v)),
                                       math.nan, math.inf, -math.inf]))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        path = write_config(work, section, name, value)
        expect_named_failure(work, f"{section}: field '{name}'", [
            "teacher", "--config", str(path), "--out", str(work / "o")])


# A misspelt field, top level and per section; "seed" is no train field (run
# seeds come from seeds and teacher_seed).
UNKNOWN_FIELDS = [("config", "sede"), ("data", "hash_dims"), ("synth", "num_class"),
                  ("train", "seed"), ("model", "hidden"), ("curriculum", "c_0"),
                  ("cross_review", "num_subset")]


# Every path field: "" must not read as "not given".
PATH_FIELDS = [("data", name) for name in ("train", "validation", "test_id", "test_ood",
                                           "test_transfer", "label_map")] + [
    ("curriculum", "baseline_dir")]


@pytest.mark.parametrize("section, name", PATH_FIELDS,
                         ids=[f"{section}.{name}" for section, name in PATH_FIELDS])
def test_empty_path_field(section, name):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        path = write_config(work, section, name, "")
        out = work / "o"
        expect_named_failure(work, f"{section}: field '{name}' must be a nonempty path", [
            "student", "--config", str(path), "--out", str(out), "--scheduler", "random"])
        assert not out.exists()


@pytest.mark.parametrize("section, name", UNKNOWN_FIELDS,
                         ids=[f"{section}.{name}" for section, name in UNKNOWN_FIELDS])
def test_unknown_config_field(section, name):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        path = write_config(work, section, name, 5)
        out = work / "o"
        expect_named_failure(work, f"{section}: unknown field '{name}'", [
            "teacher", "--config", str(path), "--out", str(out)])
        assert not out.exists()


# Every seed field; numpy takes no negative seed, so each must fail before
# any command starts.
SEED_FIELDS = [("config", "seeds"), ("config", "teacher_seed"), ("synth", "seed"),
               ("cross_review", "seed")]


@pytest.mark.parametrize("command", ["teacher", "student", "sweep", "synth"])
@pytest.mark.parametrize("section, name", SEED_FIELDS,
                         ids=[f"{section}.{name}" for section, name in SEED_FIELDS])
@FUZZ
@given(seed=st.integers(-2 ** 64, -1))
def test_negative_seed(command, section, name, seed):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        field = "seeds[1]" if name == "seeds" else name
        value = [1, seed] if name == "seeds" else seed
        path = write_config(work, section, name, value)
        out = work / "o"
        argv = {"teacher": ["teacher", "--metric", "cross-review"],
                "student": ["student", "--scheduler", "random"],
                "sweep": ["sweep", "--schedulers", "random,conf+var_comp"],
                "synth": ["synth"]}[command]
        expect_named_failure(work, f"{section}: field '{field}' must be >= 0, got {seed}",
                             [*argv, "--config", str(path), "--out", str(out)])
        assert not out.exists()
