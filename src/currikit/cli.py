"""Command-line orchestration of the two-stage pipeline.

Stage 1 (``teacher``) trains a scoring model on the train split and turns
its per-epoch behavior into difficulty statistics (or produces cross-review
/ heuristic scores). Stage 2 (``student``) trains a fresh model under a
chosen scheduler and evaluates its best checkpoint on every test split.
``sweep`` automates the grid, ``compare`` runs the significance and
time-ratio report, plus utilities: ``synth``, ``datamap``, ``correlate``.

All artifacts live under a run directory given with --out; every command
snapshots its config there first, and re-running with the same config and
seeds reproduces artifacts byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import sys
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple, get_type_hints

import numpy as np

from . import analysis, artifacts, curricula, difficulty, dynamics, trainer
from .corpus import (
    DEFAULT_HASH_DIM,
    Corpus,
    SynthSpec,
    generate_synthetic,
    load_jsonl,
    load_label_map,
    save_jsonl,
    save_label_map,
)

HEURISTICS = ("length", "rarity", "ppl")

TEACHER_METRICS = ("dynamics", "cross-review", "length", "rarity", "ppl")


class _Scheduler(NamedTuple):
    teacher: str | None  # the TEACHER_METRICS entry whose artifact it reads
    family: str | None   # "annealing" or "competence" plan
    score: str | None    # the dynamics statistic or scores-file metric_name it orders by
    weighted: bool       # samples in proportion to variability


_SCHEDULER_TABLE = {
    "random": _Scheduler(None, None, None, False),
    "cr_anneal": _Scheduler("cross-review", "annealing", "cross_review", False),
    "corr_anneal": _Scheduler("dynamics", "annealing", "correctness", False),
    "conf_comp": _Scheduler("dynamics", "competence", "confidence", False),
    "corr+var_anneal": _Scheduler("dynamics", "annealing", "correctness", True),
    "conf+var_comp": _Scheduler("dynamics", "competence", "confidence", True),
    "length": _Scheduler("length", "competence", "length", False),
    "rarity": _Scheduler("rarity", "competence", "rarity", False),
    "ppl": _Scheduler("ppl", "competence", "ppl", False),
}
SCHEDULERS = tuple(_SCHEDULER_TABLE)

EVAL_SPLITS = ("validation", "test_id", "test_ood", "test_transfer")

_BASELINES = ("random", "cr_anneal")  # what sweep compares every scheduler against

# Schemas of the artifacts written and read back here (meta.json: what is read).
_META_SCHEMA = {"epochs": int}
_OUTCOME_SCHEMA = {"example_id": str, "correct": bool}
_SUMMARY_SCHEMA = {"scheduler": str, "seeds": list, "splits": list, "accuracy": dict,
                   "best_steps": dict, "total_steps": dict}
_ACCURACY_SCHEMA = {"mean": float, "std": float}  # each accuracy.<split>: what is read


class ValidationError(Exception):
    """Bad config or bad command usage; maps to exit code 1."""


# --- config -----------------------------------------------------------------


def load_config(path: str | Path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"config file not found: {path}")
    try:
        config = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from None
    validate_config(config)
    return config


def _dataclass_fields(cls, skip: tuple[str, ...] = ()) -> dict[str, tuple]:
    hints = get_type_hints(cls)
    return {f.name: (hints[f.name], f.default)
            for f in dataclasses.fields(cls) if f.name not in skip}


# Every config field, per section ("config" is the top level), as (JSON type,
# default); a None default marks a field that is required or derived from
# others. No other field is allowed, and train has no seed: run seeds come
# from seeds and teacher_seed.
_FIELDS = {
    "data": {**dict.fromkeys(("train", *EVAL_SPLITS, "label_map"), (str, None)),
             "hash_dim": (int, DEFAULT_HASH_DIM)},
    "synth": _dataclass_fields(SynthSpec),
    "train": _dataclass_fields(trainer.TrainConfig, skip=("seed",)),
    "model": {"hidden_size": (int, 0)},
    "curriculum": {"c0": (float, 0.01), "duration": (int, None),
                   "baseline_dir": (str, None), "competence_form": (str, "sqrt"),
                   "ngram_order": (int, 2), "add_k": (float, 1.0)},
    "cross_review": {"num_subsets": (int, 10), "seed": (int, None)},
}
_FIELDS = {"config": {**dict.fromkeys(_FIELDS, (dict, None)),
                      "seeds": (list, [1, 2, 3]), "teacher_seed": (int, None)},
           **_FIELDS}
_PATH_FIELDS = [("data", name) for name in ("train", *EVAL_SPLITS, "label_map")] + [
    ("curriculum", "baseline_dir")]


def _value(config: dict, section: str, name: str, derived=None):
    """Config field ``section.name`` as given, else its ``_FIELDS`` default,
    else ``derived``; a float field as a float."""
    kind, default = _FIELDS[section][name]
    value = (config if section == "config" else config.get(section, {})).get(name, default)
    value = derived if value is None else value
    return float(value) if kind is float and value is not None else value


def validate_config(config: dict) -> None:
    if not isinstance(config, dict):
        raise ValidationError("config must be a JSON object")
    _check_fields(config, "config")
    for section, name in _PATH_FIELDS:
        if _value(config, section, name) == "":
            raise ValidationError(f"{section}: field '{name}' must be a nonempty path")
    seeds = _value(config, "config", "seeds")
    _check_items(seeds, int, "seeds", "config")
    if not seeds or len(set(seeds)) != len(seeds):
        raise ValidationError("seeds must be a nonempty list of distinct integers")
    named_seeds = [("config", f"seeds[{i}]", seed) for i, seed in enumerate(seeds)] + [
        (section, name, _value(config, section, name)) for section, name in
        (("config", "teacher_seed"), ("synth", "seed"), ("cross_review", "seed"))]
    for section, name, seed in named_seeds:  # numpy takes no negative seed
        if seed is not None and seed < 0:
            raise ValidationError(f"{section}: field '{name}' must be >= 0, got {seed}")
    if ("data" in config) == ("synth" in config):
        raise ValidationError("config needs exactly one of 'data' or 'synth'")
    if "data" in config:
        for fld in ("train", "validation"):
            if _value(config, "data", fld) is None:
                raise ValidationError(f"data.{fld} is required")
        hash_dim = _value(config, "data", "hash_dim")
        if hash_dim <= 0 or hash_dim & (hash_dim - 1):
            raise ValidationError(f"data.hash_dim must be a positive power of two, "
                                  f"got {hash_dim}")
        if hash_dim > 2 ** 62:  # 2^63 columns overflow the int64 matrix shape
            raise ValidationError(f"data.hash_dim must be at most 2^62, got {hash_dim}")
    else:
        _check_bounds("synth", SynthSpec, **config["synth"])
    _check_bounds("train", _train_config, config, seed=0)
    if _value(config, "model", "hidden_size") < 0:
        raise ValidationError("model.hidden_size must be a nonnegative integer")
    _check_bounds("curriculum", curricula.CompetencePlan, ordering=[], ids=[],
                  c0=_value(config, "curriculum", "c0"),
                  duration=_value(config, "curriculum", "duration", 1),
                  form=_value(config, "curriculum", "competence_form"))
    if _value(config, "curriculum", "ngram_order") not in (1, 2):
        raise ValidationError("curriculum.ngram_order must be 1 or 2")
    if _value(config, "curriculum", "add_k") <= 0:
        raise ValidationError("curriculum.add_k must be a number > 0")
    _check_bounds("cross_review", difficulty.CrossReviewConfig,
                  num_subsets=_value(config, "cross_review", "num_subsets"))


def _check_bounds(section: str, build: Callable, *args, **kwargs) -> None:
    """Call ``build``; the ValueError of a value out of bounds names ``section``."""
    try:
        build(*args, **kwargs)
    except ValueError as exc:
        raise ValidationError(f"{section}: {exc}") from None


def _check_fields(section: dict, name: str) -> None:
    """Each field of section ``name`` must be in ``_FIELDS[name]``, have its
    JSON type (checked on a copy: the check stores an int given for a float
    as a float) and be finite if a number (``json`` reads NaN and Infinity);
    an object field is a section, checked in turn."""
    fields = _FIELDS[name]
    for key in section:
        if key not in fields:
            raise ValidationError(f"{name}: unknown field '{key}'")
    artifacts.check(dict(section), {key: fields[key][0] for key in section}, name)
    for key, value in section.items():
        if fields[key][0] is float and not math.isfinite(value):
            raise ValidationError(f"{name}: field '{key}' must be a finite number, "
                                  f"got {value!r}")
        if fields[key][0] is dict:
            _check_fields(value, key)


def _check_items(values: list, kind: type, name: str, source) -> None:
    """Each element of the array field ``name`` must have JSON type ``kind``."""
    items = {f"{name}[{i}]": v for i, v in enumerate(values)}
    artifacts.check(items, dict.fromkeys(items, kind), source)


def _train_config(config: dict, seed: int, epochs_override: int | None = None):
    section = {name: _value(config, "train", name) for name in _FIELDS["train"]}
    if epochs_override is not None:
        section["epochs"] = epochs_override
    return trainer.TrainConfig(**section, seed=seed)


def resolve_corpora(config: dict,
                    splits: tuple[str, ...] = ("train", *EVAL_SPLITS)) -> dict[str, Corpus]:
    """Load train and each other configured split named in ``splits``, or
    (deterministically) regenerate every synthetic split: they come from
    one seeded stream.

    The label map and the feature dimension are fixed by the train split
    and all other splits must conform to them.
    """
    if "synth" in config:
        train, val, test_id, test_ood = generate_synthetic(SynthSpec(**config["synth"]))
        return {"train": train, "validation": val,
                "test_id": test_id, "test_ood": test_ood}
    dim = _value(config, "data", "hash_dim")
    label_map = _value(config, "data", "label_map")
    train = load_jsonl(_value(config, "data", "train"), "train", dim=dim,
                       label_map=None if label_map is None else load_label_map(label_map))
    fixed = {name: i for i, name in enumerate(train.label_names)}
    corpora = {"train": train}
    for split in EVAL_SPLITS:
        path = _value(config, "data", split)
        if path is not None and split in splits:
            corpora[split] = load_jsonl(path, split, dim=dim, label_map=fixed,
                                        feature_dim=train.feature_dim)
    return corpora


_MISSING_FILE = "missing"  # the digest of a named file that does not exist


def _file_digest(path: Path) -> str:
    """sha256 of the file at ``path``, or ``_MISSING_FILE`` when there is none."""
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else _MISSING_FILE


def _input_files(config: dict) -> dict[str, Path]:
    """The files the config names, by field: the data files and
    ``curriculum.baseline_dir``'s summary.json. A synthetic config's data is
    the config itself."""
    files = {}
    for section, name in _PATH_FIELDS:
        value = _value(config, section, name)
        if value is not None:
            files[f"{section}.{name}"] = (Path(value) / "summary.json"
                                          if name == "baseline_dir" else Path(value))
    return files


def snapshot_config(config: dict, out_dir: Path) -> None:
    """Snapshot the config as config.json, and the sha256 of each file it
    names as inputs.json, before a command writes anything into ``out_dir``.
    A later command must bring the same config and the same files, so resume
    never trusts an artifact made from other inputs. A file missing at the
    first snapshot, from which nothing can have been made, is recorded when
    it appears."""
    snap, inputs = out_dir / "config.json", out_dir / "inputs.json"
    text = json.dumps(config, indent=2, sort_keys=True) + "\n"
    if snap.exists() and snap.read_text(encoding="utf-8") != text:
        raise ValidationError(
            f"{snap} already holds a different config; use a fresh --out directory"
        )
    files = _input_files(config)
    digests = {field: _file_digest(path) for field, path in files.items()}
    recorded = (artifacts.read_json(inputs, dict.fromkeys(files, str)) if inputs.exists()
                else dict.fromkeys(files, _MISSING_FILE))
    for field, path in files.items():
        if recorded[field] not in (_MISSING_FILE, digests[field]):
            raise ValidationError(
                f"{field}: {path} changed since {inputs} was written: sha256 "
                f"{recorded[field]} then, {digests[field]} now; use a fresh --out directory"
            )
    if files and (digests != recorded or not inputs.exists()):
        artifacts.write_json(inputs, digests)
    if not snap.exists():  # an identical one is not rewritten
        artifacts.write_text(snap, text)


# --- stage 1: teacher / scoring ----------------------------------------------


def cmd_teacher(config: dict, out_dir: Path, metric: str = "dynamics",
                teacher_epochs: int | None = None,
                corpora: dict[str, Corpus] | None = None) -> Path:
    """Produce a difficulty artifact under <out>/teacher/.

    dynamics -> probes + td_stats; cross-review -> fold-vote scores;
    length/rarity/ppl -> heuristic scores. Returns the artifact path.
    ``corpora`` lets callers (sweep) share already-resolved splits.
    """
    if metric not in TEACHER_METRICS:
        raise ValidationError(f"unknown metric {metric!r}; choose from {TEACHER_METRICS}")
    snapshot_config(config, out_dir)
    if corpora is None:
        splits = ("train", "validation") if metric == "dynamics" else ("train",)
        corpora = resolve_corpora(config, splits=splits)
    out_path = _teacher_artifact(out_dir, metric)
    teacher_dir = out_path.parent
    train_corpus = corpora["train"]
    seed = _value(config, "config", "teacher_seed", _value(config, "config", "seeds")[0])

    if metric == "dynamics":
        cfg = _train_config(config, seed=seed, epochs_override=teacher_epochs)
        sampler = curricula.RandomSampler(np.arange(train_corpus.size), cfg.batch_size,
                                          seed=cfg.seed)
        params, runlog, probes = trainer.train(
            train_corpus, corpora["validation"], cfg, sampler,
            hidden_size=_value(config, "model", "hidden_size"), collect_probes=True,
        )
        trainer.write_runlog(runlog, teacher_dir / "runlog.jsonl")
        trainer.write_probes(probes, teacher_dir / "probes.jsonl")
        # td_stats.jsonl marks the teacher done for a resumed sweep: write it last.
        artifacts.write_json(teacher_dir / "meta.json",
                             {"metric": "dynamics", "epochs": cfg.epochs,
                              "seed": cfg.seed, "hidden_size": params.hidden_size})
        dynamics.write_td_stats(dynamics.compute_all(probes), out_path)
        return out_path

    if metric == "cross-review":
        cr_cfg = difficulty.CrossReviewConfig(
            num_subsets=_value(config, "cross_review", "num_subsets"),
            seed=_value(config, "cross_review", "seed", seed),
            train=_train_config(config, seed=seed, epochs_override=teacher_epochs),
        )
        scores = difficulty.cross_review(train_corpus, cr_cfg)
        difficulty.write_scores(scores, out_path,
                                extra_header={"num_subsets": cr_cfg.num_subsets})
        return out_path

    difficulty.write_scores(_heuristic_scores(config, train_corpus, metric), out_path)
    return out_path


def _heuristic_scores(config: dict, train_corpus: Corpus,
                      metric: str) -> difficulty.DifficultyScores:
    """The scores of a heuristic teacher: one of HEURISTICS."""
    if metric == "length":
        return difficulty.length_metric(train_corpus)
    if metric == "rarity":
        return difficulty.rarity_metric(train_corpus)
    return difficulty.perplexity_metric(
        train_corpus,
        order=_value(config, "curriculum", "ngram_order"),
        add_k=_value(config, "curriculum", "add_k"),
    )


def _teacher_artifact(out_dir: Path, metric: str) -> Path:
    """The difficulty file cmd_teacher writes for ``metric``."""
    if metric == "dynamics":
        return out_dir / "teacher" / "td_stats.jsonl"
    return out_dir / "teacher" / f"scores_{metric.replace('-', '_')}.jsonl"


# --- stage 2: student ---------------------------------------------------------


def _first_record(path: Path) -> dict:
    """First line of a teacher artifact: a scores header or a stats row."""
    if not path.exists():
        raise ValidationError(f"scores file not found: {path} (run the teacher first)")
    first = next(artifacts.read_jsonl(path), None)
    if not isinstance(first, dict):
        raise ValidationError(f"{path}: not a dynamics-stats or scores file")
    return first


def _read_scores(path: Path, scheduler: str, ids: list[str], first: dict | None = None,
                 td_stats: Callable | None = None) -> difficulty.DifficultyScores:
    """The scores ``scheduler`` orders by, for exactly ``ids`` in that order,
    from a dynamics-stats file or a scores file (first record: ``first``);
    ``td_stats(path)``, when given, parses a dynamics-stats file."""
    spec = _SCHEDULER_TABLE[scheduler]
    if first is None:
        first = _first_record(path)
    if "confidence" in first:
        if spec.teacher != "dynamics":
            raise ValidationError(
                f"scheduler {scheduler!r} needs a {spec.teacher!r} scores file, "
                "not dynamics stats"
            )
        stats = td_stats(path) if td_stats else dynamics.read_td_stats(path, ids)
        return difficulty.from_td(stats, spec.score)
    if "metric_name" not in first:
        raise ValidationError(f"{path}: neither a dynamics-stats nor a scores file")
    scores = difficulty.read_scores(path, ids, header=first)
    if spec.teacher != "dynamics" and scores.metric_name != spec.score:
        print(
            f"warning: scheduler {scheduler!r} usually reads "
            f"{spec.score!r} scores, got {scores.metric_name!r}",
            file=sys.stderr,
        )
    if spec.weighted:
        raise ValidationError(
            f"scheduler {scheduler} needs variability from dynamics stats; "
            f"got a plain {scores.metric_name!r} scores file"
        )
    return scores


def _annealing_epochs(header: dict, path: Path,
                      scores: difficulty.DifficultyScores) -> int:
    """E of the annealing carryover fraction 1/(E+1) for the teacher artifact
    ``path`` with first record ``header``: cross-review votes lie in
    [0, num_subsets - 1], correctness in [0, E] for the epochs E of the
    teacher whose meta.json sits beside ``path`` (without one, the largest
    score)."""
    if "num_subsets" in header:
        return artifacts.check(header, {"num_subsets": int}, path, 1)["num_subsets"] - 1
    meta = path.parent / "meta.json"
    if meta.exists():
        return artifacts.read_json(meta, _META_SCHEMA)["epochs"]
    return max(1, int(scores.scores.max()))


def _competence_duration(config: dict, seed: int, total_steps: int) -> int:
    duration = _value(config, "curriculum", "duration")
    if duration is not None:
        return duration
    baseline_dir = _value(config, "curriculum", "baseline_dir")
    if baseline_dir is not None:
        summary_path = Path(baseline_dir) / "summary.json"
        if not summary_path.exists():
            raise ValidationError(f"curriculum.baseline_dir: {summary_path} not found")
        summary = _load_student_dir(summary_path.parent)
        if str(seed) not in summary["best_steps"]:
            raise ValidationError(
                f"curriculum.baseline_dir has no run for seed {seed}"
            )
        _check_entries(summary, summary_path.parent)
        return max(1, round(0.9 * summary["best_steps"][str(seed)]))
    return max(1, round(0.9 * total_steps))


def _build_sampler(scheduler: str, scores: difficulty.DifficultyScores | None,
                   annealing_epochs: int | None, config: dict, seed: int,
                   train_corpus: Corpus, batch_size: int, total_steps: int):
    """Sampler plus its auditable plan for one student run."""
    spec = _SCHEDULER_TABLE[scheduler]
    if spec.family is None:
        rows = np.arange(train_corpus.size)
        return curricula.RandomSampler(rows, batch_size, seed=seed), None
    if spec.family == "annealing":
        plan = curricula.build_annealing_plan(scores, annealing_epochs,
                                              variability_weighted=spec.weighted)
        return curricula.AnnealingSampler(plan, batch_size, seed=seed), plan

    plan = curricula.build_competence_plan(
        scores,
        c0=_value(config, "curriculum", "c0"),
        duration=_competence_duration(config, seed, total_steps),
        variability_weighted=spec.weighted,
        form=_value(config, "curriculum", "competence_form"),
    )
    sampler = curricula.CompetenceSampler(plan, batch_size, seed=seed)
    return sampler, plan


class _Cell(NamedTuple):
    """One student run of the grid: a scheduler under one seed."""
    scheduler: str
    seed: int
    config: trainer.TrainConfig
    sampler: trainer.Sampler
    plan: curricula.AnnealingPlan | curricula.CompetencePlan | None
    total_steps: int
    scores_sha256: str | None  # of the file the plan read; None for random


def _plan_cells(config: dict, scheduler: str, corpora: dict[str, Corpus], seeds: list[int],
                path: Path | None, scores_sha256: str | None, first_record: Callable,
                td_stats: Callable) -> list[_Cell]:
    """A cell per seed under ``scheduler``; its scores file ``path`` (None
    for random), whose sha256 is ``scores_sha256``, is read once, before
    anything trains, through ``first_record`` and, for dynamics stats, ``td_stats``."""
    spec = _SCHEDULER_TABLE[scheduler]
    train_corpus = corpora["train"]
    scores = annealing_epochs = None
    if path is not None:
        first = first_record(path)
        scores = _read_scores(path, scheduler, train_corpus.ids(), first, td_stats)
        if spec.family == "annealing":
            annealing_epochs = _annealing_epochs(first, path, scores)
    cells = []
    for seed in seeds:
        cfg = _train_config(config, seed=seed)
        total_steps = cfg.epochs * math.ceil(train_corpus.size / cfg.batch_size)
        sampler, plan = _build_sampler(scheduler, scores, annealing_epochs, config, seed,
                                       train_corpus, cfg.batch_size, total_steps)
        cells.append(_Cell(scheduler, seed, cfg, sampler, plan, total_steps, scores_sha256))
    return cells


def _train_cells(config: dict, out_dir: Path, corpora: dict[str, Corpus],
                 cells: list[_Cell]) -> None:
    """Train ``cells`` in lockstep (``trainer.train_seeds``) and write each
    stack's cells as the stack finishes, each split predicted for the whole
    stack with one product. A cell writes its metrics.json last, with the
    sha256 of the scores file it was planned from (``_run_cells`` reads it)."""
    trained = trainer.train_seeds(
        corpora["train"], corpora["validation"], [cell.config for cell in cells],
        [cell.sampler for cell in cells], hidden_size=_value(config, "model", "hidden_size"),
        collect_probes=False,
    )
    for results in trained:
        stack, cells = cells[:len(results)], cells[len(results):]
        correct = {split: trainer.predict([params for params, _, _ in results],
                                          corpora[split]) == corpora[split].labels()
                   for split in EVAL_SPLITS if split in corpora}
        for s, (cell, (_, runlog, _)) in enumerate(zip(stack, results, strict=True)):
            seed_dir = out_dir / "students" / cell.scheduler / f"seed_{cell.seed}"
            trainer.write_runlog(runlog, seed_dir / "runlog.jsonl")
            summary = curricula.plan_summary(cell.plan)
            summary.update({"scheduler_name": cell.scheduler, "seed": cell.seed})
            artifacts.write_json(seed_dir / "plan.json", summary)
            metrics = {"scheduler": cell.scheduler, "seed": cell.seed,
                       "scores_sha256": cell.scores_sha256,
                       "best_step": runlog.best_step, "total_steps": cell.total_steps,
                       "accuracy": {}}
            for split, split_correct in correct.items():
                metrics["accuracy"][split] = float(split_correct[s].mean())
                _write_outcomes(seed_dir / f"outcomes_{split}.jsonl", corpora[split].ids(),
                                split_correct[s])
            artifacts.write_json(seed_dir / "metrics.json", metrics)
        del results  # dropped before the next stack trains


def _run_cells(config: dict, out_dir: Path, schedulers: list[str],
               scores_path: Path | None = None,
               corpora: dict[str, Corpus] | None = None) -> None:
    """Train the missing (scheduler, seed) cells of ``schedulers`` and write
    their summaries: the one resume rule of ``sweep`` and ``student``.

    A cell is complete when its metrics.json records as ``scores_sha256``
    the sha256 of the file its plan would read now, ``scores_path`` or its
    teacher artifact (each hashed once and parsed once), or null for random,
    which reads none. Every other cell is missing: all are
    planned, then trained as one ``_train_cells`` call on ``corpora``,
    resolved only then when not given. A scheduler's summary.json is removed
    before its cells train and written when absent, so one that exists was
    built from its cells as they are; sweep_summary.* goes too, so a sweep's
    reports are never trusted past a cell that trained after them."""
    seeds = _value(config, "config", "seeds")
    files = {}
    for s in schedulers:
        teacher = _SCHEDULER_TABLE[s].teacher
        files[s] = teacher and (scores_path or _teacher_artifact(out_dir, teacher))
    digests = {path: path and _file_digest(path) for path in set(files.values())}

    def complete(scheduler: str, seed: int) -> bool:
        path = out_dir / "students" / scheduler / f"seed_{seed}" / "metrics.json"
        metrics = artifacts.read_json(path, {}) if path.exists() else {}
        return ("scores_sha256" in metrics
                and metrics["scores_sha256"] == digests[files[scheduler]])

    missing = {s: [seed for seed in seeds if not complete(s, seed)] for s in schedulers}
    if any(missing.values()):
        corpora = corpora or resolve_corpora(config)
        train_ids = corpora["train"].ids()
        # Each teacher file is read once, however many schedulers plan from it.
        first_record = functools.cache(_first_record)
        td_stats = functools.cache(lambda path: dynamics.read_td_stats(path, train_ids))
        cells = [cell for s in schedulers if missing[s] for cell in
                 _plan_cells(config, s, corpora, missing[s], files[s], digests[files[s]],
                             first_record, td_stats)]
        _remove_sweep_summary(out_dir)
        for s in schedulers:
            if missing[s]:
                (out_dir / "students" / s / "summary.json").unlink(missing_ok=True)
        _train_cells(config, out_dir, corpora, cells)
    for s in schedulers:
        if not (out_dir / "students" / s / "summary.json").exists():
            _write_summary(out_dir, s, seeds)


def cmd_student(config: dict, out_dir: Path, scheduler: str,
                scores_path: Path | None = None) -> dict:
    """Train one student per seed under ``scheduler``, planned from
    ``scores_path`` or the run's teacher artifact, and return its summary.
    A seed whose cell is complete for that file does not train again
    (``_run_cells``, as in ``sweep``).

    All schedulers consume exactly epochs * ceil(N / batch_size) optimizer
    steps, so time budgets match across a sweep.
    """
    if scheduler not in SCHEDULERS:
        raise ValidationError(f"unknown scheduler {scheduler!r}; choose from {SCHEDULERS}")
    snapshot_config(config, out_dir)
    if scores_path is not None and _SCHEDULER_TABLE[scheduler].teacher is None:
        print(f"warning: scheduler {scheduler!r} ignores the scores file", file=sys.stderr)
    _run_cells(config, out_dir, [scheduler], scores_path)
    return _load_student_dir(out_dir / "students" / scheduler)


_METRICS_SCHEMA = {"best_step": int, "total_steps": int, "accuracy": dict}


def _write_summary(out_dir: Path, scheduler: str, seeds: list[int]) -> dict:
    """Write and return the summary.json of ``scheduler``'s students, from
    the metrics.json of each seed's cell."""
    sched_dir = out_dir / "students" / scheduler
    seeds = sorted(seeds)
    per_seed = {seed: artifacts.read_json(sched_dir / f"seed_{seed}" / "metrics.json",
                                          _METRICS_SCHEMA) for seed in seeds}
    splits = sorted(per_seed[seeds[0]]["accuracy"])
    accuracy = {}
    for split in splits:
        vals = {str(s): per_seed[s]["accuracy"][split] for s in seeds}
        mean = sum(vals.values()) / len(vals)
        var = sum((v - mean) ** 2 for v in vals.values()) / len(vals)
        accuracy[split] = {"mean": mean, "std": math.sqrt(var), "per_seed": vals}
    summary = {"scheduler": scheduler, "seeds": seeds, "splits": splits, "accuracy": accuracy,
               "best_steps": {str(s): per_seed[s]["best_step"] for s in seeds},
               "total_steps": {str(s): per_seed[s]["total_steps"] for s in seeds}}
    artifacts.write_json(sched_dir / "summary.json", summary)
    return summary


# --- compare ------------------------------------------------------------------


def _load_student_dir(path: Path) -> dict:
    """The summary.json of a completed student directory; its seeds must be
    integers and its splits strings (``_check_entries`` checks the rest)."""
    summary_path = path / "summary.json"
    if not summary_path.exists():
        raise ValidationError(f"{path} is not a completed student run directory")
    summary = artifacts.read_json(summary_path, _SUMMARY_SCHEMA)
    _check_items(summary["seeds"], int, "seeds", summary_path)
    _check_items(summary["splits"], str, "splits", summary_path)
    return summary


def _check_entries(summary: dict, path: Path) -> None:
    """The nested entries of the student summary read from ``path/summary.json``:
    an integer per seed in best_steps and an accuracy entry per split."""
    source = path / "summary.json"
    seeds = [str(s) for s in summary["seeds"]]
    artifacts.check(summary["best_steps"], dict.fromkeys(seeds, int),
                    f"{source}: best_steps")
    artifacts.check(summary["accuracy"], dict.fromkeys(summary["splits"], dict),
                    f"{source}: accuracy")
    for split in summary["splits"]:
        artifacts.check(summary["accuracy"][split], _ACCURACY_SCHEMA,
                        f"{source}: accuracy.{split}")


def _write_outcomes(path: Path, ids: list[str], correct: np.ndarray) -> None:
    """One {example_id, correct} record per example."""
    artifacts.write_columns(path, {"example_id": ids, "correct": correct})


def _pooled_outcomes(path: Path, seeds: list[int],
                     split: str) -> tuple[list[str], np.ndarray]:
    """The example ids of the first seed's ``split`` outcomes and one
    seed-major bool array over the (example, seed) units: entry
    ``s * len(ids) + i`` says whether seed ``seeds[s]`` got ``ids[i]`` right.
    Every seed's file must hold exactly these ids, in any order."""
    files = [path / f"seed_{seed}" / f"outcomes_{split}.jsonl" for seed in seeds]
    ids, pooled = None, []
    for outcomes in files:
        file_ids, columns = artifacts.read_columns(outcomes, _OUTCOME_SCHEMA)
        ids = file_ids if ids is None else ids
        pooled.append(_aligned(columns["correct"], file_ids, ids,
                               f"{outcomes}: example ids differ from those of {files[0]}"))
    return ids, np.concatenate(pooled)


def _aligned(values: np.ndarray, have: list[str], want: list[str],
             problem: str) -> np.ndarray:
    """Seed-major ``values`` over the example ids ``have``, reordered to the
    ids ``want``; ValidationError ``problem`` unless both hold the same ids."""
    if have == want:
        return values
    row = dict(zip(have, range(len(have))))
    if len(have) != len(want) or any(eid not in row for eid in want):
        raise ValidationError(problem)
    return values.reshape(-1, len(have))[:, [row[eid] for eid in want]].ravel()


def cmd_compare(
    dir_a: Path, dir_b: Path, out_prefix: Path | None = None,
    pooled_outcomes: Callable[[Path, list[int], str],
                              tuple[list[str], np.ndarray]] | None = None,
) -> dict:
    """Per split: accuracies, exact AR p-value over pooled (example, seed)
    units, plus the time ratio best_step(a)/best_step(b) aggregated over
    seeds. Emits JSON and a plain-text table. ``pooled_outcomes`` replaces
    ``_pooled_outcomes`` (sweep passes one that reads each file once)."""
    pooled_outcomes = pooled_outcomes or _pooled_outcomes
    sum_a = _load_student_dir(dir_a)
    sum_b = _load_student_dir(dir_b)
    if sum_a["seeds"] != sum_b["seeds"]:
        raise ValidationError(
            f"seed lists differ: {sum_a['seeds']} vs {sum_b['seeds']}"
        )
    if sum_a["splits"] != sum_b["splits"]:
        raise ValidationError(
            f"evaluated splits differ: {sum_a['splits']} vs {sum_b['splits']}"
        )
    _check_entries(sum_a, dir_a)
    _check_entries(sum_b, dir_b)
    seeds = sum_a["seeds"]
    ratios = analysis.aggregate_time_ratios(
        [sum_a["best_steps"][str(s)] for s in seeds],
        [sum_b["best_steps"][str(s)] for s in seeds],
    )
    report = {
        "a": {"path": str(dir_a), "scheduler": sum_a["scheduler"]},
        "b": {"path": str(dir_b), "scheduler": sum_b["scheduler"]},
        "seeds": seeds,
        "time_ratio": ratios,
        "splits": {},
    }
    for split in sum_a["splits"]:
        ids_a, pooled_a = pooled_outcomes(dir_a, seeds, split)
        ids_b, pooled_b = pooled_outcomes(dir_b, seeds, split)
        pooled_b = _aligned(pooled_b, ids_b, ids_a,
                            f"{split}: outcome example ids differ between {dir_a} "
                            f"and {dir_b}")
        p = analysis.approx_randomization(pooled_a, pooled_b)
        report["splits"][split] = {
            "acc_a": sum_a["accuracy"][split],
            "acc_b": sum_b["accuracy"][split],
            "p_value": p,
        }

    table = _compare_table(report)
    print(table)
    if out_prefix is not None:
        artifacts.write_json(Path(str(out_prefix) + ".json"), report)
        artifacts.write_text(Path(str(out_prefix) + ".txt"), table + "\n")
    return report


def _compare_name(side: str, scheduler: str, path) -> str:
    """The line of a compare table that names student directory ``side``."""
    return f"{side} = {scheduler} ({path})"


def _compare_table(report: dict) -> str:
    header = f"{'split':<14} {'acc_a':>15} {'acc_b':>15} {'p':>8} " \
             f"{'ratio_mean':>11} {'ratio_min':>10}"
    lines = [
        _compare_name("A", report["a"]["scheduler"], report["a"]["path"]),
        _compare_name("B", report["b"]["scheduler"], report["b"]["path"]),
        header,
        "-" * len(header),
    ]
    rm = report["time_ratio"]["mean"]
    rmin = report["time_ratio"]["min"]
    for split, row in report["splits"].items():
        a = row["acc_a"]
        b = row["acc_b"]
        lines.append(
            f"{split:<14} {a['mean']:.4f}±{a['std']:.4f} "
            f"{b['mean']:.4f}±{b['std']:.4f} {row['p_value']:>8.3g} "
            f"{rm:>11.2f} {rmin:>10.2f}"
        )
    return "\n".join(lines)


# --- sweep ---------------------------------------------------------------------


def cmd_sweep(config: dict, out_dir: Path, schedulers: list[str]) -> dict:
    """Each missing teacher once, then every missing (scheduler, seed) cell
    (``_run_cells``: planned from the run's teacher artifacts, the grid
    trained in lockstep as one ``_train_cells`` call), then compare all
    against the random and cr_anneal baselines (when listed). Every cell is
    planned before any trains, and when every teacher and cell is complete
    no corpus is built.

    sweep_summary.json, written last, marks the reports complete, and
    ``_run_cells`` removes it before any cell trains. So when it lists
    ``schedulers`` in this order and every compare report they imply is
    stored (``_stored_sweep``), nothing is compared or written again."""
    if not schedulers:
        raise ValidationError("empty sweep list: name at least one scheduler")
    for s in schedulers:
        if s not in SCHEDULERS:
            raise ValidationError(f"unknown scheduler {s!r} in sweep list")
        if schedulers.count(s) > 1:
            raise ValidationError(f"scheduler {s!r} is repeated in sweep list")
    snapshot_config(config, out_dir)
    teachers = [m for m in TEACHER_METRICS
                if any(_SCHEDULER_TABLE[s].teacher == m for s in schedulers)
                and not _teacher_artifact(out_dir, m).exists()]
    corpora = resolve_corpora(config) if teachers else None
    for metric in teachers:
        cmd_teacher(config, out_dir, metric=metric, corpora=corpora)
    _run_cells(config, out_dir, schedulers, corpora=corpora)

    baselines = [b for b in _BASELINES if b in schedulers]
    against = {s: [b for b in baselines if b != s] for s in schedulers}
    stored = _stored_sweep(out_dir, against)
    if stored is not None:
        return stored
    _remove_sweep_summary(out_dir)
    outcomes: dict[Path, dict[str, tuple]] = {}  # student dir -> split -> pooled

    def pooled_once(path: Path, seeds: list[int], split: str) -> tuple:
        by_split = outcomes.setdefault(path, {})
        if split not in by_split:
            by_split[split] = _pooled_outcomes(path, seeds, split)
        return by_split[split]

    compare_dir = out_dir / "compare"
    rows = []
    for s in schedulers:
        student_dir = out_dir / "students" / s
        summary = _load_student_dir(student_dir)
        _check_entries(summary, student_dir)
        row = {"scheduler": s, "accuracy": summary["accuracy"]}
        for b in against[s]:
            report = cmd_compare(
                student_dir, out_dir / "students" / b,
                out_prefix=compare_dir / f"{s}_vs_{b}",
                pooled_outcomes=pooled_once,
            )
            row[f"vs_{b}"] = {
                "time_ratio": report["time_ratio"],
                "p_values": {split: r["p_value"]
                             for split, r in report["splits"].items()},
            }
        if s not in baselines:
            outcomes.pop(student_dir, None)  # no later compare reads it
        rows.append(row)
    matrix = {"schedulers": schedulers, "rows": rows}
    artifacts.write_text(out_dir / "sweep_summary.txt", _sweep_table(matrix) + "\n")
    artifacts.write_json(out_dir / "sweep_summary.json", matrix)
    return matrix


_SWEEP_SCHEMA = {"schedulers": list, "rows": list}


def _remove_sweep_summary(out_dir: Path) -> None:
    """Remove the mark of a sweep's complete reports, sweep_summary.json,
    then its table."""
    for name in ("sweep_summary.json", "sweep_summary.txt"):
        (out_dir / name).unlink(missing_ok=True)


def _stored_sweep(out_dir: Path, against: dict[str, list[str]]) -> dict | None:
    """The matrix in sweep_summary.json, once the stored compare tables are
    written to stdout in compare order (the bytes the compares printed),
    when the reports are complete: sweep_summary.txt exists, the matrix
    lists the schedulers of ``against`` in that order, and each one's
    compare report against each of its baselines is stored, its table
    naming this run's student directories. None otherwise."""
    path = out_dir / "sweep_summary.json"
    if not (path.exists() and path.with_suffix(".txt").exists()):
        return None
    matrix = artifacts.read_json(path, _SWEEP_SCHEMA)
    if matrix["schedulers"] != list(against):
        return None
    tables = []
    for s, baselines in against.items():
        for b in baselines:
            prefix = str(out_dir / "compare" / f"{s}_vs_{b}")
            table = Path(prefix + ".txt")
            if not (table.exists() and Path(prefix + ".json").exists()):
                return None
            text = table.read_text(encoding="utf-8")
            names = [_compare_name("A", s, out_dir / "students" / s),
                     _compare_name("B", b, out_dir / "students" / b)]
            if text.split("\n", 2)[:2] != names:
                return None
            tables.append(text)
    sys.stdout.write("".join(tables))
    return matrix


def _sweep_table(matrix: dict) -> str:
    """Accuracy per scheduler and split; then, per baseline, each
    scheduler's p-value per split and mean time ratio against it."""
    rows = matrix["rows"]
    splits = sorted({s for row in rows for s in row["accuracy"]})

    def line(name: str, cells: list[str]) -> str:
        return f"{name:<18}" + "".join(f"{c:>22}" for c in cells)

    header = line("scheduler", splits)
    lines = [header, "-" * len(header)]
    for row in rows:
        accs = [row["accuracy"].get(s) for s in splits]
        lines.append(line(row["scheduler"], [
            f"{acc['mean']:.4f}±{acc['std']:.4f}" if acc else "-" for acc in accs
        ]))
    for b in _BASELINES:
        if b not in matrix["schedulers"]:
            continue
        header = line(f"vs {b}", [f"p {s}" for s in splits] + ["time_ratio_mean"])
        lines += ["", header, "-" * len(header)]
        for row in rows:
            vs = row.get(f"vs_{b}")
            cells = ["-"] * (len(splits) + 1) if vs is None else [
                *(f"{vs['p_values'][s]:.3g}" for s in splits),
                f"{vs['time_ratio']['mean']:.2f}",
            ]
            lines.append(line(row["scheduler"], cells))
    return "\n".join(lines)


# --- utilities ------------------------------------------------------------------


def cmd_synth(config: dict, out_dir: Path) -> list[Path]:
    if "synth" not in config:
        raise ValidationError("synth command needs a 'synth' section in the config")
    snapshot_config(config, out_dir)
    corpora = resolve_corpora(config)
    data_dir = out_dir / "data"
    written = []
    for split, corpus in corpora.items():
        path = data_dir / f"{split}.jsonl"
        save_jsonl(corpus, path, include_features=True)
        written.append(path)
    save_label_map(corpora["train"], data_dir / "label_map.json")
    written.append(data_dir / "label_map.json")
    return written


def _read_td_stats(path: Path) -> dynamics.TDStats:
    if not path.exists():
        raise ValidationError(f"dynamics stats not found: {path} (run the teacher first)")
    return dynamics.read_td_stats(path)


def cmd_datamap(out_dir: Path, stats_path: Path | None = None) -> tuple[Path, Path]:
    stats = _read_td_stats(stats_path or _teacher_artifact(out_dir, "dynamics"))
    return analysis.datamap_export(stats, out_dir)


def cmd_correlate(config: dict, out_dir: Path) -> analysis.CorrelationMatrix:
    """Spearman matrix between every available difficulty metric: the three
    dynamics statistics, the heuristics and cross-review votes when present
    in the run directory. A heuristic teacher's scores file is read when the
    run directory holds one (its config snapshot is this config); otherwise
    the heuristic is computed, and only then is the train split loaded."""
    snapshot_config(config, out_dir)
    stats = _read_td_stats(_teacher_artifact(out_dir, "dynamics"))
    metrics = {name: difficulty.from_td(stats, name) for name in difficulty.TD_METRICS}
    train_corpus = None
    for name in HEURISTICS:
        path = _teacher_artifact(out_dir, name)
        if path.exists():
            metrics[name] = difficulty.read_scores(path, stats.ids)
            continue
        if train_corpus is None:
            train_corpus = resolve_corpora(config, splits=("train",))["train"]
        metrics[name] = _heuristic_scores(config, train_corpus, name)
    cr_path = _teacher_artifact(out_dir, "cross-review")
    if cr_path.exists():
        metrics["cross_review"] = difficulty.read_scores(cr_path)
    matrix = analysis.correlation_matrix(
        {name: dict(zip(m.ids, m.scores.tolist())) for name, m in metrics.items()})
    analysis.write_correlations(matrix, out_dir / "correlations.json")
    return matrix


# --- entry point -----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(message)


def _positive_int(text: str) -> int:
    """The argparse type of a count flag: parsing fails, naming the flag,
    before a command writes anything."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="currikit",
                     description="curriculum training pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, needs_config=True, needs_out=True):
        p = sub.add_parser(name, help=help_text)
        if needs_config:
            p.add_argument("--config", required=True, help="experiment config JSON")
        if needs_out:
            p.add_argument("--out", required=True, help="run directory")
        return p

    add("synth", "generate synthetic corpora as JSONL files")

    p = add("teacher", "stage 1: score the training data")
    p.add_argument("--metric", default="dynamics", choices=TEACHER_METRICS)
    p.add_argument("--teacher-epochs", type=_positive_int, default=None,
                   help="train the scoring model for fewer epochs")

    p = add("student", "stage 2: train under a scheduler and evaluate")
    p.add_argument("--scheduler", required=True, choices=SCHEDULERS)
    p.add_argument("--scores", default=None,
                   help="scores file (default: resolved from the run directory)")

    p = add("sweep", "teacher once, then every scheduler, then comparisons")
    p.add_argument("--schedulers", required=True,
                   help="comma-separated scheduler list")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="ignored: the sweep trains its cells in lockstep on one thread")
    p.add_argument("--rounds", type=_positive_int, default=10000,
                   help="ignored: the p-values are exact, not sampled")

    p = add("compare", "significance & time-ratio report for two runs",
            needs_config=False, needs_out=False)
    p.add_argument("--a", required=True, help="student run directory A")
    p.add_argument("--b", required=True, help="student run directory B")
    p.add_argument("--out", default=None, help="output file prefix")

    p = add("datamap", "export the confidence/variability scatter",
            needs_config=False)
    p.add_argument("--stats", default=None, help="dynamics stats file")

    add("correlate", "Spearman matrix between difficulty metrics")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "synth":
            cmd_synth(load_config(args.config), Path(args.out))
        elif args.command == "teacher":
            cmd_teacher(load_config(args.config), Path(args.out),
                        metric=args.metric, teacher_epochs=args.teacher_epochs)
        elif args.command == "student":
            cmd_student(load_config(args.config), Path(args.out), args.scheduler,
                        scores_path=Path(args.scores) if args.scores else None)
        elif args.command == "sweep":
            schedulers = [s.strip() for s in args.schedulers.split(",") if s.strip()]
            cmd_sweep(load_config(args.config), Path(args.out), schedulers)
        elif args.command == "compare":
            cmd_compare(Path(args.a), Path(args.b),
                        out_prefix=Path(args.out) if args.out else None)
        elif args.command == "datamap":
            cmd_datamap(Path(args.out),
                        stats_path=Path(args.stats) if args.stats else None)
        elif args.command == "correlate":
            cmd_correlate(load_config(args.config), Path(args.out))
    except (ValidationError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
