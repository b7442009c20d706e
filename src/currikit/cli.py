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
import concurrent.futures
import json
import math
import sys
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

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


class ValidationError(Exception):
    """Bad config or bad command usage; maps to exit code 1."""


# --- config -----------------------------------------------------------------


def load_config(path: str | Path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"config file not found: {path}")
    with path.open("r", encoding="utf-8") as fh:
        try:
            config = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config is not valid JSON: {exc}") from None
    validate_config(config)
    return config


def validate_config(config: dict) -> None:
    if not isinstance(config, dict):
        raise ValidationError("config must be a JSON object")
    has_data = "data" in config
    has_synth = "synth" in config
    if has_data == has_synth:
        raise ValidationError("config needs exactly one of 'data' or 'synth'")
    if has_data:
        data = config["data"]
        for fld in ("train", "validation"):
            if fld not in data:
                raise ValidationError(f"data.{fld} is required")
    else:
        try:
            SynthSpec(**config["synth"])
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"synth: {exc}") from None
    try:
        _train_config(config, seed=0)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"train: {exc}") from None
    seeds = config.get("seeds", [1, 2, 3])
    if not isinstance(seeds, list) or not seeds or not all(
        isinstance(s, int) for s in seeds
    ):
        raise ValidationError("seeds must be a nonempty list of integers")
    if len(set(seeds)) != len(seeds):
        raise ValidationError("seeds must be distinct")
    hidden = config.get("model", {}).get("hidden_size", 0)
    if not isinstance(hidden, int) or hidden < 0:
        raise ValidationError("model.hidden_size must be a nonnegative integer")
    curr = config.get("curriculum", {})
    c0 = curr.get("c0", 0.01)
    if not isinstance(c0, (int, float)):
        raise ValidationError("curriculum.c0 must be a number")
    try:
        curricula.CompetencePlan(ordering=[], ids=[], c0=c0,
                                 duration=int(curr.get("duration") or 1),
                                 form=curr.get("competence_form", "sqrt"))
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"curriculum: {exc}") from None
    if curr.get("ngram_order", 2) not in (1, 2):
        raise ValidationError("curriculum.ngram_order must be 1 or 2")
    add_k = curr.get("add_k", 1.0)
    if not isinstance(add_k, (int, float)) or add_k <= 0:
        raise ValidationError("curriculum.add_k must be a number > 0")
    try:
        difficulty.CrossReviewConfig(
            num_subsets=int(config.get("cross_review", {}).get("num_subsets", 10)))
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"cross_review: {exc}") from None


def _train_config(config: dict, seed: int, epochs_override: int | None = None):
    section = dict(config.get("train", {}))
    if epochs_override is not None:
        section["epochs"] = epochs_override
    section["seed"] = seed
    allowed = {"epochs", "batch_size", "learning_rate", "weight_decay",
               "grad_clip", "eval_per_epoch", "seed"}
    unknown = set(section) - allowed
    if unknown:
        raise ValueError(f"unknown train field(s): {sorted(unknown)}")
    return trainer.TrainConfig(**section)


def _seeds(config: dict) -> list[int]:
    return list(config.get("seeds", [1, 2, 3]))


def _teacher_seed(config: dict) -> int:
    return int(config.get("teacher_seed", _seeds(config)[0]))


def _hidden_size(config: dict) -> int:
    return int(config.get("model", {}).get("hidden_size", 0))


def resolve_corpora(config: dict) -> dict[str, Corpus]:
    """Load or (deterministically) regenerate every configured split.

    The label map is fixed by the train split and all other splits must
    conform to it.
    """
    if "synth" in config:
        train, val, test_id, test_ood = generate_synthetic(SynthSpec(**config["synth"]))
        return {"train": train, "validation": val,
                "test_id": test_id, "test_ood": test_ood}
    data = config["data"]
    dim = int(data.get("hash_dim", DEFAULT_HASH_DIM))
    label_map = load_label_map(data["label_map"]) if data.get("label_map") else None
    train = load_jsonl(data["train"], "train", dim=dim, label_map=label_map)
    fixed = {name: i for i, name in enumerate(train.label_names)}
    corpora = {"train": train}
    for split in EVAL_SPLITS:
        if data.get(split):
            corpora[split] = load_jsonl(data[split], split, dim=dim, label_map=fixed)
    return corpora


def snapshot_config(config: dict, out_dir: Path) -> None:
    snap = out_dir / "config.json"
    text = json.dumps(config, indent=2, sort_keys=True) + "\n"
    if not snap.exists():
        artifacts.write_text(snap, text)
    elif snap.read_text(encoding="utf-8") != text:  # an identical one is not rewritten
        raise ValidationError(
            f"{snap} already holds a different config; use a fresh --out directory"
        )


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
        corpora = resolve_corpora(config)
    out_path = _teacher_artifact(out_dir, metric)
    teacher_dir = out_path.parent
    train_corpus = corpora["train"]

    if metric == "dynamics":
        cfg = _train_config(config, seed=_teacher_seed(config),
                            epochs_override=teacher_epochs)
        sampler = curricula.RandomSampler(np.arange(train_corpus.size), cfg.batch_size,
                                          seed=cfg.seed)
        params, runlog, probes = trainer.train(
            train_corpus, corpora["validation"], cfg, sampler,
            hidden_size=_hidden_size(config), collect_probes=True,
        )
        trainer.write_runlog(runlog, teacher_dir / "runlog.jsonl")
        trainer.write_probes(probes, teacher_dir / "probes.jsonl")
        # td_stats.jsonl marks the teacher done for a resumed sweep: write it last.
        artifacts.write_json(teacher_dir / "meta.json",
                             {"metric": "dynamics", "epochs": cfg.epochs,
                              "seed": cfg.seed, "hidden_size": _hidden_size(config)})
        dynamics.write_td_stats(dynamics.compute_all(probes), out_path)
        return out_path

    if metric == "cross-review":
        cr = config.get("cross_review", {})
        cr_cfg = difficulty.CrossReviewConfig(
            num_subsets=int(cr.get("num_subsets", 10)),
            seed=int(cr.get("seed", _teacher_seed(config))),
            train=_train_config(config, seed=_teacher_seed(config),
                                epochs_override=teacher_epochs),
        )
        scores = difficulty.cross_review(train_corpus, cr_cfg)
        difficulty.write_scores(scores, out_path,
                                extra_header={"num_subsets": cr_cfg.num_subsets})
        return out_path

    if metric == "length":
        scores = difficulty.length_metric(train_corpus)
    elif metric == "rarity":
        scores = difficulty.rarity_metric(train_corpus)
    else:
        curr = config.get("curriculum", {})
        scores = difficulty.perplexity_metric(
            train_corpus,
            order=int(curr.get("ngram_order", 2)),
            add_k=float(curr.get("add_k", 1.0)),
        )
    difficulty.write_scores(scores, out_path)
    return out_path


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


def _read_scores(path: Path, scheduler: str,
                 ids: list[str]) -> difficulty.DifficultyScores:
    """The scores ``scheduler`` orders by, for exactly ``ids`` in that order,
    from a dynamics-stats file or a scores file."""
    spec = _SCHEDULER_TABLE[scheduler]
    first = _first_record(path)
    if "confidence" in first:
        if spec.teacher != "dynamics":
            raise ValidationError(
                f"scheduler {scheduler!r} needs a {spec.teacher!r} scores file, "
                "not dynamics stats"
            )
        scores = difficulty.from_td(dynamics.read_td_stats(path), spec.score,
                                    expected_ids=ids)
    elif "metric_name" not in first:
        raise ValidationError(f"{path}: neither a dynamics-stats nor a scores file")
    else:
        scores = difficulty.read_scores(path)
        if spec.teacher != "dynamics" and scores.metric_name != spec.score:
            print(
                f"warning: scheduler {scheduler!r} usually reads "
                f"{spec.score!r} scores, got {scores.metric_name!r}",
                file=sys.stderr,
            )
        missing = [eid for eid in ids if eid not in scores.scores]
        if missing:
            raise ValidationError(f"scores file lacks example {missing[0]!r}")
        if spec.weighted:
            raise ValidationError(
                f"scheduler {scheduler} needs variability from dynamics stats; "
                f"got a plain {scores.metric_name!r} scores file"
            )
        scores = difficulty.DifficultyScores(
            metric_name=scores.metric_name,
            scores={eid: scores.scores[eid] for eid in ids},
            higher_is_easier=scores.higher_is_easier,
        )
    return scores


def _annealing_epochs(path: Path, out_dir: Path,
                      scores: difficulty.DifficultyScores) -> int:
    """E of the annealing carryover fraction 1/(E+1): cross-review votes lie
    in [0, num_subsets - 1], correctness in [0, teacher epochs]."""
    header = _first_record(path)
    if "num_subsets" in header:
        return int(header["num_subsets"]) - 1
    meta = out_dir / "teacher" / "meta.json"
    if meta.exists():
        return int(artifacts.read_json(meta)["epochs"])
    return max(1, int(max(scores.scores.values())))


def _competence_duration(config: dict, seed: int, total_steps: int) -> int:
    curr = config.get("curriculum", {})
    if curr.get("duration"):
        return int(curr["duration"])
    if curr.get("baseline_dir"):
        summary_path = Path(curr["baseline_dir"]) / "summary.json"
        if not summary_path.exists():
            raise ValidationError(f"curriculum.baseline_dir: {summary_path} not found")
        best_steps = artifacts.read_json(summary_path).get("best_steps", {})
        if str(seed) not in best_steps:
            raise ValidationError(
                f"curriculum.baseline_dir has no run for seed {seed}"
            )
        return max(1, round(0.9 * int(best_steps[str(seed)])))
    return max(1, round(0.9 * total_steps))


def _build_sampler(scheduler: str, scores: difficulty.DifficultyScores | None,
                   annealing_epochs: int | None, config: dict, seed: int,
                   train_corpus: Corpus, batch_size: int, steps_per_epoch: int,
                   total_steps: int):
    """Sampler plus its auditable plan for one student run."""
    spec = _SCHEDULER_TABLE[scheduler]
    if spec.family is None:
        rows = np.arange(train_corpus.size)
        return curricula.RandomSampler(rows, batch_size, seed=seed), None
    if spec.family == "annealing":
        plan = curricula.build_annealing_plan(
            scores, annealing_epochs,
            variability=scores.variability, variability_weighted=spec.weighted,
        )
        return curricula.AnnealingSampler(plan, batch_size, seed=seed), plan

    curr = config.get("curriculum", {})
    plan = curricula.build_competence_plan(
        scores,
        c0=float(curr.get("c0", 0.01)),
        duration=_competence_duration(config, seed, total_steps),
        variability=scores.variability,
        variability_weighted=spec.weighted,
        form=str(curr.get("competence_form", "sqrt")),
    )
    sampler = curricula.CompetenceSampler(plan, batch_size, steps_per_epoch, seed=seed)
    return sampler, plan


def _run_student_seed(config: dict, corpora: dict[str, Corpus], scheduler: str,
                      scores: difficulty.DifficultyScores | None,
                      annealing_epochs: int | None, seed: int, seed_dir: Path) -> dict:
    train_corpus = corpora["train"]
    cfg = _train_config(config, seed=seed)
    steps_per_epoch = math.ceil(train_corpus.size / cfg.batch_size)
    total_steps = cfg.epochs * steps_per_epoch
    sampler, plan = _build_sampler(
        scheduler, scores, annealing_epochs, config, seed, train_corpus,
        cfg.batch_size, steps_per_epoch, total_steps,
    )
    params, runlog, _ = trainer.train(
        train_corpus, corpora["validation"], cfg, sampler,
        hidden_size=_hidden_size(config), collect_probes=False,
    )
    trainer.write_runlog(runlog, seed_dir / "runlog.jsonl")
    summary = curricula.plan_summary(plan)
    summary.update({"scheduler_name": scheduler, "seed": seed})
    artifacts.write_json(seed_dir / "plan.json", summary)

    metrics = {"scheduler": scheduler, "seed": seed,
               "best_step": runlog.best_step, "total_steps": total_steps,
               "accuracy": {}}
    for split in EVAL_SPLITS:
        if split not in corpora:
            continue
        corpus = corpora[split]
        pred = trainer.predict(params, corpus)
        labels = corpus.labels()
        metrics["accuracy"][split] = float((pred == labels).mean())
        artifacts.write_jsonl(seed_dir / f"outcomes_{split}.jsonl", (
            {"example_id": eid, "correct": bool(p == t)}
            for eid, p, t in zip(corpus.ids(), pred, labels)
        ))
    artifacts.write_json(seed_dir / "metrics.json", metrics)
    return metrics


def cmd_student(config: dict, out_dir: Path, scheduler: str,
                scores_path: Path | None = None,
                corpora: dict[str, Corpus] | None = None) -> dict:
    """Train one student per seed under ``scheduler`` and summarize.

    All schedulers consume exactly epochs * ceil(N / batch_size) optimizer
    steps, so time budgets match across a sweep. ``corpora`` lets callers
    (sweep) share already-resolved splits.
    """
    if scheduler not in SCHEDULERS:
        raise ValidationError(f"unknown scheduler {scheduler!r}; choose from {SCHEDULERS}")
    snapshot_config(config, out_dir)
    if corpora is None:
        corpora = resolve_corpora(config)

    spec = _SCHEDULER_TABLE[scheduler]
    scores = annealing_epochs = None
    if spec.teacher is None:
        if scores_path is not None:
            print(f"warning: scheduler {scheduler!r} ignores the scores file",
                  file=sys.stderr)
    else:
        path = scores_path or _teacher_artifact(out_dir, spec.teacher)
        scores = _read_scores(path, scheduler, corpora["train"].ids())
        if spec.family == "annealing":
            annealing_epochs = _annealing_epochs(path, out_dir, scores)

    sched_dir = out_dir / "students" / scheduler
    per_seed = {}
    for seed in _seeds(config):
        per_seed[seed] = _run_student_seed(
            config, corpora, scheduler, scores, annealing_epochs, seed,
            sched_dir / f"seed_{seed}",
        )
    summary = _summarize_student(scheduler, per_seed)
    artifacts.write_json(sched_dir / "summary.json", summary)
    return summary


def _summarize_student(scheduler: str, per_seed: dict[int, dict]) -> dict:
    seeds = sorted(per_seed)
    splits = sorted(per_seed[seeds[0]]["accuracy"])
    accuracy = {}
    for split in splits:
        vals = [per_seed[s]["accuracy"][split] for s in seeds]
        mean = sum(vals) / len(vals)
        var = sum((v - mean) ** 2 for v in vals) / len(vals)
        accuracy[split] = {
            "mean": mean,
            "std": math.sqrt(var),
            "per_seed": {str(s): per_seed[s]["accuracy"][split] for s in seeds},
        }
    return {
        "scheduler": scheduler,
        "seeds": seeds,
        "splits": splits,
        "accuracy": accuracy,
        "best_steps": {str(s): per_seed[s]["best_step"] for s in seeds},
        "total_steps": {str(s): per_seed[s]["total_steps"] for s in seeds},
    }


# --- compare ------------------------------------------------------------------


def _load_student_dir(path: Path) -> dict:
    summary_path = path / "summary.json"
    if not summary_path.exists():
        raise ValidationError(f"{path} is not a completed student run directory")
    return artifacts.read_json(summary_path)


def _pooled_outcomes(path: Path, seeds: list[int], split: str) -> dict:
    pooled = {}
    for seed in seeds:
        outcomes = path / f"seed_{seed}" / f"outcomes_{split}.jsonl"
        records = artifacts.read_jsonl(outcomes, required=("example_id", "correct"))
        for lineno, rec in enumerate(records, start=1):
            if not isinstance(rec["correct"], bool):
                raise ValueError(f"{outcomes}:{lineno}: field 'correct' must be a boolean")
            pooled[(rec["example_id"], seed)] = rec["correct"]
    return pooled


def cmd_compare(
    dir_a: Path, dir_b: Path, rounds: int = 10000, seed: int = 0,
    out_prefix: Path | None = None,
    pooled_outcomes: Callable[[Path, list[int], str], dict] | None = None,
) -> dict:
    """Per split: accuracies, AR-test p-value over pooled (example, seed)
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
        pooled_a = pooled_outcomes(dir_a, seeds, split)
        pooled_b = pooled_outcomes(dir_b, seeds, split)
        p = analysis.approx_randomization(pooled_a, pooled_b, rounds=rounds, seed=seed)
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


def _compare_table(report: dict) -> str:
    header = f"{'split':<14} {'acc_a':>15} {'acc_b':>15} {'p':>8} " \
             f"{'ratio_mean':>11} {'ratio_min':>10}"
    lines = [
        f"A = {report['a']['scheduler']} ({report['a']['path']})",
        f"B = {report['b']['scheduler']} ({report['b']['path']})",
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
            f"{b['mean']:.4f}±{b['std']:.4f} {row['p_value']:>8.4f} "
            f"{rm:>11.2f} {rmin:>10.2f}"
        )
    return "\n".join(lines)


# --- sweep ---------------------------------------------------------------------


def cmd_sweep(config: dict, out_dir: Path, schedulers: list[str],
              workers: int = 1, rounds: int = 10000) -> dict:
    """Teacher once, every scheduler per seed, then compare all against the
    random and cr_anneal baselines (when listed). Completed cells found in
    the run directory are skipped, and when every cell is complete no
    corpus is built."""
    for s in schedulers:
        if s not in SCHEDULERS:
            raise ValidationError(f"unknown scheduler {s!r} in sweep list")
    snapshot_config(config, out_dir)
    teachers = [m for m in TEACHER_METRICS
                if any(_SCHEDULER_TABLE[s].teacher == m for s in schedulers)
                and not _teacher_artifact(out_dir, m).exists()]
    todo = [s for s in schedulers
            if not (out_dir / "students" / s / "summary.json").exists()]
    if teachers or todo:
        corpora = resolve_corpora(config)
        for metric in teachers:
            cmd_teacher(config, out_dir, metric=metric, corpora=corpora)
        if workers > 1 and len(todo) > 1:
            with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
                futures = {
                    pool.submit(cmd_student, config, out_dir, s, None, corpora): s
                    for s in todo
                }
                for fut in concurrent.futures.as_completed(futures):
                    fut.result()
        else:
            for s in todo:
                cmd_student(config, out_dir, s, corpora=corpora)

    baselines = [b for b in _BASELINES if b in schedulers]
    outcomes: dict[Path, dict[str, dict]] = {}  # student dir -> split -> pooled

    def pooled_once(path: Path, seeds: list[int], split: str) -> dict:
        by_split = outcomes.setdefault(path, {})
        if split not in by_split:
            by_split[split] = _pooled_outcomes(path, seeds, split)
        return by_split[split]

    compare_dir = out_dir / "compare"
    rows = []
    for s in schedulers:
        student_dir = out_dir / "students" / s
        summary = _load_student_dir(student_dir)
        row = {"scheduler": s, "accuracy": summary["accuracy"]}
        for b in baselines:
            if b == s:
                continue
            report = cmd_compare(
                student_dir, out_dir / "students" / b,
                rounds=rounds,
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
    artifacts.write_json(out_dir / "sweep_summary.json", matrix)
    artifacts.write_text(out_dir / "sweep_summary.txt", _sweep_table(matrix) + "\n")
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
                *(f"{vs['p_values'][s]:.4f}" for s in splits),
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


def _read_td_stats(path: Path) -> dict[str, dynamics.TDStats]:
    if not path.exists():
        raise ValidationError(f"dynamics stats not found: {path} (run the teacher first)")
    return dynamics.read_td_stats(path)


def cmd_datamap(out_dir: Path, stats_path: Path | None = None) -> tuple[Path, Path]:
    stats = _read_td_stats(stats_path or _teacher_artifact(out_dir, "dynamics"))
    return analysis.datamap_export(stats, out_dir)


def cmd_correlate(config: dict, out_dir: Path) -> analysis.CorrelationMatrix:
    """Spearman matrix between every available difficulty metric: the three
    dynamics statistics, the heuristics (computed on the fly) and
    cross-review votes when present in the run directory."""
    snapshot_config(config, out_dir)
    stats = _read_td_stats(_teacher_artifact(out_dir, "dynamics"))
    corpora = resolve_corpora(config)
    train_corpus = corpora["train"]
    curr = config.get("curriculum", {})
    metric_scores = {
        "confidence": {eid: s.confidence for eid, s in stats.items()},
        "correctness": {eid: float(s.correctness) for eid, s in stats.items()},
        "variability": {eid: s.variability for eid, s in stats.items()},
        "length": difficulty.length_metric(train_corpus).scores,
        "rarity": difficulty.rarity_metric(train_corpus).scores,
        "ppl": difficulty.perplexity_metric(
            train_corpus,
            order=int(curr.get("ngram_order", 2)),
            add_k=float(curr.get("add_k", 1.0)),
        ).scores,
    }
    cr_path = _teacher_artifact(out_dir, "cross-review")
    if cr_path.exists():
        metric_scores["cross_review"] = difficulty.read_scores(cr_path).scores
    matrix = analysis.correlation_matrix(metric_scores)
    analysis.write_correlations(matrix, out_dir / "correlations.json")
    return matrix


# --- entry point -----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(message)


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
    p.add_argument("--teacher-epochs", type=int, default=None,
                   help="train the scoring model for fewer epochs")

    p = add("student", "stage 2: train under a scheduler and evaluate")
    p.add_argument("--scheduler", required=True, choices=SCHEDULERS)
    p.add_argument("--scores", default=None,
                   help="scores file (default: resolved from the run directory)")

    p = add("sweep", "teacher once, then every scheduler, then comparisons")
    p.add_argument("--schedulers", required=True,
                   help="comma-separated scheduler list")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--rounds", type=int, default=10000)

    p = add("compare", "significance & time-ratio report for two runs",
            needs_config=False, needs_out=False)
    p.add_argument("--a", required=True, help="student run directory A")
    p.add_argument("--b", required=True, help="student run directory B")
    p.add_argument("--rounds", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
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
            cmd_sweep(load_config(args.config), Path(args.out), schedulers,
                      workers=args.workers, rounds=args.rounds)
        elif args.command == "compare":
            cmd_compare(Path(args.a), Path(args.b), rounds=args.rounds,
                        seed=args.seed,
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
