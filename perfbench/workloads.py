"""The three workloads: inputs made from the seed, the timed commands, and
the output checks.

Every function here runs with the current directory set to a private work
directory, so the commands see the same relative paths in every run and the
artifacts (which record those paths) repeat byte for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from currikit import analysis, cli, corpus, curricula, difficulty, dynamics, trainer

import textcorpus
from catalog import MODULES
from spans import Tracer, totals

# Set-up is timed once in prepare() and SETUP_PER_REP times after every
# repetition, so its median spans the whole run rather than one moment of
# the host's speed.
SETUP_PER_REP = 3
RUN = Path("run")
CONFIG = "config.json"
SWEEP = ["sweep", "--config", CONFIG, "--out", str(RUN),
         "--schedulers", ",".join(cli.SCHEDULERS), "--workers", "1"]

PILOT_TRAIN = {"epochs": 6, "batch_size": 32, "learning_rate": 1.5, "eval_per_epoch": 10}
TEXT_TRAIN = {"epochs": 3, "batch_size": 32, "learning_rate": 1.0, "eval_per_epoch": 10}
TEXT_STUDENTS = ("random", "conf+var_comp")


def pilot_config(seed: int) -> dict:
    """The README quick-start config, with the workload seed as data seed."""
    return {
        "synth": {"num_classes": 3, "train_size": 2000, "val_size": 500,
                  "test_size": 500, "feature_dim": 32, "class_separation": 3.0,
                  "label_noise_fraction": 0.1, "ood_shift": 1.0, "seed": seed},
        "train": dict(PILOT_TRAIN),
        "seeds": [11, 12, 13],
        "cross_review": {"num_subsets": 5, "seed": 7},
    }


def text_config(paths: dict[str, Path]) -> dict:
    return {
        "data": {split: str(path) for split, path in paths.items()},
        "train": dict(TEXT_TRAIN),
        "seeds": [11],
        "teacher_seed": 11,
    }


def text_commands() -> list[tuple[str, list[str]]]:
    out = ["--config", CONFIG, "--out", str(RUN)]
    baseline, student = (RUN / "students" / s for s in TEXT_STUDENTS)
    return (
        [("teacher", ["teacher", *out])]
        + [("heuristic", ["teacher", *out, "--metric", m]) for m in cli.HEURISTICS]
        + [("student", ["student", *out, "--scheduler", s]) for s in TEXT_STUDENTS]
        + [("report", ["compare", "--a", str(student), "--b", str(baseline), "--out",
                       str(RUN / "compare" / f"{student.name}_vs_{baseline.name}")]),
           ("report", ["datamap", "--out", str(RUN)]),
           ("report", ["correlate", *out])]
    )


# --- bookkeeping ---------------------------------------------------------------


@dataclass
class Ledger:
    """Operations attempted (commands and output checks) and the failures."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{what}: {detail}" if detail else what)
        return ok


def file_stats(root: Path) -> dict[str, tuple[int, int]]:
    if not root.exists():
        return {}
    return {str(p.relative_to(root)): (p.stat().st_mtime_ns, p.stat().st_size)
            for p in sorted(root.rglob("*")) if p.is_file()}


def jsonl_digest(root: Path) -> str:
    """sha256 over the run directory's *.jsonl artifacts, names included."""
    h = hashlib.sha256()
    for p in sorted(root.rglob("*.jsonl")):
        h.update(str(p.relative_to(root)).encode())
        h.update(b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def run_command(argv: list[str], ledger: Ledger) -> float:
    """One currikit command in this process; returns its wall seconds."""
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    elapsed = time.perf_counter() - start
    ledger.check(f"`currikit {' '.join(argv)}` exits 0", rc == 0, f"exit code {rc}")
    return elapsed


# --- output checks ----------------------------------------------------------------


def check_outputs(ledger: Ledger, train_ids: set[str], epochs: int) -> None:
    summaries = [json.loads(p.read_text()) for p in sorted(RUN.glob("students/*/summary.json"))]
    budgets = {v for s in summaries for v in s["total_steps"].values()}
    ledger.check("total_steps equal across schedulers", len(budgets) == 1,
                 f"budgets {sorted(budgets)}")

    ids, bad = set(), []
    with (RUN / "teacher" / "td_stats.jsonl").open() as fh:
        for line in fh:
            rec = json.loads(line)
            ids.add(rec["example_id"])
            if not (0.0 <= rec["confidence"] <= 1.0 and 0 <= rec["correctness"] <= epochs):
                bad.append(rec["example_id"])
    ledger.check("td_stats covers every train id", ids == train_ids,
                 f"{len(ids ^ train_ids)} ids differ")
    ledger.check("td_stats confidence in [0, 1], correctness in [0, E]", not bad,
                 f"first bad id {bad[0] if bad else None}")

    p_values = []
    sweep = RUN / "sweep_summary.json"
    if sweep.exists():
        for row in json.loads(sweep.read_text())["rows"]:
            for key, rep in row.items():
                if key.startswith("vs_"):
                    p_values += rep["p_values"].values()
    for path in RUN.glob("compare/*.json"):
        p_values += [s["p_value"] for s in json.loads(path.read_text())["splits"].values()]
    ledger.check("p-values lie in (0, 1]", bool(p_values) and all(0 < p <= 1 for p in p_values),
                 f"{len(p_values)} values, min {min(p_values, default=None)}")


# --- tracing ------------------------------------------------------------------------


def _train_hook(args, kwargs, result):
    params = result[0]
    return {"trainer.param_bytes_per_step":
            sum(a.nbytes for a in params.weights + params.biases)}


def _ar_hook(args, kwargs, result):
    units = len(args[0])
    rounds = kwargs.get("rounds", args[2] if len(args) > 2 else 10000)
    return {"analysis.ar_units": units,
            "analysis.ar_temp_bytes": min(rounds, 2000) * units * 8}


COUNTER_MAXIMA = frozenset({"trainer.param_bytes_per_step", "analysis.ar_units",
                            "analysis.ar_temp_bytes"})


def layer_targets() -> list:
    """Every traced boundary, named <module>.<what>."""
    targets = []

    def add(name, owner, attrs, hook=None):
        targets.extend((name, owner, attr, hook) for attr in attrs)

    add("corpus.load_jsonl", corpus, ["load_jsonl"])
    add("corpus.generate_synthetic", corpus, ["generate_synthetic"])
    add("corpus.feature_matrix", corpus.Corpus, ["feature_matrix"])
    for sampler in (curricula.RandomSampler, curricula.AnnealingSampler,
                    curricula.CompetenceSampler):
        add("curricula.next_batch", sampler, ["next_batch"])
    add("curricula.plan_build", curricula, ["build_annealing_plan", "build_competence_plan"])
    add("trainer.train", trainer, ["train"], _train_hook)
    add("trainer.loss_and_grad", trainer, ["loss_and_grad"],
        lambda a, k, r: {"trainer.steps": 1})
    add("trainer.clip", trainer, ["clip_gradients"])
    add("trainer.evaluate", trainer, ["evaluate"])
    add("trainer.predict", trainer, ["predict"])
    add("trainer.write", trainer, ["write_runlog", "write_probes"])
    add("dynamics.compute_all", dynamics, ["compute_all"])
    add("dynamics.td_io", dynamics, ["write_td_stats", "read_td_stats"])
    add("difficulty.cross_review", difficulty, ["cross_review"])
    add("difficulty.heuristics", difficulty,
        ["length_metric", "rarity_metric", "perplexity_metric"])
    add("difficulty.read_scores", difficulty, ["read_scores"])
    add("analysis.ar", analysis, ["approx_randomization"], _ar_hook)
    add("analysis.reports", analysis,
        ["correlation_matrix", "write_correlations", "datamap_export"])
    add("cli.main", cli, ["main"])
    add("cli.resolve_corpora", cli, ["resolve_corpora"])
    add("cli.pooled_outcomes", cli, ["_pooled_outcomes"])
    for cmd in ("cmd_sweep", "cmd_teacher", "cmd_student", "cmd_compare",
                "cmd_datamap", "cmd_correlate"):
        add(f"cli.{cmd}", cli, [cmd])
    return targets


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (artifact and corpus
    counts are added by the caller)."""
    agg = totals(tracer.spans)

    def total(name):
        return agg[name]["total_s"] if name in agg else 0.0

    def calls(name):
        return agg[name]["calls"] if name in agg else 0

    def counter(name):
        return tracer.counters.get(name, 0)

    out = {
        "analysis.ar_s": total("analysis.ar"),
        "analysis.ar_calls": calls("analysis.ar"),
        "analysis.ar_units": counter("analysis.ar_units"),
        "analysis.ar_temp_bytes": counter("analysis.ar_temp_bytes"),
        "trainer.train_s": total("trainer.train"),
        "trainer.train_self_s": agg.get("trainer.train", {}).get("self_s", 0.0),
        "trainer.loss_and_grad_s": total("trainer.loss_and_grad"),
        "trainer.clip_s": total("trainer.clip"),
        "trainer.evaluate_s": total("trainer.evaluate"),
        "trainer.predict_s": total("trainer.predict"),
        "trainer.steps": counter("trainer.steps"),
        "trainer.param_bytes_per_step": counter("trainer.param_bytes_per_step"),
        "trainer.write_s": total("trainer.write"),
        "curricula.next_batch_s": total("curricula.next_batch"),
        "curricula.next_batch_calls": calls("curricula.next_batch"),
        "curricula.plan_build_s": total("curricula.plan_build"),
        "corpus.resolve_calls": calls("cli.resolve_corpora"),
        "corpus.load_jsonl_s": total("corpus.load_jsonl"),
        "corpus.generate_synthetic_s": total("corpus.generate_synthetic"),
        "corpus.feature_matrix_s": total("corpus.feature_matrix"),
        "dynamics.compute_all_s": total("dynamics.compute_all"),
        "dynamics.td_io_s": total("dynamics.td_io"),
        "difficulty.cross_review_s": total("difficulty.cross_review"),
        "difficulty.heuristics_s": total("difficulty.heuristics"),
        "difficulty.read_scores_s": total("difficulty.read_scores"),
        "cli.pooled_outcomes_s": total("cli.pooled_outcomes"),
        "cli.compare_calls": calls("cli.cmd_compare"),
        "cli.cmd_teacher_s": total("cli.cmd_teacher"),
        "cli.cmd_student_s": total("cli.cmd_student"),
    }
    for module in MODULES:
        out[f"{module}.self_s"] = sum(row["self_s"] for name, row in agg.items()
                                      if name.startswith(module + "."))
    return out


# --- workloads -------------------------------------------------------------------------


@dataclass
class Workload:
    name: str
    config: dict
    commands: list[tuple[str, list[str]]]
    train_ids: set[str] = field(default_factory=set)
    epochs: int = 0
    reference_digest: str | None = None  # artifacts every repetition must reproduce
    setup_s: list[float] = field(default_factory=list)
    train_nnz: int = 0
    train_active_cols: int = 0

    @property
    def resume(self) -> bool:
        return self.name == "pilot-resume"


def prepare(name: str, seed: int, ledger: Ledger) -> Workload:
    """Untimed: write the inputs, build the resumed run directory if needed,
    and time corpus set-up once."""
    if name in ("pilot-sweep", "pilot-resume"):
        wl = Workload(name, pilot_config(seed), [("sweep", SWEEP)])
    elif name == "text-pipeline":
        wl = Workload(name, text_config(textcorpus.write(seed, Path("data"))),
                      text_commands())
    else:
        raise ValueError(f"unknown workload {name!r}")
    config = wl.config
    Path(CONFIG).write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    wl.epochs = config["train"]["epochs"]

    if wl.resume:
        # A separate process, so this one's peak RSS covers only the workload.
        # One AR round is enough: every repetition redoes the compares.
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-m", "currikit", *SWEEP, "--rounds", "1"],
                              env=env, stdout=subprocess.DEVNULL, timeout=170)
        if ledger.check("set-up sweep exits 0", done.returncode == 0,
                        f"exit code {done.returncode}"):
            wl.reference_digest = jsonl_digest(RUN)

    train = time_setup(wl)["train"]
    wl.train_ids = set(train.ids())
    matrix = train.feature_matrix()
    wl.train_nnz = int(matrix.nnz)
    wl.train_active_cols = int(np.unique(matrix.indices).size)
    return wl


def time_setup(wl: Workload) -> dict:
    """One timed corpus set-up: resolve_corpora plus feature_matrix on every
    split. Appends to wl.setup_s and returns the corpora."""
    start = time.perf_counter()
    corpora = cli.resolve_corpora(wl.config)
    for c in corpora.values():
        c.feature_matrix()
    wl.setup_s.append(time.perf_counter() - start)
    return corpora


def repetition(wl: Workload, ledger: Ledger) -> dict:
    """Run the workload's commands once and check their outputs."""
    if not wl.resume:
        shutil.rmtree(RUN, ignore_errors=True)
    before = file_stats(RUN)
    times = [(label, run_command(argv, ledger)) for label, argv in wl.commands]

    after = file_stats(RUN)
    written = [k for k, v in after.items() if before.get(k) != v]
    if wl.resume:
        kept = {k: v for k, v in before.items() if k.startswith(("teacher", "students"))}
        ledger.check("no cell retrains on resume",
                     all(after.get(k) == v for k, v in kept.items()),
                     "teacher or student artifacts were rewritten")
    try:
        check_outputs(ledger, wl.train_ids, wl.epochs)
    except (OSError, KeyError, ValueError) as exc:
        ledger.check("outputs are readable", False, repr(exc))
    digest = jsonl_digest(RUN)
    if wl.reference_digest is None:
        wl.reference_digest = digest
    else:
        ledger.check("*.jsonl artifact digest repeats", digest == wl.reference_digest,
                     f"{digest[:12]} != {wl.reference_digest[:12]}")

    return {
        "wall_s": sum(t for _, t in times),
        "report_s": sum(t for label, t in times if label == "report"),
        "teacher_s": sum(t for label, t in times if label == "teacher"),
        "student_s": [t for label, t in times if label == "student"],
        "artifact_files": len(written),
        "artifact_bytes": sum(after[k][1] for k in written),
        "digest": digest,
    }
