"""Whole-run byte goldens: four command sequences, each run in a fresh
directory with relative paths, pinned as the sha256 of every file they
write (``run_goldens.json``).

The scenarios cover the README pilot sweep; a hidden-layer synthetic run
whose competence students take per-seed durations from a baseline
directory; the hashed-text quick start at the default 2^18 columns with two
seeds; and a 2^14 text run with weight decay, whose four-seed stack trains
on the compact rows of the columns it uses.

The digests hold only where ``np.exp``/``np.log`` round as where they were
computed (``test_trainer.EXP_LOG_PINNED``); elsewhere the tests skip, and CI
requires that they do not. A change that alters artifacts on purpose
rewrites the manifest, computed at its parent commit, with
``PYTHONPATH=src python tests/test_run_goldens.py`` run from the repository
root.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

from currikit import cli
from test_trainer import EXP_LOG_PINNED

MANIFEST = Path(__file__).with_name("run_goldens.json")

PILOT = {
    "synth": {"num_classes": 3, "train_size": 2000, "val_size": 500, "test_size": 500,
              "feature_dim": 32, "class_separation": 3.0, "label_noise_fraction": 0.1,
              "ood_shift": 1.0, "seed": 20240613},
    "train": {"epochs": 6, "batch_size": 32, "learning_rate": 1.5, "eval_per_epoch": 10},
    "seeds": [11, 12, 13],
    "cross_review": {"num_subsets": 5, "seed": 7},
}

HIDDEN = {
    "synth": {"num_classes": 3, "train_size": 300, "val_size": 90, "test_size": 90,
              "feature_dim": 16, "label_noise_fraction": 0.1, "seed": 5},
    "train": {"epochs": 4, "batch_size": 16, "learning_rate": 0.5, "eval_per_epoch": 5},
    "model": {"hidden_size": 4},
    "seeds": [1, 2, 3],
}

TEXT_SPLITS = {"train": 300, "validation": 80, "test_id": 80, "test_ood": 80}
LABELS = ("neg", "neu", "pos")
SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]


def text_config(hash_dim: int, seeds: list[int], **train) -> dict:
    return {
        "data": {split: f"text/{split}.jsonl" for split in TEXT_SPLITS} | {"hash_dim": hash_dim},
        "train": {"epochs": 3, "batch_size": 32, "learning_rate": 1.0,
                  "eval_per_epoch": 10, **train},
        "seeds": seeds,
        "cross_review": {"num_subsets": 3, "seed": 2},
    }


def write_text_corpus(root: Path) -> None:
    """Seeded made-up words: each label prefers 40 topic words, a share of
    records carries a ``text_b``, and test_ood shifts the background words."""
    rng = np.random.default_rng(2024)
    vocab = [a + b for a in SYLLABLES for b in SYLLABLES[:12]]
    root.mkdir()
    for split, n in TEXT_SPLITS.items():
        shift = 300 if split == "test_ood" else 0

        def words(label: int, lo: int, hi: int) -> str:
            picks = (rng.zipf(1.3, int(rng.integers(lo, hi))) + shift) % len(vocab)
            topic = rng.random(len(picks)) < 0.3
            picks[topic] = 500 + 40 * label + rng.integers(0, 40, int(topic.sum()))
            return " ".join(vocab[i] for i in picks)

        lines = []
        for i in range(n):
            label = int(rng.integers(len(LABELS)))
            record = {"id": f"{split}-{i:04d}", "text_a": words(label, 6, 20)}
            if rng.random() < 0.4:
                record["text_b"] = words(label, 3, 10)
            record["label"] = LABELS[label]
            lines.append(json.dumps(record) + "\n")
        (root / f"{split}.jsonl").write_text("".join(lines), encoding="utf-8")


def text_commands(config: str, out: str, students: tuple[str, ...]) -> list[list[str]]:
    given = ["--config", config, "--out", out]
    a, b = (f"{out}/students/{s}" for s in students[-1:] + students[:1])
    return (
        [["teacher", *given]]
        + [["teacher", *given, "--metric", m] for m in ("cross-review", *cli.HEURISTICS)]
        + [["student", *given, "--scheduler", s] for s in students]
        + [["compare", "--a", a, "--b", b, "--out", f"{out}/compare/last_vs_first"],
           ["datamap", "--out", out],
           ["correlate", *given]]
    )


def pilot_sweep() -> list[str]:
    Path("pilot.json").write_text(json.dumps(PILOT), encoding="utf-8")
    run(["sweep", "--config", "pilot.json", "--out", "pilot",
         "--schedulers", ",".join(cli.SCHEDULERS)])
    return ["pilot"]


def hidden_baseline() -> list[str]:
    Path("base.json").write_text(json.dumps(HIDDEN), encoding="utf-8")
    with_baseline = HIDDEN | {"curriculum": {"baseline_dir": "base/students/random"}}
    Path("hidden.json").write_text(json.dumps(with_baseline), encoding="utf-8")
    run(["student", "--config", "base.json", "--out", "base", "--scheduler", "random"])
    run(["teacher", "--config", "hidden.json", "--out", "hidden"])
    for scheduler in ("conf_comp", "conf+var_comp", "corr_anneal", "corr+var_anneal"):
        run(["student", "--config", "hidden.json", "--out", "hidden", "--scheduler", scheduler])
    return ["base", "hidden"]


def text_default_dim() -> list[str]:
    write_text_corpus(Path("text"))
    Path("text.json").write_text(json.dumps(text_config(2 ** 18, [11, 12])),
                                    encoding="utf-8")
    for argv in text_commands("text.json", "run", ("random", "conf+var_comp")):
        run(argv)
    return ["text", "run"]


def text_weight_decay() -> list[str]:
    write_text_corpus(Path("text"))
    config = text_config(2 ** 14, [1, 2, 3, 4], weight_decay=0.01)
    Path("decay.json").write_text(json.dumps(config), encoding="utf-8")
    for argv in text_commands("decay.json", "decay", ("random", "cr_anneal", "ppl")):
        run(argv)
    return ["decay"]


SCENARIOS = {f.__name__: f for f in (pilot_sweep, hidden_baseline, text_default_dim,
                                     text_weight_decay)}


def run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    assert rc == 0, f"`currikit {' '.join(argv)}` exited {rc}"


def manifest(root: Path, dirs: list[str]) -> dict[str, str]:
    """sha256 of every file under ``dirs``, keyed by its path from ``root``."""
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for d in dirs for path in sorted((root / d).rglob("*")) if path.is_file()}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_run_bytes(scenario, tmp_path, monkeypatch):
    if not EXP_LOG_PINNED:
        pytest.skip("np.exp/np.log round differently on this machine than where "
                    "the digests were computed")
    monkeypatch.chdir(tmp_path)
    dirs = SCENARIOS[scenario]()
    pinned = json.loads(MANIFEST.read_text(encoding="utf-8"))[scenario]
    got = manifest(tmp_path, dirs)
    assert sorted(got) == sorted(pinned), "the runs wrote other files"
    changed = [name for name in pinned if got[name] != pinned[name]]
    assert not changed, f"{len(changed)} of {len(pinned)} files changed, first {changed[:5]}"


if __name__ == "__main__":
    pinned = {}
    for name, scenario in SCENARIOS.items():
        with tempfile.TemporaryDirectory() as tmp:
            cwd = os.getcwd()
            os.chdir(tmp)
            try:
                pinned[name] = manifest(Path(tmp), scenario())
            finally:
                os.chdir(cwd)
    MANIFEST.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{MANIFEST}: {sum(map(len, pinned.values()))} files in {len(pinned)} scenarios")
