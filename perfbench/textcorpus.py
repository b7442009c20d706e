"""Seeded hashed-text corpus for the ``text-pipeline`` workload.

Words come from a Zipfian vocabulary of made-up word types. Each class
prefers its own set of topic words, a share of records carries a ``text_b``
segment, and the OOD split draws its background words from a shifted rank
order. Records have no ``features`` field, so currikit tokenizes and hashes
them on load. The same seed always gives the same bytes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

LABELS = ("neg", "neu", "pos")
_SYLLABLES = [c + v for c in "bdfghklmnprstvz" for v in "aeiou"]
VOCAB_SIZE = 4000
ZIPF_EXPONENT = 1.1
TOPIC_WORDS = 150        # per class
TOPIC_SHARE = 0.3        # chance that a token is one of its class's topic words
TEXT_B_SHARE = 0.4
LABEL_NOISE = 0.05       # train split only
OOD_RANK_SHIFT = 1000


def _vocabulary(rng: np.random.Generator, size: int) -> list[str]:
    # Every word has three syllables, so the bytes to hash per token (and
    # with them the loader's cost) do not depend on the seed.
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < size:
        word = "".join(_SYLLABLES[int(i)] for i in rng.integers(0, len(_SYLLABLES), 3))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _zipf(size: int, exponent: float) -> np.ndarray:
    p = 1.0 / np.arange(1, size + 1, dtype=np.float64) ** exponent
    return p / p.sum()


def generate(seed: int, train_size: int = 2000,
             eval_size: int = 500) -> dict[str, list[dict]]:
    """Records per split: train, validation, test_id and test_ood (the last
    three with ``eval_size`` records each)."""
    rng = np.random.default_rng(seed)
    vocab = _vocabulary(rng, VOCAB_SIZE)
    background = _zipf(VOCAB_SIZE, ZIPF_EXPONENT)
    # OOD background: the same Zipf curve over a rank order rolled by
    # OOD_RANK_SHIFT, so the frequent head is made of different words.
    shifted = np.roll(background, OOD_RANK_SHIFT)
    topics = [rng.choice(np.arange(50, VOCAB_SIZE), TOPIC_WORDS, replace=False)
              for _ in LABELS]
    topic_p = _zipf(TOPIC_WORDS, 1.0)

    def segment(label: int, bg: np.ndarray, lo: int, hi: int) -> str:
        n = int(rng.integers(lo, hi))
        from_topic = rng.random(n) < TOPIC_SHARE
        words = rng.choice(VOCAB_SIZE, size=n, p=bg)
        words[from_topic] = rng.choice(topics[label], size=int(from_topic.sum()), p=topic_p)
        return " ".join(vocab[int(w)] for w in words)

    def split(prefix: str, n: int, bg: np.ndarray, noise: float) -> list[dict]:
        records = []
        for i in range(n):
            label = int(rng.integers(len(LABELS)))
            rec = {"id": f"{prefix}-{i:06d}", "text_a": segment(label, bg, 8, 30)}
            if rng.random() < TEXT_B_SHARE:
                rec["text_b"] = segment(label, bg, 4, 15)
            if rng.random() < noise:
                label = (label + int(rng.integers(1, len(LABELS)))) % len(LABELS)
            rec["label"] = LABELS[label]
            records.append(rec)
        return records

    return {
        "train": split("train", train_size, background, LABEL_NOISE),
        "validation": split("val", eval_size, background, 0.0),
        "test_id": split("testid", eval_size, background, 0.0),
        "test_ood": split("testood", eval_size, shifted, 0.0),
    }


def write(seed: int, out_dir: Path, train_size: int = 2000,
          eval_size: int = 500) -> dict[str, Path]:
    """Write one JSONL file per split under ``out_dir``; returns their paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, records in generate(seed, train_size, eval_size).items():
        path = out_dir / f"{name}.jsonl"
        with path.open("w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(rec) + "\n")
        paths[name] = path
    return paths
