"""Difficulty scoring.

Every source of example difficulty produces the same DifficultyScores
shape: training-dynamics statistics, Cross-Review fold teachers, and the
task-agnostic heuristics (length, word rarity, n-gram perplexity).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import chain
from pathlib import Path

import numpy as np

from .artifacts import convert, read_jsonl, write_jsonl
from .corpus import Corpus
from .dynamics import TDStats
from .trainer import TrainConfig, predict, train

TD_METRICS = ("confidence", "correctness", "variability")


@dataclass
class DifficultyScores:
    """Per-example difficulty keyed by example id. The key order numbers the
    rows that curriculum plans and samplers index; the student stage reads
    scores for exactly the train corpus's ids in corpus order, so there row
    i is train example i."""

    metric_name: str
    scores: dict[str, float]
    higher_is_easier: bool
    variability: dict[str, float] | None = None  # only scores from dynamics stats


@dataclass
class CrossReviewConfig:
    num_subsets: int = 10
    seed: int = 0
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if self.num_subsets < 2:
            raise ValueError("num_subsets must be >= 2")


def from_td(
    stats: dict[str, TDStats],
    which: str,
    expected_ids: list[str] | None = None,
) -> DifficultyScores:
    """One of the three dynamics statistics as a difficulty metric, with
    every example's variability alongside.

    Confidence and correctness order easiest-first by high value;
    variability is the auxiliary uncertainty signal (higher = harder).
    With ``expected_ids`` the result holds exactly those ids, in that order.
    """
    if which not in TD_METRICS:
        raise ValueError(f"unknown dynamics metric {which!r}; pick one of {TD_METRICS}")
    if expected_ids is not None:
        for eid in expected_ids:
            if eid not in stats:
                raise ValueError(f"no dynamics statistics for example {eid!r}")
        stats = {eid: stats[eid] for eid in expected_ids}
    return DifficultyScores(
        metric_name=which,
        scores={eid: float(getattr(s, which)) for eid, s in stats.items()},
        higher_is_easier=which in ("confidence", "correctness"),
        variability={eid: s.variability for eid, s in stats.items()},
    )


def partition_subsets(n: int, num_subsets: int, seed: int) -> list[np.ndarray]:
    """Seeded random partition of rows 0..n-1 into near-equal subsets; sizes
    differ by at most one, remainder going to the lowest-indexed subsets."""
    return np.array_split(np.random.default_rng(seed).permutation(n), num_subsets)


def cross_review(corpus: Corpus, config: CrossReviewConfig) -> DifficultyScores:
    """Fold-teacher difficulty: train one teacher per subset on that subset
    only, then score every example by the number of correct classifications
    among the teachers from the N-1 *other* subsets. The subsets are
    ``partition_subsets(corpus.size, config.num_subsets, config.seed)``.
    """
    if config.num_subsets > corpus.size:
        raise ValueError("num_subsets exceeds the train set size")
    folds = partition_subsets(corpus.size, config.num_subsets, config.seed)
    min_fold = min(len(f) for f in folds)
    if min_fold < config.train.batch_size:
        raise ValueError(
            f"subset of size {min_fold} is smaller than one batch "
            f"({config.train.batch_size}); use a smaller num_subsets"
        )

    from .curricula import RandomSampler  # runtime import avoids a cycle

    labels = corpus.labels()
    votes = np.zeros(corpus.size, dtype=np.int64)
    for k, fold in enumerate(folds):
        cfg = replace(config.train, seed=config.train.seed + k)
        sampler = RandomSampler(np.sort(fold), cfg.batch_size, seed=cfg.seed)
        params, _, _ = train(corpus, None, cfg, sampler, collect_probes=False)
        outside_fold = np.ones(corpus.size, dtype=bool)
        outside_fold[fold] = False
        votes += (predict(params, corpus) == labels) & outside_fold

    scores = {eid: float(v) for eid, v in zip(corpus.ids(), votes)}
    return DifficultyScores(metric_name="cross_review", scores=scores,
                            higher_is_easier=True)


# --- task-agnostic heuristics ----------------------------------------------


def length_metric(corpus: Corpus) -> DifficultyScores:
    """Token count of the entire input (both segments); longer = harder."""
    scores = {eid: float(len(tokens_a) + len(tokens_b))
              for eid, (tokens_a, tokens_b) in zip(corpus.ids(), corpus.tokens)}
    return DifficultyScores(metric_name="length", scores=scores, higher_is_easier=False)


def _train_token_counts(train_corpus: Corpus) -> tuple[Counter, int]:
    counts = Counter(tok for pair in train_corpus.tokens for seg in pair for tok in seg)
    return counts, sum(counts.values())


def rarity_metric(corpus: Corpus, train_corpus: Corpus | None = None) -> DifficultyScores:
    """Negated log-frequency sum over the input's tokens; rarer words push
    the score up. Frequencies come from the train split; a token unseen in
    training falls back to 1/(total + V + 1)."""
    ref = train_corpus if train_corpus is not None else corpus
    counts, total = _train_token_counts(ref)
    vocab = len(counts)
    unseen = 1.0 / (total + vocab + 1)

    def score(tokens_a: list[str], tokens_b: list[str]) -> float:
        s = 0.0
        for tok in chain(tokens_a, tokens_b):
            f = counts[tok] / total if counts[tok] else unseen
            s -= math.log(f)
        return s

    return DifficultyScores(
        metric_name="rarity",
        scores={eid: score(*pair) for eid, pair in zip(corpus.ids(), corpus.tokens)},
        higher_is_easier=False,
    )


_BOS = "<s>"


class NGramModel:
    """Add-k smoothed unigram/bigram LM over train tokens, per segment."""

    def __init__(self, train_corpus: Corpus, order: int = 2, add_k: float = 1.0):
        if order not in (1, 2):
            raise ValueError(f"n-gram order must be 1 or 2, got {order}")
        if add_k <= 0:
            raise ValueError("add_k must be > 0")
        self.order = order
        self.add_k = add_k
        self.unigram = Counter()
        self.bigram = Counter()
        self.context = Counter()
        for segment in chain.from_iterable(train_corpus.tokens):
            if not segment:
                continue
            self.unigram.update(segment)
            prev = _BOS
            for tok in segment:
                self.bigram[(prev, tok)] += 1
                self.context[prev] += 1
                prev = tok
        self.total = sum(self.unigram.values())
        self.vocab_size = len(self.unigram)

    def log_prob(self, token: str, prev: str) -> float:
        v = self.vocab_size
        if self.order == 1:
            num = self.unigram[token] + self.add_k
            den = self.total + self.add_k * v
        else:
            num = self.bigram[(prev, token)] + self.add_k
            den = self.context[prev] + self.add_k * v
        return math.log(num / den)

    def segment_perplexity(self, segment: list[str]) -> float:
        """exp(mean negative log-probability); empty segments contribute 0."""
        if not segment:
            return 0.0
        nll = 0.0
        prev = _BOS
        for tok in segment:
            nll -= self.log_prob(tok, prev)
            prev = tok
        return math.exp(nll / len(segment))


def perplexity_metric(
    corpus: Corpus,
    order: int = 2,
    add_k: float = 1.0,
    train_corpus: Corpus | None = None,
) -> DifficultyScores:
    """Sum of per-segment n-gram perplexities; high perplexity = harder."""
    ref = train_corpus if train_corpus is not None else corpus
    lm = NGramModel(ref, order=order, add_k=add_k)
    scores = {}
    for eid, (seg_a, seg_b) in zip(corpus.ids(), corpus.tokens):
        score = lm.segment_perplexity(seg_a)
        if seg_b:
            score += lm.segment_perplexity(seg_b)
        scores[eid] = score
    return DifficultyScores(metric_name="ppl", scores=scores, higher_is_easier=False)


# --- on-disk format ---------------------------------------------------------


def write_scores(
    scores: DifficultyScores, path: str | Path, extra_header: dict | None = None
) -> None:
    """Header record {metric_name, higher_is_easier, ...} followed by one
    {example_id, score} record per example."""
    header = {"metric_name": scores.metric_name,
              "higher_is_easier": scores.higher_is_easier}
    if extra_header:
        header.update(extra_header)
    write_jsonl(path, chain([header], (
        {"example_id": eid, "score": score} for eid, score in scores.scores.items()
    )))


def read_scores_header(path: str | Path) -> dict:
    header = next(read_jsonl(path), None)
    if not isinstance(header, dict) or "metric_name" not in header:
        raise ValueError(f"{path}: not a difficulty-scores file (missing header)")
    if "higher_is_easier" not in header:
        raise ValueError(f"{path}:1: missing field 'higher_is_easier'")
    return header


def read_scores(path: str | Path) -> DifficultyScores:
    """Inverse of write_scores; rejects a non-finite score."""
    header = read_scores_header(path)
    scores: dict[str, float] = {}
    records = read_jsonl(path, required=("example_id", "score"), skip=1)
    for lineno, rec in enumerate(records, start=2):
        eid, score = rec["example_id"], convert(rec, "score", float, f"{path}:{lineno}")
        if not math.isfinite(score):
            raise ValueError(f"{path}: non-finite value {score} for example {eid!r}")
        scores[eid] = score
    return DifficultyScores(
        metric_name=str(header["metric_name"]),
        scores=scores,
        higher_is_easier=bool(header["higher_is_easier"]),
    )
