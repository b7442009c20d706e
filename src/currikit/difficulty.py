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

from .artifacts import check, read_columns, read_jsonl, write_columns
from .corpus import Corpus
from .dynamics import TDStats
from .trainer import TrainConfig, predict, train

TD_METRICS = ("confidence", "correctness", "variability")


@dataclass
class DifficultyScores:
    """Per-example difficulty as float64 arrays: entry i belongs to example
    ``ids[i]``, and curriculum plans and samplers index these rows. The
    student stage reads scores for exactly the train corpus's ids in corpus
    order, so there row i is train example i."""

    metric_name: str
    ids: list[str]
    scores: np.ndarray
    higher_is_easier: bool
    variability: np.ndarray | None = None  # only scores from dynamics stats


@dataclass
class CrossReviewConfig:
    num_subsets: int = 10
    seed: int = 0
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if self.num_subsets < 2:
            raise ValueError("num_subsets must be >= 2")


def from_td(stats: TDStats, which: str) -> DifficultyScores:
    """One of the three dynamics statistics as a difficulty metric, with
    every example's variability alongside.

    Confidence and correctness order easiest-first by high value;
    variability is the auxiliary uncertainty signal (higher = harder).
    """
    if which not in TD_METRICS:
        raise ValueError(f"unknown dynamics metric {which!r}; pick one of {TD_METRICS}")
    return DifficultyScores(
        metric_name=which,
        ids=stats.ids,
        scores=getattr(stats, which).astype(np.float64),
        higher_is_easier=which in ("confidence", "correctness"),
        variability=stats.variability,
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

    return DifficultyScores(metric_name="cross_review", ids=corpus.ids(),
                            scores=votes.astype(np.float64), higher_is_easier=True)


# --- task-agnostic heuristics ----------------------------------------------


def length_metric(corpus: Corpus) -> DifficultyScores:
    """Token count of the entire input (both segments); longer = harder."""
    scores = np.array([len(a) + len(b) for a, b in corpus.tokens], dtype=np.float64)
    return DifficultyScores(metric_name="length", ids=corpus.ids(), scores=scores,
                            higher_is_easier=False)


def _train_token_counts(train_corpus: Corpus) -> tuple[Counter, int]:
    counts = Counter(tok for pair in train_corpus.tokens for seg in pair for tok in seg)
    return counts, sum(counts.values())


def rarity_metric(corpus: Corpus, train_corpus: Corpus | None = None) -> DifficultyScores:
    """Negated log-frequency sum over the input's tokens; rarer words push
    the score up. Frequencies come from the train split; a token unseen in
    training falls back to 1/(total + V + 1)."""
    ref = train_corpus if train_corpus is not None else corpus
    counts, total = _train_token_counts(ref)
    log_freq = {tok: math.log(count / total) for tok, count in counts.items()}
    log_unseen = math.log(1.0 / (total + len(counts) + 1))

    def score(tokens_a: list[str], tokens_b: list[str]) -> float:
        s = 0.0
        for tok in chain(tokens_a, tokens_b):
            s -= log_freq.get(tok, log_unseen)
        return s

    return DifficultyScores(
        metric_name="rarity",
        ids=corpus.ids(),
        scores=np.array([score(*pair) for pair in corpus.tokens], dtype=np.float64),
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
        segments = [seg for seg in chain.from_iterable(train_corpus.tokens) if seg]
        self.unigram = Counter(chain.from_iterable(segments))
        self.bigram = Counter(chain.from_iterable(zip(chain((_BOS,), seg), seg)
                                                  for seg in segments))
        self.context = Counter(chain.from_iterable(chain((_BOS,), seg[:-1])
                                                   for seg in segments))
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

    def log_probs(self) -> dict:
        """log_prob of every key the train segments hold, one math.log each:
        the token for order 1, (previous token, token) for order 2."""
        k, v = self.add_k, self.vocab_size
        if self.order == 1:
            den = self.total + k * v
            return {tok: math.log((n + k) / den) for tok, n in self.unigram.items()}
        return {key: math.log((n + k) / (self.context[key[0]] + k * v))
                for key, n in self.bigram.items()}

    def segment_perplexity(self, segment: list[str], log_probs: dict) -> float:
        """exp(mean negative log-probability), summed in token order; empty
        segments contribute 0. ``log_probs`` starts as ``self.log_probs()``
        and takes each other key's log_prob when first met."""
        if not segment:
            return 0.0
        keys = segment if self.order == 1 else zip(chain((_BOS,), segment), segment)
        nll = 0.0
        for key in keys:
            lp = log_probs.get(key)
            if lp is None:
                lp = log_probs[key] = (self.log_prob(key, _BOS) if self.order == 1
                                       else self.log_prob(key[1], key[0]))
            nll -= lp
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
    log_probs = lm.log_probs()
    scores = np.array([lm.segment_perplexity(seg_a, log_probs)
                       + lm.segment_perplexity(seg_b, log_probs)
                       for seg_a, seg_b in corpus.tokens], dtype=np.float64)
    return DifficultyScores(metric_name="ppl", ids=corpus.ids(), scores=scores,
                            higher_is_easier=False)


# --- on-disk format ---------------------------------------------------------

_HEADER_SCHEMA = {"metric_name": str, "higher_is_easier": bool}
_SCORE_SCHEMA = {"example_id": str, "score": float}


def write_scores(
    scores: DifficultyScores, path: str | Path, extra_header: dict | None = None
) -> None:
    """Header record {metric_name, higher_is_easier, ...} followed by one
    {example_id, score} record per example."""
    header = {"metric_name": scores.metric_name,
              "higher_is_easier": scores.higher_is_easier}
    if extra_header:
        header.update(extra_header)
    write_columns(path, {"example_id": scores.ids, "score": scores.scores}, header)


def read_scores_header(path: str | Path) -> dict:
    header = next(read_jsonl(path, _HEADER_SCHEMA), None)
    if header is None:
        raise ValueError(f"{path}: not a difficulty-scores file (missing header)")
    return header


def read_scores(path: str | Path, ids: list[str] | None = None,
                header: dict | None = None) -> DifficultyScores:
    """Inverse of write_scores, for exactly ``ids`` in that order when given;
    rejects a repeated or missing id and a non-finite score. ``header`` is
    the file's first record when the caller has read it."""
    header = (read_scores_header(path) if header is None
              else check(header, _HEADER_SCHEMA, path, 1))
    ids, columns = read_columns(path, _SCORE_SCHEMA, ids, skip=1)
    return DifficultyScores(
        metric_name=header["metric_name"],
        ids=ids,
        scores=columns["score"],
        higher_is_easier=header["higher_is_easier"],
    )
