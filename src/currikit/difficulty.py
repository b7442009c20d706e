"""Difficulty scoring.

Every source of example difficulty produces the same DifficultyScores
shape: training-dynamics statistics, Cross-Review fold teachers, and the
task-agnostic heuristics (length, word rarity, n-gram perplexity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import groupby, repeat
from operator import truediv
from pathlib import Path

import numpy as np

from .artifacts import check, read_columns, read_jsonl, write_columns
from .corpus import Corpus
from .dynamics import TDStats
from .trainer import TrainConfig, predict, train, train_seeds  # train: read by perfbench's tests

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

    votes = np.zeros(corpus.size, dtype=np.int64)
    # One lockstep group per epoch length: at most two, as fold sizes differ by one row at most.
    for _, group in groupby(range(len(folds)),
                            lambda k: math.ceil(len(folds[k]) / config.train.batch_size)):
        ks = list(group)
        cfgs = [replace(config.train, seed=config.train.seed + k) for k in ks]
        samplers = [RandomSampler(np.sort(folds[k]), c.batch_size, seed=c.seed)
                    for k, c in zip(ks, cfgs)]
        for stack in train_seeds(corpus, None, cfgs, samplers, collect_probes=False):
            correct = predict([params for params, _, _ in stack], corpus) == corpus.labels()
            for row in correct:  # a fold's teacher does not vote on its own rows
                row[folds[ks.pop(0)]] = False
            votes += correct.sum(axis=0)

    return DifficultyScores(metric_name="cross_review", ids=corpus.ids(),
                            scores=votes.astype(np.float64), higher_is_easier=True)


# --- task-agnostic heuristics ----------------------------------------------


def length_metric(corpus: Corpus) -> DifficultyScores:
    """Token count of the entire input (both segments); longer = harder."""
    scores = np.diff(corpus.token_offsets[::2]).astype(np.float64)
    return DifficultyScores(metric_name="length", ids=corpus.ids(), scores=scores,
                            higher_is_easier=False)


def _ids_in(train: Corpus, corpus: Corpus) -> tuple[np.ndarray, int]:
    """``corpus``'s token ids numbered as ``train``'s, a token ``train``
    lacks taking a distinct id after its vocabulary, and the number of ids."""
    index = {tok: i for i, tok in enumerate(train.vocab)}
    remap = np.array([index.setdefault(tok, len(index)) for tok in corpus.vocab],
                     dtype=np.int64)
    return remap[corpus.token_ids], len(index)


def _ordered_nll(terms: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """0.0 minus the terms of each segment ``terms[offsets[k]:offsets[k + 1]]``,
    subtracted in token order as a per-token loop would: one vector operation
    per position, over the segments still running there (longest first, so
    they are a prefix), never ``np.sum``."""
    lengths = np.diff(offsets)
    order = np.argsort(-lengths, kind="stable")
    starts, lengths = offsets[:-1][order], lengths[order]
    nll = np.zeros(len(lengths))
    width = int(lengths[0]) if len(lengths) else 0
    for j, live in enumerate(np.searchsorted(-lengths, -np.arange(width))):
        nll[:live] -= terms[starts[:live] + j]
    out = np.empty_like(nll)
    out[order] = nll
    return out


def rarity_metric(corpus: Corpus, train_corpus: Corpus | None = None) -> DifficultyScores:
    """Negated log-frequency sum over the input's tokens; rarer words push
    the score up. Frequencies come from the train split; a token unseen in
    training falls back to 1/(total + V + 1), V the distinct train tokens."""
    train = corpus if train_corpus is None else train_corpus
    ids, size = _ids_in(train, corpus)
    counts = np.bincount(train.token_ids, minlength=size)
    seen = np.flatnonzero(counts)
    total = len(train.token_ids)
    log_freq = np.empty(size)
    log_freq[seen] = list(map(math.log, map(truediv, counts[seen].tolist(), repeat(total))))
    log_freq[counts == 0] = math.log(1.0 / (total + len(seen) + 1))
    return DifficultyScores(
        metric_name="rarity",
        ids=corpus.ids(),
        scores=_ordered_nll(log_freq[ids], corpus.token_offsets[::2]),
        higher_is_easier=False,
    )


def _ngram_keys(ids: np.ndarray, offsets: np.ndarray, order: int, size: int):
    """Each token's key: its id for order 1; for order 2, ``prev * (size + 1)
    + id``, where prev is the segment's previous token or, at its start, the
    id ``size`` (BOS) that no token has. Also the prev of each token."""
    prev = np.empty_like(ids, dtype=np.int64)
    prev[1:] = ids[:-1]
    prev[offsets[:-1][np.diff(offsets) > 0]] = size
    return (ids.astype(np.int64) if order == 1 else prev * (size + 1) + ids), prev


def perplexity_metric(
    corpus: Corpus,
    order: int = 2,
    add_k: float = 1.0,
    train_corpus: Corpus | None = None,
) -> DifficultyScores:
    """Sum of per-segment n-gram perplexities; high perplexity = harder.

    An add-k unigram or bigram LM over the train split's segments, V its
    distinct tokens: P(tok | prev) = (n(prev, tok) + k) / (n(prev) + k V).
    Each distinct key takes one ``math.log``; a segment's negative
    log-probabilities are summed in token order, and ``math.exp`` of their
    mean is its perplexity (0 for an empty segment)."""
    if order not in (1, 2):
        raise ValueError(f"n-gram order must be 1 or 2, got {order}")
    if add_k <= 0:
        raise ValueError("add_k must be > 0")
    train = corpus if train_corpus is None else train_corpus
    ids, size = _ids_in(train, corpus)
    train_keys, train_prev = _ngram_keys(train.token_ids, train.token_offsets, order, size)
    keys = (train_keys if corpus is train else np.concatenate(
        [train_keys, _ngram_keys(ids, corpus.token_offsets, order, size)[0]]))
    distinct, inverse = np.unique(keys, return_inverse=True)  # train keys come first
    v = np.count_nonzero(np.bincount(train.token_ids, minlength=size))
    num = np.bincount(inverse[:len(train_keys)], minlength=len(distinct)) + add_k
    den = (len(train.token_ids) + add_k * v if order == 1
           else np.bincount(train_prev, minlength=size + 1)[distinct // (size + 1)]
           + add_k * v)
    log_probs = np.array(list(map(math.log, map(
        truediv, num.tolist(), np.broadcast_to(den, num.shape).tolist()))))
    nll = _ordered_nll(log_probs[inverse[len(keys) - len(ids):]], corpus.token_offsets)
    lengths = np.diff(corpus.token_offsets)
    live = lengths > 0
    ppl = np.zeros(len(lengths))
    ppl[live] = list(map(math.exp, map(truediv, nll[live].tolist(), lengths[live].tolist())))
    return DifficultyScores(metric_name="ppl", ids=corpus.ids(),
                            scores=ppl[0::2] + ppl[1::2], higher_is_easier=False)


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
