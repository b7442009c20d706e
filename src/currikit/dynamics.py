"""Training-dynamics statistics.

Converts per-epoch probes into the three per-example statistics used as
difficulty measures: confidence (mean gold-label probability), correctness
(number of epochs classified correctly) and variability (population
standard deviation of the gold-label probability).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import read_columns, write_columns
from .trainer import Probes


@dataclass
class TDStats:
    """The three statistics as columns: entry i belongs to example ``ids[i]``."""

    ids: list[str]
    confidence: np.ndarray   # float64
    correctness: np.ndarray  # int64
    variability: np.ndarray  # float64


def confidence(probs: list[float]) -> float:
    """Mean gold-label probability across epochs."""
    if not probs:
        raise ValueError("empty trace")
    return sum(probs) / len(probs)


def correctness(corrects: list[bool]) -> int:
    """Number of epochs the example was classified correctly."""
    if not corrects:
        raise ValueError("empty trace")
    return sum(1 for c in corrects if c)


def variability(probs: list[float]) -> float:
    """Population standard deviation (divide by E) of the gold-label
    probability across epochs. Exactly 0 for a constant trace."""
    if not probs:
        raise ValueError("empty trace")
    if all(p == probs[0] for p in probs):
        return 0.0
    mu = confidence(probs)
    return math.sqrt(sum((p - mu) ** 2 for p in probs) / len(probs))


def compute_all(probes: Probes) -> TDStats:
    """The statistics of every example (probe column), in probe id order.
    Each is the per-example Python function above: ``(p - mu) ** 2`` calls
    libm ``pow``, whose bits no numpy operation reproduces."""
    if probes.gold_prob.shape[0] == 0:
        raise ValueError("no probes given")
    probs = probes.gold_prob.T.tolist()
    return TDStats(
        ids=list(probes.ids),
        confidence=np.array([confidence(p) for p in probs], dtype=np.float64),
        correctness=np.array([correctness(c) for c in probes.correct.T.tolist()],
                             dtype=np.int64),
        variability=np.array([variability(p) for p in probs], dtype=np.float64),
    )


_TD_SCHEMA = {"example_id": str, "confidence": float, "correctness": int,
              "variability": float}
# The population std of values in [0, 1] is at most 0.5.
_TD_BOUNDS = {"confidence": (0.0, 1.0), "correctness": (0, math.inf),
              "variability": (0.0, 0.5)}


def write_td_stats(stats: TDStats, path: str | Path) -> None:
    """JSONL {example_id, confidence, correctness, variability}; the Stage-1
    to Stage-2 hand-off artifact."""
    write_columns(path, {"example_id": stats.ids, "confidence": stats.confidence,
                         "correctness": stats.correctness,
                         "variability": stats.variability})


def read_td_stats(path: str | Path, ids: list[str] | None = None) -> TDStats:
    """Inverse of write_td_stats, for exactly ``ids`` in that order when
    given; rejects a repeated or missing id, a non-finite confidence or
    variability, and a value outside ``_TD_BOUNDS``."""
    ids, columns = read_columns(path, _TD_SCHEMA, ids, bounds=_TD_BOUNDS)
    return TDStats(ids, **columns)
