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

from .artifacts import read_jsonl, write_jsonl
from .trainer import Probes


@dataclass
class DynamicsTrace:
    example_id: str
    probs: list[float]
    corrects: list[bool]


@dataclass
class TDStats:
    example_id: str
    confidence: float
    correctness: int
    variability: float


def confidence(trace: DynamicsTrace) -> float:
    """Mean gold-label probability across epochs."""
    if not trace.probs:
        raise ValueError(f"empty trace for {trace.example_id!r}")
    return sum(trace.probs) / len(trace.probs)


def correctness(trace: DynamicsTrace) -> int:
    """Number of epochs the example was classified correctly."""
    if not trace.corrects:
        raise ValueError(f"empty trace for {trace.example_id!r}")
    return sum(1 for c in trace.corrects if c)


def variability(trace: DynamicsTrace) -> float:
    """Population standard deviation (divide by E) of the gold-label
    probability across epochs. Exactly 0 for a constant trace."""
    if not trace.probs:
        raise ValueError(f"empty trace for {trace.example_id!r}")
    if all(p == trace.probs[0] for p in trace.probs):
        return 0.0
    mu = confidence(trace)
    return math.sqrt(sum((p - mu) ** 2 for p in trace.probs) / len(trace.probs))


def stats_for(trace: DynamicsTrace) -> TDStats:
    return TDStats(
        example_id=trace.example_id,
        confidence=confidence(trace),
        correctness=correctness(trace),
        variability=variability(trace),
    )


def compute_all(probes: Probes) -> dict[str, TDStats]:
    """One TDStats per example (probe column), in probe id order."""
    if probes.gold_prob.shape[0] == 0:
        raise ValueError("no probes given")
    return {
        eid: stats_for(DynamicsTrace(example_id=eid, probs=probs, corrects=corrects))
        for eid, probs, corrects in zip(
            probes.ids, probes.gold_prob.T.tolist(), probes.correct.T.tolist(),
            strict=True,
        )
    }


_TD_SCHEMA = {"example_id": str, "confidence": float, "correctness": int,
              "variability": float}


def write_td_stats(stats: dict[str, TDStats], path: str | Path) -> None:
    """JSONL {example_id, confidence, correctness, variability}; the Stage-1
    to Stage-2 hand-off artifact."""
    write_jsonl(path, (
        {"example_id": s.example_id, "confidence": s.confidence,
         "correctness": s.correctness, "variability": s.variability}
        for s in stats.values()
    ))


def read_td_stats(path: str | Path) -> dict[str, TDStats]:
    """Inverse of write_td_stats; rejects a non-finite confidence or variability."""
    out: dict[str, TDStats] = {}
    for rec in read_jsonl(path, _TD_SCHEMA):
        s = TDStats(rec["example_id"], rec["confidence"], rec["correctness"],
                    rec["variability"])
        if not all(map(math.isfinite, (s.confidence, s.variability))):
            raise ValueError(f"{path}: non-finite value for example {s.example_id!r}")
        out[s.example_id] = s
    return out
