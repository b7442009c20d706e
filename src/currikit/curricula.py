"""Curriculum schedulers behind the trainer's sampler contract.

Two families plus the random baseline:

* annealing: discrete buckets of equal integer difficulty score, trained
  easiest-first for one epoch each, carrying a fresh 1/(E+1) sample of every
  earlier bucket along; optionally ordering each stage by variability.
* competence: a monotone pacing function admits a growing easiest-first
  prefix of the train set; batches are drawn from the admitted pool with
  replacement, uniformly or proportionally to variability.

Every scheduler falls back to plain seeded-shuffle epochs over the full
train set once its curriculum phase ends.

Samplers serve int64 row indices, numbered as DifficultyScores documents;
plans keep example ids only for their ordering digest.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .difficulty import DifficultyScores

VARIABILITY_EPS = 1e-6


def competence(t: float, c0: float, duration: float) -> float:
    """Square-root pacing: the fraction of easiest data admitted at step t.

    c(0) = c0 and c(t >= duration) = 1, both exact; strictly increasing in
    between.
    """
    if t <= 0:
        return c0
    if t >= duration:
        return 1.0
    return min(1.0, math.sqrt(t * (1.0 - c0 * c0) / duration + c0 * c0))


def linear_competence(t: float, c0: float, duration: float) -> float:
    """Linear pacing alternative with the same endpoints."""
    if t <= 0:
        return c0
    if t >= duration:
        return 1.0
    return min(1.0, c0 + t * (1.0 - c0) / duration)


_COMPETENCE_FORMS = {"sqrt": competence, "linear": linear_competence}


def cumulative(p: np.ndarray) -> np.ndarray:
    """The normalized running sum of the probabilities ``p``, built as
    ``Generator.choice`` builds it."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def weighted_draw(rng: np.random.Generator, cdf: np.ndarray, size: int) -> np.ndarray:
    """``size`` indices drawn with replacement from ``cdf = cumulative(p)``:
    the draw ``rng.choice(len(p), size, replace=True, p=p)`` makes, index for
    index and leaving the same stream, without the checks ``choice`` runs on
    ``p`` at every call (the caller's to run once)."""
    return cdf.searchsorted(rng.random(size), side="right")


def _weighted_order(rng: np.random.Generator, rows: np.ndarray,
                    weights: np.ndarray) -> np.ndarray:
    # Weighted shuffle (Efraimidis-Spirakis): sorting by log(u)/w descending
    # is equivalent to sequential weighted draws without replacement.
    u = rng.random(len(rows))
    keys = np.log(u) / weights
    return rows[np.argsort(-keys, kind="stable")]


def _id_rank(ids: list[str]) -> np.ndarray:
    """Rank of each row's id in Python string order (a numpy string array
    would drop trailing NUL characters and could order ids differently)."""
    rank = np.empty(len(ids), dtype=np.int64)
    rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return rank


def _shuffle_epochs(rows: np.ndarray, batch_size: int, rng: np.random.Generator):
    """Batches of a fresh seeded shuffle per epoch, in consecutive slices."""
    while True:
        epoch = rows[rng.permutation(len(rows))]
        for start in range(0, len(epoch), batch_size):
            yield epoch[start:start + batch_size]


class RandomSampler:
    """Baseline: shuffle-epochs over the given train rows."""

    def __init__(self, rows: np.ndarray, batch_size: int, seed: int = 0):
        rows = np.asarray(rows, dtype=np.int64)
        if not len(rows):
            raise ValueError("no examples to sample from")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.batch_size = batch_size
        self.phase = "post-curriculum"
        self._n = len(rows)
        self._batches = _shuffle_epochs(rows, batch_size, np.random.default_rng(seed))

    def epoch_length(self) -> int:
        return math.ceil(self._n / self.batch_size)

    def next_batch(self, step: int) -> np.ndarray:
        return next(self._batches)


@dataclass
class AnnealingPlan:
    buckets: list[np.ndarray]  # rows, easiest-first; each bucket sorted by id
    num_epochs: int            # carryover fraction is 1/(num_epochs + 1)
    ids: list[str]             # example id of each row
    variability_weighted: bool = False
    weights: np.ndarray | None = None  # variability per row

    @property
    def num_buckets(self) -> int:
        return len(self.buckets)


def build_annealing_plan(
    scores: "DifficultyScores",
    num_epochs: int,
    variability_weighted: bool = False,
) -> AnnealingPlan:
    """Group examples by identical integer score into easiest-first buckets.

    Only integer-valued metrics (correctness, cross-review votes) can be
    bucketed this way; continuous metrics belong to the competence
    scheduler.
    """
    ids, values = scores.ids, scores.scores
    bad = np.flatnonzero(np.mod(values, 1.0) != 0.0)
    if len(bad):
        raise ValueError(
            f"score {values[bad[0]]} for {ids[bad[0]]!r} is not an integer; use the "
            "competence scheduler for continuous metrics"
        )
    if variability_weighted and scores.variability is None:
        raise ValueError("variability weights required for weighted annealing")
    keys = -values if scores.higher_is_easier else values  # easiest first
    order = np.lexsort((_id_rank(ids), keys))  # by key, then by id
    return AnnealingPlan(
        buckets=np.split(order, np.flatnonzero(np.diff(keys[order])) + 1),
        num_epochs=num_epochs,
        ids=ids,
        variability_weighted=variability_weighted,
        weights=scores.variability,
    )


def annealing_stage_pool_sizes(plan: AnnealingPlan) -> list[int]:
    """Deterministic pool size per stage:
    |d_k| + sum over j<k of floor(|d_j| / (E+1))."""
    denom = plan.num_epochs + 1
    sizes = []
    carry = 0
    for k, bucket in enumerate(plan.buckets):
        sizes.append(len(bucket) + carry)
        carry += len(bucket) // denom
    return sizes


class AnnealingSampler:
    """Stage k serves bucket d_k plus a fresh uniform carryover sample of
    floor(|d_j|/(E+1)) rows from each earlier bucket, shuffled once and
    consumed without replacement (weighted by variability when asked);
    after the last stage, plain shuffle-epochs over everything.
    """

    def __init__(self, plan: AnnealingPlan, batch_size: int, seed: int = 0):
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        for k, size in enumerate(annealing_stage_pool_sizes(plan)):
            if batch_size > size:
                raise ValueError(
                    f"batch_size {batch_size} exceeds the stage-{k + 1} pool "
                    f"size {size}"
                )
        self.plan = plan
        self.batch_size = batch_size
        self.rng = np.random.default_rng(seed)
        self.phase = "curriculum"
        self.stage_log: list[np.ndarray] = []  # pool actually built per stage
        rows = np.concatenate(plan.buckets)
        self._n = len(rows)
        self._batches = self._schedule(rows)

    def epoch_length(self) -> int:
        return math.ceil(self._n / self.batch_size)

    def _schedule(self, rows: np.ndarray):
        denom = self.plan.num_epochs + 1
        for k, bucket in enumerate(self.plan.buckets):
            parts = [bucket]
            for earlier in self.plan.buckets[:k]:
                take = len(earlier) // denom
                if take > 0:
                    picks = self.rng.choice(len(earlier), size=take, replace=False)
                    parts.append(earlier[np.sort(picks)])
            pool = np.concatenate(parts)
            if self.plan.variability_weighted:
                weights = self.plan.weights[pool] + VARIABILITY_EPS
                order = _weighted_order(self.rng, pool, weights)
            else:
                order = pool[self.rng.permutation(len(pool))]
            self.stage_log.append(pool)
            for start in range(0, len(order), self.batch_size):
                yield order[start:start + self.batch_size]
        self.phase = "post-curriculum"
        yield from _shuffle_epochs(rows, self.batch_size, self.rng)

    def next_batch(self, step: int) -> np.ndarray:
        return next(self._batches)


@dataclass
class CompetencePlan:
    # ordering is rows, easiest-first; ties broken by ascending variability, then id
    ordering: np.ndarray
    ids: list[str]  # example id of each row
    c0: float = 0.01
    duration: int = 1
    variability_weighted: bool = False
    weights: np.ndarray | None = None  # variability per row
    form: str = "sqrt"

    def __post_init__(self):
        if not 0.0 < self.c0 <= 1.0:
            raise ValueError("c0 must be in (0, 1]")
        if self.duration <= 0:
            raise ValueError("duration must be a positive step count")
        if self.form not in _COMPETENCE_FORMS:
            raise ValueError(f"unknown competence form {self.form!r}")


def build_competence_plan(
    scores: "DifficultyScores",
    c0: float,
    duration: int,
    variability_weighted: bool = False,
    form: str = "sqrt",
) -> CompetencePlan:
    weights = scores.variability
    if variability_weighted and weights is None:
        raise ValueError("variability weights required for weighted competence")
    keys = -scores.scores if scores.higher_is_easier else scores.scores  # easiest first
    tie = np.zeros(len(keys)) if weights is None else weights
    return CompetencePlan(
        ordering=np.lexsort((_id_rank(scores.ids), tie, keys)),  # key, tie, then id
        ids=scores.ids,
        c0=c0,
        duration=duration,
        variability_weighted=variability_weighted,
        weights=weights,
        form=form,
    )


class CompetenceSampler:
    """At step t the first ceil(c(t) * N) rows of the easiest-first ordering
    are available; batches are drawn from them with replacement (uniformly,
    or proportionally to variability + eps). Past the duration, uniform
    shuffle-epochs over the full set."""

    def __init__(self, plan: CompetencePlan, batch_size: int, seed: int = 0):
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.plan = plan
        self.batch_size = batch_size
        self.rng = np.random.default_rng(seed)
        self.phase = "curriculum"
        self._n = len(plan.ordering)
        self._pacing = _COMPETENCE_FORMS[plan.form]
        self._weights = None
        if plan.variability_weighted:
            self._weights = plan.weights[plan.ordering] + VARIABILITY_EPS
            with np.errstate(over="ignore"):  # a sum past the float range is inf
                total = self._weights.sum()
            if not (np.all(self._weights > 0) and np.isfinite(total)):
                raise ValueError("variability weights must be finite and > 0")
        self._cdf = np.empty(0)  # over the rows admitted when it was built
        self._post = _shuffle_epochs(plan.ordering, batch_size, self.rng)

    def epoch_length(self) -> int:
        return math.ceil(self._n / self.batch_size)

    def available_count(self, step: int) -> int:
        c = self._pacing(step, self.plan.c0, self.plan.duration)
        return min(self._n, max(1, math.ceil(c * self._n)))

    def next_batch(self, step: int) -> np.ndarray:
        if step > self.plan.duration:
            self.phase = "post-curriculum"
            return next(self._post)
        m = self.available_count(step)
        if self._weights is not None:
            if len(self._cdf) != m:
                self._cdf = cumulative(self._weights[:m] / self._weights[:m].sum())
            picks = weighted_draw(self.rng, self._cdf, self.batch_size)
        else:
            picks = self.rng.integers(0, m, size=self.batch_size)
        return self.plan.ordering[picks]


def plan_summary(plan) -> dict:
    """Audit-friendly JSON view of a plan (bucket sizes / pacing knobs and
    an ordering digest)."""
    if plan is None:
        return {"scheduler": "random"}
    if isinstance(plan, AnnealingPlan):
        return {
            "scheduler": "annealing",
            "bucket_sizes": [len(b) for b in plan.buckets],
            "carryover_denominator": plan.num_epochs + 1,
            "variability_weighted": plan.variability_weighted,
            "ordering_digest": _digest(plan.ids, np.concatenate(plan.buckets)),
        }
    if isinstance(plan, CompetencePlan):
        return {
            "scheduler": "competence",
            "size": len(plan.ordering),
            "c0": plan.c0,
            "duration": plan.duration,
            "form": plan.form,
            "variability_weighted": plan.variability_weighted,
            "ordering_digest": _digest(plan.ids, plan.ordering),
        }
    raise TypeError(f"not a plan: {type(plan).__name__}")


def _digest(ids: list[str], rows: np.ndarray) -> str:
    """sha256 of the UTF-8 ids of ``rows`` in order, each ended by a newline."""
    return hashlib.sha256("".join([ids[r] + "\n" for r in rows.tolist()]).encode()).hexdigest()
