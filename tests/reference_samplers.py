"""The samplers as they were written before they became generators: an
epoch-shuffle queue and per-sampler state machines, kept verbatim as the
reference that tests/test_curricula.py compares the served batches, phases,
stage pools and epoch lengths of the current samplers against.
"""

from __future__ import annotations

import math

import numpy as np

from currikit.curricula import (
    _COMPETENCE_FORMS,
    VARIABILITY_EPS,
    AnnealingPlan,
    CompetencePlan,
    _weighted_order,
    annealing_stage_pool_sizes,
    cumulative,
    weighted_draw,
)


class _EpochShuffler:
    """Fresh seeded shuffle per epoch, consumed without replacement."""

    def __init__(self, rows: np.ndarray, batch_size: int, rng: np.random.Generator):
        self.rows = rows
        self.batch_size = batch_size
        self.rng = rng
        self._queue = rows[:0]

    def next_batch(self) -> np.ndarray:
        if not len(self._queue):
            self._queue = self.rows[self.rng.permutation(len(self.rows))]
        batch = self._queue[: self.batch_size]
        self._queue = self._queue[self.batch_size:]
        return batch


class RandomSampler:
    """Baseline: shuffle-epochs over the given train rows."""

    def __init__(self, rows: np.ndarray, batch_size: int, seed: int = 0):
        rows = np.asarray(rows, dtype=np.int64)
        if not len(rows):
            raise ValueError("no examples to sample from")
        self.batch_size = batch_size
        self._shuffler = _EpochShuffler(rows, batch_size, np.random.default_rng(seed))
        self._n = len(rows)

    @property
    def phase(self) -> str:
        return "post-curriculum"

    def epoch_length(self) -> int:
        return math.ceil(self._n / self.batch_size)

    def next_batch(self, step: int) -> np.ndarray:
        return self._shuffler.next_batch()


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
        self._all_rows = np.concatenate(plan.buckets)
        self._stage = 0
        self._queue = self._all_rows[:0]
        self._post: _EpochShuffler | None = None
        self.stage_log: list[np.ndarray] = []  # pool actually built per stage

    @property
    def phase(self) -> str:
        return "post-curriculum" if self._post is not None else "curriculum"

    def epoch_length(self) -> int:
        return math.ceil(len(self._all_rows) / self.batch_size)

    def _enter_next_stage(self) -> None:
        k = self._stage  # 0-based index of the stage being entered
        denom = self.plan.num_epochs + 1
        parts = [self.plan.buckets[k]]
        for bucket in self.plan.buckets[:k]:
            take = len(bucket) // denom
            if take > 0:
                picks = self.rng.choice(len(bucket), size=take, replace=False)
                parts.append(bucket[np.sort(picks)])
        pool = np.concatenate(parts)
        if self.plan.variability_weighted:
            weights = self.plan.weights[pool] + VARIABILITY_EPS
            self._queue = _weighted_order(self.rng, pool, weights)
        else:
            self._queue = pool[self.rng.permutation(len(pool))]
        self.stage_log.append(pool)
        self._stage += 1

    def next_batch(self, step: int) -> np.ndarray:
        if self._post is not None:
            return self._post.next_batch()
        if not len(self._queue):
            if self._stage < self.plan.num_buckets:
                self._enter_next_stage()
            else:
                self._post = _EpochShuffler(self._all_rows, self.batch_size, self.rng)
                return self._post.next_batch()
        batch = self._queue[: self.batch_size]
        self._queue = self._queue[self.batch_size:]
        return batch


class CompetenceSampler:
    """At step t the first ceil(c(t) * N) rows of the easiest-first ordering
    are available; batches are drawn from them with replacement (uniformly,
    or proportionally to variability + eps). Past the duration, uniform
    shuffle-epochs over the full set."""

    def __init__(self, plan: CompetencePlan, batch_size: int,
                 steps_per_epoch: int, seed: int = 0):
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if steps_per_epoch <= 0:
            raise ValueError("steps_per_epoch must be positive")
        self.plan = plan
        self.batch_size = batch_size
        self.steps_per_epoch = steps_per_epoch
        self.rng = np.random.default_rng(seed)
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
        self._post: _EpochShuffler | None = None

    @property
    def phase(self) -> str:
        return "post-curriculum" if self._post is not None else "curriculum"

    def epoch_length(self) -> int:
        return self.steps_per_epoch

    def available_count(self, step: int) -> int:
        c = self._pacing(step, self.plan.c0, self.plan.duration)
        return min(self._n, max(1, math.ceil(c * self._n)))

    def next_batch(self, step: int) -> np.ndarray:
        if step > self.plan.duration:
            if self._post is None:
                self._post = _EpochShuffler(self.plan.ordering, self.batch_size, self.rng)
            return self._post.next_batch()
        m = self.available_count(step)
        if self._weights is not None:
            if len(self._cdf) != m:
                self._cdf = cumulative(self._weights[:m] / self._weights[:m].sum())
            picks = weighted_draw(self.rng, self._cdf, self.batch_size)
        else:
            picks = self.rng.integers(0, m, size=self.batch_size)
        return self.plan.ordering[picks]
