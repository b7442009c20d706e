import math

import numpy as np
import pytest
import reference_samplers as reference
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from currikit.curricula import (
    VARIABILITY_EPS,
    AnnealingSampler,
    CompetenceSampler,
    RandomSampler,
    annealing_stage_pool_sizes,
    build_annealing_plan,
    build_competence_plan,
    competence,
    cumulative,
    linear_competence,
    plan_summary,
    weighted_draw,
)
from currikit.difficulty import DifficultyScores


def scores_of(metric_name, by_id, higher_is_easier, variability=None):
    """DifficultyScores whose rows are the keys of ``by_id``, in order."""
    ids = list(by_id)
    return DifficultyScores(
        metric_name=metric_name, ids=ids,
        scores=np.array([by_id[eid] for eid in ids], dtype=np.float64),
        higher_is_easier=higher_is_easier,
        variability=None if variability is None else np.array(
            [variability[eid] for eid in ids], dtype=np.float64),
    )


def int_scores(value_to_count, higher_is_easier=True):
    scores = {}
    for value, count in value_to_count.items():
        for i in range(count):
            scores[f"v{value}_{i:04d}"] = float(value)
    return scores_of("correctness", scores, higher_is_easier)


def served_ids(plan, batches):
    """Example ids of the rows in ``batches``, in serving order."""
    return [plan.ids[row] for batch in batches for row in batch]


class TestCompetenceFunction:
    def test_endpoints_exact(self):
        assert competence(0, 0.01, 100) == 0.01
        assert competence(100, 0.01, 100) == 1.0
        assert competence(250, 0.01, 100) == 1.0

    def test_mid_value(self):
        assert competence(50, 0.01, 100) == pytest.approx(0.70714, abs=1e-4)

    def test_strictly_monotone_on_grid(self):
        values = [competence(t, 0.01, 1000) for t in range(0, 1001)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_linear_form_endpoints(self):
        assert linear_competence(0, 0.2, 50) == 0.2
        assert linear_competence(50, 0.2, 50) == 1.0
        assert linear_competence(25, 0.2, 50) == pytest.approx(0.6)


class TestAnnealingPlan:
    def test_all_scores_present_gives_e_plus_one_buckets(self):
        scores = int_scores({v: 3 for v in range(11)})
        plan = build_annealing_plan(scores, num_epochs=10)
        assert plan.num_buckets == 11

    def test_single_score_single_bucket(self):
        scores = int_scores({4: 20})
        plan = build_annealing_plan(scores, num_epochs=6)
        assert plan.num_buckets == 1
        assert len(plan.buckets[0]) == 20

    def test_bucket_sizes_easiest_first(self):
        scores = int_scores({5: 10, 2: 3, 0: 1})
        plan = build_annealing_plan(scores, num_epochs=5)
        assert [len(b) for b in plan.buckets] == [10, 3, 1]

    def test_orientation_flips_bucket_order(self):
        scores = int_scores({1: 2, 9: 4}, higher_is_easier=False)
        plan = build_annealing_plan(scores, num_epochs=9)
        # lower score = easier here
        assert [len(b) for b in plan.buckets] == [2, 4]

    def test_non_integer_scores_rejected(self):
        scores = scores_of("confidence", {"a": 0.5}, higher_is_easier=True)
        with pytest.raises(ValueError, match="competence"):
            build_annealing_plan(scores, num_epochs=5)

    def test_buckets_partition_the_ids(self):
        scores = int_scores({0: 7, 1: 7, 2: 7})
        plan = build_annealing_plan(scores, num_epochs=2)
        assert plan.ids == scores.ids
        assert sorted(served_ids(plan, plan.buckets)) == sorted(scores.ids)

    def test_buckets_are_sorted_by_id(self):
        scores = int_scores({0: 7, 1: 7})
        scores.ids.reverse()
        scores.scores = scores.scores[::-1]
        plan = build_annealing_plan(scores, num_epochs=1)
        for bucket in plan.buckets:
            assert served_ids(plan, [bucket]) == sorted(served_ids(plan, [bucket]))


class TestAnnealingSampler:
    def serve_stages(self, sampler, plan, batch_size):
        """Consume the curriculum phase; returns per-stage served batches."""
        sizes = annealing_stage_pool_sizes(plan)
        stages = []
        step = 0
        for size in sizes:
            batches = []
            for _ in range(math.ceil(size / batch_size)):
                batches.append(sampler.next_batch(step))
                step += 1
            stages.append(batches)
        return stages

    def test_carryover_is_floor_bucket_over_e_plus_one(self):
        scores = int_scores({9: 100, 3: 50})
        plan = build_annealing_plan(scores, num_epochs=9)
        sampler = AnnealingSampler(plan, batch_size=25, seed=0)
        self.serve_stages(sampler, plan, 25)
        # stage 2 pool = d_2 plus exactly floor(100/10) = 10 carryover ids
        assert len(sampler.stage_log[1]) == 50 + 10
        carried = set(sampler.stage_log[1]) & set(plan.buckets[0])
        assert len(carried) == 10

    def test_stage_pool_sizes_formula(self):
        scores = int_scores({6: 40, 4: 33, 1: 11, 0: 5})
        plan = build_annealing_plan(scores, num_epochs=6)
        sizes = annealing_stage_pool_sizes(plan)
        denom = 7
        expected = []
        carry = 0
        for b in plan.buckets:
            expected.append(len(b) + carry)
            carry += len(b) // denom
        assert sizes == expected

    def test_stage_serves_pool_exactly_once(self):
        scores = int_scores({5: 37, 2: 21, 1: 14})
        plan = build_annealing_plan(scores, num_epochs=5)
        sampler = AnnealingSampler(plan, batch_size=8, seed=3)
        stages = self.serve_stages(sampler, plan, 8)
        for served, pool in zip(stages, sampler.stage_log):
            flat = [eid for batch in served for eid in batch]
            assert sorted(flat) == sorted(pool)

    def test_stage_length_in_batches(self):
        scores = int_scores({9: 100, 3: 50})
        plan = build_annealing_plan(scores, num_epochs=9)
        sampler = AnnealingSampler(plan, batch_size=32, seed=1)
        stages = self.serve_stages(sampler, plan, 32)
        assert [len(s) for s in stages] == [4, 2]
        assert [len(b) for b in stages[0]] == [32, 32, 32, 4]

    def test_single_bucket_degenerates_to_one_epoch_then_random(self):
        scores = int_scores({3: 50})
        plan = build_annealing_plan(scores, num_epochs=3)
        sampler = AnnealingSampler(plan, batch_size=10, seed=5)
        first_epoch = [sampler.next_batch(i) for i in range(5)]
        assert sorted(served_ids(plan, first_epoch)) == sorted(scores.ids)
        assert sampler.phase == "curriculum"
        sampler.next_batch(5)
        assert sampler.phase == "post-curriculum"

    def test_post_curriculum_epochs_cover_everything(self):
        scores = int_scores({1: 30})
        plan = build_annealing_plan(scores, num_epochs=1)
        sampler = AnnealingSampler(plan, batch_size=10, seed=5)
        for i in range(3):  # curriculum stage: 30 ids
            sampler.next_batch(i)
        epoch = [sampler.next_batch(3 + i) for i in range(3)]
        assert sorted(served_ids(plan, epoch)) == sorted(scores.ids)

    def test_batch_larger_than_pool_rejected(self):
        scores = int_scores({2: 4, 1: 40})
        plan = build_annealing_plan(scores, num_epochs=9)
        with pytest.raises(ValueError, match="pool"):
            AnnealingSampler(plan, batch_size=16, seed=0)

    def test_weighted_stage_is_permutation_of_pool(self):
        scores = int_scores({4: 30, 2: 10})
        weights = {eid: 0.01 * i for i, eid in enumerate(sorted(scores.ids))}
        scores.variability = np.array([weights[eid] for eid in scores.ids])
        plan = build_annealing_plan(scores, num_epochs=4, variability_weighted=True)
        sampler = AnnealingSampler(plan, batch_size=10, seed=2)
        stages = self.serve_stages(sampler, plan, 10)
        for served, pool in zip(stages, sampler.stage_log):
            flat = [eid for batch in served for eid in batch]
            assert sorted(flat) == sorted(pool)


def confidence_scores(n):
    return scores_of("confidence", {f"e{i:04d}": 1.0 - i / n for i in range(n)},
                     higher_is_easier=True)


class TestWeightedDraw:
    @pytest.mark.parametrize("weights", [
        [1.0, 0.0, 2.0, 0.0, 0.5], [0.0, 0.0, 3.0], [0.25], [0.0, 1.0, 0.0],
        list(1.0 / np.arange(1, 121)), list(np.random.default_rng(3).random(2000)),
    ], ids=["zeros", "leading-zeros", "one", "one-nonzero", "zipf-120", "random-2000"])
    @pytest.mark.parametrize("size", [0, 1, 32, 1000])
    def test_equals_generator_choice(self, weights, size):
        p = np.array(weights) / np.sum(weights)
        ours, theirs = np.random.default_rng(17), np.random.default_rng(17)
        drawn = weighted_draw(ours, cumulative(p), size)
        chosen = theirs.choice(len(p), size=size, replace=True, p=p)
        assert (drawn.dtype, drawn.tobytes()) == (chosen.dtype, chosen.tobytes())
        assert ours.random(4).tobytes() == theirs.random(4).tobytes()

    def test_uniforms_on_cdf_steps_pick_what_choice_picks(self):
        # A uniform equal to a CDF entry (0.0 below a leading zero weight,
        # or exactly a partial sum) must land where choice puts it.
        class Fixed(np.random.Generator):
            def random(self, size=None, dtype=np.float64, out=None):
                return np.array([0.0, 0.25, 0.5, 0.75, 0.125])[:size]

        p = np.array([0.0, 0.25, 0.0, 0.25, 0.5])
        cdf = cumulative(p)
        assert set(cdf[:4]) <= {0.0, 0.25, 0.5}
        drawn = weighted_draw(Fixed(np.random.PCG64(0)), cdf, 5)
        chosen = Fixed(np.random.PCG64(0)).choice(5, size=5, replace=True, p=p)
        assert drawn.tolist() == chosen.tolist() == [1, 3, 4, 4, 1]

    def test_sampler_draws_what_choice_drew(self):
        # The competence sampler's weighted steps, against the per-step
        # Generator.choice draw over the admitted prefix it replaced.
        n, rng = 500, np.random.default_rng(8)
        scores = confidence_scores(n)
        scores.variability = rng.random(n) * 0.5
        plan = build_competence_plan(scores, c0=0.01, duration=300,
                                     variability_weighted=True)
        sampler = CompetenceSampler(plan, batch_size=32, seed=6)
        reference = np.random.default_rng(6)
        weights = plan.weights[plan.ordering] + VARIABILITY_EPS
        for step in range(301):
            m = sampler.available_count(step)
            p = weights[:m] / weights[:m].sum()
            expected = plan.ordering[reference.choice(m, size=32, replace=True, p=p)]
            assert sampler.next_batch(step).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("variability", [
        [0.1, math.nan, 0.2], [0.1, math.inf, 0.2], [0.1, -1.0, 0.2],
        [0.1, -VARIABILITY_EPS, 0.2], [1e308, 0.1, 1e308],
    ], ids=["nan", "inf", "negative", "zero-weight", "sum-overflows"])
    def test_bad_weights_rejected_at_construction(self, variability):
        scores = confidence_scores(3)
        scores.variability = np.array(variability)
        plan = build_competence_plan(scores, c0=0.5, duration=10,
                                     variability_weighted=True)
        with pytest.raises(ValueError, match="variability weights must be finite and > 0"):
            CompetenceSampler(plan, batch_size=2, seed=0)


class TestCompetencePlan:
    def test_ordering_is_easiest_first(self):
        plan = build_competence_plan(confidence_scores(10), c0=0.1, duration=50)
        assert served_ids(plan, [plan.ordering]) == [f"e{i:04d}" for i in range(10)]

    def test_tie_break_by_variability_then_id(self):
        scores = scores_of("confidence", {"a": 0.5, "b": 0.5, "c": 0.5},
                           higher_is_easier=True,
                           variability={"a": 0.3, "b": 0.1, "c": 0.3})
        plan = build_competence_plan(scores, c0=0.1, duration=10)
        assert served_ids(plan, [plan.ordering]) == ["b", "a", "c"]

    def test_heuristic_orientation(self):
        scores = scores_of("length", {"a": 9.0, "b": 2.0}, higher_is_easier=False)
        plan = build_competence_plan(scores, c0=0.5, duration=10)
        assert served_ids(plan, [plan.ordering]) == ["b", "a"]

    def test_invalid_c0(self):
        with pytest.raises(ValueError):
            build_competence_plan(confidence_scores(4), c0=0.0, duration=10)


class TestCompetenceSampler:
    def test_initial_admission_count(self):
        plan = build_competence_plan(confidence_scores(1000), c0=0.01, duration=100)
        sampler = CompetenceSampler(plan, batch_size=4, seed=0)
        assert sampler.available_count(0) == 10
        batch = sampler.next_batch(0)
        assert set(batch) <= set(plan.ordering[:10])

    def test_full_admission_at_duration(self):
        plan = build_competence_plan(confidence_scores(100), c0=0.01, duration=20)
        sampler = CompetenceSampler(plan, batch_size=4, seed=0)
        assert sampler.available_count(20) == 100
        assert sampler.available_count(500) == 100

    def test_admission_monotone(self):
        plan = build_competence_plan(confidence_scores(333), c0=0.05, duration=77)
        sampler = CompetenceSampler(plan, batch_size=4, seed=0)
        counts = [sampler.available_count(t) for t in range(0, 120)]
        assert all(b >= a for a, b in zip(counts, counts[1:]))

    def test_only_admitted_ids_served(self):
        plan = build_competence_plan(confidence_scores(200), c0=0.02, duration=60)
        sampler = CompetenceSampler(plan, batch_size=16, seed=4)
        for t in range(0, 61):
            admitted = set(plan.ordering[: sampler.available_count(t)])
            assert set(sampler.next_batch(t)) <= admitted

    def test_post_curriculum_is_shuffle_epochs(self):
        plan = build_competence_plan(confidence_scores(30), c0=0.5, duration=5)
        sampler = CompetenceSampler(plan, batch_size=10, seed=4)
        for t in range(6):
            sampler.next_batch(t)
        assert sampler.phase == "curriculum"
        epoch = [sampler.next_batch(6 + i) for i in range(3)]
        assert sampler.phase == "post-curriculum"
        assert sorted(served_ids(plan, epoch)) == sorted(served_ids(plan, [plan.ordering]))

    def test_equal_weights_draw_is_uniform(self):
        # weighted sampling with constant variability must match uniform:
        # chi-square goodness-of-fit over 1e5 draws
        n = 20
        scores = confidence_scores(n)
        scores.variability = np.full(n, 0.2)
        plan = build_competence_plan(scores, c0=1.0, duration=10 ** 9,
                                     variability_weighted=True)
        sampler = CompetenceSampler(plan, batch_size=100, seed=11)
        counts = {eid: 0 for eid in scores.ids}
        for t in range(1000):
            for eid in served_ids(plan, [sampler.next_batch(t)]):
                counts[eid] += 1
        observed = np.array([counts[eid] for eid in sorted(counts)])
        _, p = scipy_stats.chisquare(observed)
        assert p > 0.01

    def test_weighted_draw_prefers_high_variability(self):
        n = 10
        scores = confidence_scores(n)
        weights = {eid: (0.5 if i < 5 else 0.05)
                   for i, eid in enumerate(sorted(scores.ids))}
        scores.variability = np.array([weights[eid] for eid in scores.ids])
        plan = build_competence_plan(scores, c0=1.0, duration=10 ** 9,
                                     variability_weighted=True)
        sampler = CompetenceSampler(plan, batch_size=100, seed=2)
        counts = {eid: 0 for eid in scores.ids}
        for t in range(200):
            for eid in served_ids(plan, [sampler.next_batch(t)]):
                counts[eid] += 1
        heavy = sum(counts[eid] for eid in sorted(counts)[:5])
        light = sum(counts[eid] for eid in sorted(counts)[5:])
        assert heavy > 5 * light


class TestRandomSampler:
    def test_epoch_serves_every_id_once(self):
        rows = np.arange(47)
        sampler = RandomSampler(rows, batch_size=10, seed=0)
        assert sampler.epoch_length() == 5
        epoch = np.concatenate([sampler.next_batch(i) for i in range(5)])
        assert sorted(epoch) == list(rows)

    def test_same_seed_same_batches(self):
        s1 = RandomSampler(np.arange(30), 8, seed=5)
        s2 = RandomSampler(np.arange(30), 8, seed=5)
        for t in range(12):
            assert np.array_equal(s1.next_batch(t), s2.next_batch(t))

    def test_epochs_differ(self):
        sampler = RandomSampler(np.arange(64), 64, seed=1)
        first = sampler.next_batch(0)
        second = sampler.next_batch(1)
        assert not np.array_equal(first, second)
        assert sorted(first) == sorted(second)

    def test_serves_only_the_given_rows(self):
        rows = np.array([3, 8, 9, 20, 21])
        sampler = RandomSampler(rows, 2, seed=0)
        epoch = np.concatenate([sampler.next_batch(t) for t in range(3)])
        assert sorted(epoch) == list(rows)


class TestSamplerContract:
    @pytest.mark.parametrize("kind", ["random", "annealing", "competence"])
    def test_batches_are_int64_rows(self, kind):
        scores = int_scores({2: 12, 1: 8})
        if kind == "random":
            sampler = RandomSampler(np.arange(20), 4, seed=0)
        elif kind == "annealing":
            plan = build_annealing_plan(scores, num_epochs=2)
            sampler = AnnealingSampler(plan, batch_size=4, seed=0)
        else:
            plan = build_competence_plan(scores, c0=0.1, duration=5)
            sampler = CompetenceSampler(plan, batch_size=4, seed=0)
        for t in range(15):  # curriculum and post-curriculum phases
            batch = sampler.next_batch(t)
            assert batch.dtype == np.int64 and batch.ndim == 1
            assert len(batch) and 0 <= batch.min() and batch.max() < 20

    @pytest.mark.parametrize("batch_size", [0, -3])
    @pytest.mark.parametrize("kind", ["random", "annealing", "competence"])
    def test_batch_size_below_one_rejected(self, kind, batch_size):
        scores = int_scores({2: 6, 1: 4})
        with pytest.raises(ValueError, match="batch_size must be positive"):
            if kind == "random":
                RandomSampler(np.arange(10), batch_size, seed=0)
            elif kind == "annealing":
                AnnealingSampler(build_annealing_plan(scores, num_epochs=2), batch_size)
            else:
                CompetenceSampler(build_competence_plan(scores, c0=0.1, duration=5),
                                  batch_size)


def assert_serves_as_reference(sampler, ref, steps):
    """Step by step, the same batch bytes, phase, stage pools and epoch
    length as the reference sampler."""
    assert sampler.epoch_length() == ref.epoch_length()
    for step in steps:
        batch, expected = sampler.next_batch(step), ref.next_batch(step)
        assert batch.dtype == expected.dtype and batch.tobytes() == expected.tobytes(), step
        assert sampler.phase == ref.phase, step
        log, ref_log = getattr(sampler, "stage_log", []), getattr(ref, "stage_log", [])
        assert [a.tobytes() for a in log] == [b.tobytes() for b in ref_log], step
    assert sampler.epoch_length() == ref.epoch_length()


@st.composite
def difficulty_scores(draw, integer: bool):
    """Ids with tied scores (integers for annealing) and variability."""
    n = draw(st.integers(1, 60))
    values = st.integers(0, 4) if integer else st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
    scores = draw(st.lists(values, min_size=n, max_size=n))
    variability = draw(st.lists(st.sampled_from([0.0, 0.125, 0.5, 2.0]), min_size=n,
                                max_size=n))
    ids = [f"e{i:03d}" for i in draw(st.permutations(range(n)))]
    return DifficultyScores(metric_name="correctness" if integer else "confidence", ids=ids,
                            scores=np.array(scores, dtype=np.float64),
                            higher_is_easier=draw(st.booleans()),
                            variability=np.array(variability))


class TestReferenceEquivalence:
    """The generator samplers serve what the queue-based samplers they
    replaced served (tests/reference_samplers.py), through at least two
    post-curriculum epochs."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(1, 50), batch_size=st.integers(1, 20), seed=st.integers(0, 2 ** 32))
    def test_random(self, n, batch_size, seed):
        rows = np.arange(n) * 3
        steps = range(3 * math.ceil(n / batch_size) + 1)
        assert_serves_as_reference(RandomSampler(rows, batch_size, seed),
                                   reference.RandomSampler(rows, batch_size, seed), steps)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(scores=difficulty_scores(integer=True), num_epochs=st.integers(1, 5),
           weighted=st.booleans(), data=st.data(), seed=st.integers(0, 2 ** 32))
    def test_annealing(self, scores, num_epochs, weighted, data, seed):
        plan = build_annealing_plan(scores, num_epochs, variability_weighted=weighted)
        sizes = annealing_stage_pool_sizes(plan)
        batch_size = data.draw(st.integers(1, min(sizes)), label="batch_size")
        curriculum = sum(math.ceil(size / batch_size) for size in sizes)
        steps = range(curriculum + 2 * math.ceil(len(scores.ids) / batch_size) + 1)
        assert_serves_as_reference(AnnealingSampler(plan, batch_size, seed),
                                   reference.AnnealingSampler(plan, batch_size, seed), steps)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(scores=difficulty_scores(integer=False), c0=st.sampled_from([0.01, 0.3, 1.0]),
           duration=st.integers(1, 80), form=st.sampled_from(["sqrt", "linear"]),
           weighted=st.booleans(), batch_size=st.integers(1, 20), first=st.integers(0, 1),
           seed=st.integers(0, 2 ** 32))
    def test_competence(self, scores, c0, duration, form, weighted, batch_size, first, seed):
        plan = build_competence_plan(scores, c0, duration, variability_weighted=weighted,
                                     form=form)
        n = len(scores.ids)
        steps = range(first, duration + 2 * math.ceil(n / batch_size) + 2)
        assert_serves_as_reference(
            CompetenceSampler(plan, batch_size, seed),
            reference.CompetenceSampler(plan, batch_size, math.ceil(n / batch_size), seed),
            steps)


class TestPlanSummary:
    def test_random(self):
        assert plan_summary(None) == {"scheduler": "random"}

    def test_annealing_fields(self):
        plan = build_annealing_plan(int_scores({3: 5, 1: 2}), num_epochs=3)
        summary = plan_summary(plan)
        assert summary["scheduler"] == "annealing"
        assert summary["bucket_sizes"] == [5, 2]
        assert summary["carryover_denominator"] == 4
        assert len(summary["ordering_digest"]) == 64

    def test_competence_fields(self):
        plan = build_competence_plan(confidence_scores(6), c0=0.01, duration=9)
        summary = plan_summary(plan)
        assert summary["scheduler"] == "competence"
        assert summary["c0"] == 0.01
        assert summary["duration"] == 9
