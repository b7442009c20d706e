import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from currikit.dynamics import (
    compute_all,
    confidence,
    correctness,
    read_td_stats,
    variability,
    write_td_stats,
)
from currikit.trainer import Probes


# independent brute-force evaluation, deliberately loop-based
def oracle_confidence(probs):
    total = 0.0
    for p in probs:
        total += p
    return total / len(probs)


def oracle_correctness(flags):
    n = 0
    for f in flags:
        if f:
            n += 1
    return n


def oracle_variability(probs):
    mu = oracle_confidence(probs)
    acc = 0.0
    for p in probs:
        acc += (p - mu) * (p - mu)
    return math.sqrt(acc / len(probs))


class TestConfidence:
    def test_constant(self):
        assert confidence([0.5, 0.5, 0.5]) == 0.5

    def test_single_epoch(self):
        assert confidence([0.37]) == 0.37

    def test_mean(self):
        assert confidence([0.9, 0.8, 0.7, 0.6]) == pytest.approx(0.75)

    def test_empty(self):
        with pytest.raises(ValueError):
            confidence([])


class TestCorrectness:
    def test_all_true(self):
        assert correctness([True] * 5) == 5

    def test_all_false(self):
        assert correctness([False] * 5) == 0

    def test_count(self):
        assert correctness([True, False, True, True, False]) == 3


class TestVariability:
    def test_constant_is_zero(self):
        assert variability([0.4, 0.4, 0.4]) == 0.0

    def test_two_points(self):
        assert variability([0.2, 0.8]) == pytest.approx(0.3)

    def test_three_points(self):
        assert variability([1.0, 0.0, 0.5]) == pytest.approx(0.40825, abs=1e-5)

    def test_bounded_by_half(self):
        rng = random.Random(0)
        for _ in range(100):
            probs = [rng.random() for _ in range(rng.randint(1, 12))]
            assert variability(probs) <= 0.5 + 1e-12


class TestAgainstOracle:
    def test_200_random_traces(self):
        rng = random.Random(1234)
        for _ in range(200):
            n = rng.randint(1, 12)
            probs = [rng.random() for _ in range(n)]
            flags = [rng.random() < 0.5 for _ in range(n)]
            assert abs(confidence(probs) - oracle_confidence(probs)) < 1e-12
            assert correctness(flags) == oracle_correctness(flags)
            assert abs(variability(probs) - oracle_variability(probs)) < 1e-12

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=20),
           st.randoms())
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariance(self, probs, rnd):
        flags = [p > 0.5 for p in probs]
        shuffled = list(zip(probs, flags))
        rnd.shuffle(shuffled)
        sp = [p for p, _ in shuffled]
        sf = [f for _, f in shuffled]
        assert confidence(sp) == pytest.approx(confidence(probs), abs=1e-12)
        assert correctness(sf) == correctness(flags)
        assert variability(sp) == pytest.approx(variability(probs), abs=1e-12)

    def test_variability_zero_iff_constant(self):
        assert variability([0.3, 0.3]) == 0.0
        assert variability([0.3, 0.30001]) > 0.0


def probes(*epochs):
    """Probes from per-epoch lists of (id, gold_prob, correct), each epoch
    listing the same ids in the same order."""
    return Probes(
        ids=[eid for eid, _, _ in epochs[0]],
        gold_prob=np.array([[p for _, p, _ in entries] for entries in epochs]),
        correct=np.array([[c for _, _, c in entries] for entries in epochs], dtype=bool),
    )


class TestComputeAll:
    def test_single_epoch(self):
        stats = compute_all(probes([("a", 0.4, False)]))
        assert stats.ids == ["a"]
        assert stats.confidence[0] == 0.4
        assert stats.correctness[0] == 0
        assert stats.variability[0] == 0.0

    def test_zero_epochs_rejected(self):
        empty = Probes(ids=["a"], gold_prob=np.empty((0, 1)),
                       correct=np.empty((0, 1), dtype=bool))
        with pytest.raises(ValueError):
            compute_all(empty)

    def test_matches_oracle_on_multi_epoch_probes(self):
        rng = random.Random(77)
        ids = [f"e{i}" for i in range(50)]
        epochs = 7
        probs = {eid: [rng.random() for _ in range(epochs)] for eid in ids}
        flags = {eid: [rng.random() < 0.5 for _ in range(epochs)] for eid in ids}
        stats = compute_all(probes(*(
            [(eid, probs[eid][e], flags[eid][e]) for eid in ids]
            for e in range(epochs)
        )))
        assert stats.ids == ids
        for i, eid in enumerate(ids):
            assert abs(stats.confidence[i] - oracle_confidence(probs[eid])) < 1e-12
            assert stats.correctness[i] == oracle_correctness(flags[eid])
            assert abs(stats.variability[i] - oracle_variability(probs[eid])) < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_stats_for_on_every_column(self, seed):
        """Column i holds the three per-example functions of probe column i."""
        rng = np.random.default_rng(seed)
        epochs, n = int(rng.integers(1, 13)), 40
        gold = rng.random((epochs, n))
        gold[:, :5] = gold[0, :5]  # constant traces
        correct = rng.random((epochs, n)) < 0.5
        ids = [f"e{i}" for i in range(n)]
        stats = compute_all(Probes(ids=ids, gold_prob=gold, correct=correct))
        assert stats.ids == ids
        assert (stats.confidence.dtype, stats.correctness.dtype,
                stats.variability.dtype) == (np.float64, np.int64, np.float64)
        for i in range(n):
            probs, flags = gold[:, i].tolist(), correct[:, i].tolist()
            assert stats.confidence[i] == confidence(probs)
            assert stats.correctness[i] == correctness(flags)
            assert stats.variability[i] == variability(probs)
        assert all(stats.variability[:5] == 0.0)

    def test_round_trip(self, tmp_path):
        stats = compute_all(probes(
            [("a", 0.5, True), ("b", 0.25, False)],
            [("a", 0.75, True), ("b", 0.5, True)],
        ))
        write_td_stats(stats, tmp_path / "stats.jsonl")
        back = read_td_stats(tmp_path / "stats.jsonl")
        assert back.ids == stats.ids
        for column in ("confidence", "correctness", "variability"):
            assert getattr(back, column).dtype == getattr(stats, column).dtype
            assert getattr(back, column).tobytes() == getattr(stats, column).tobytes()


class TestReadBounds:
    """read_td_stats takes a confidence in [0, 1], a variability in [0, 0.5]
    and a correctness >= 0, end points included; anything else exits through
    ValueError naming ``path:line``."""

    def write(self, path, rows):
        path.write_text("".join(
            f'{{"example_id": "e{i}", "confidence": {c!r}, "correctness": {k!r}, '
            f'"variability": {v!r}}}\n' for i, (c, k, v) in enumerate(rows)))
        return path

    def test_half_zeros_half_ones_reads_back(self, tmp_path):
        stats = compute_all(probes(*[[("a", p, p == 1.0), ("b", 1.0, True)]
                                     for p in (0.0, 1.0, 1.0, 0.0)]))
        write_td_stats(stats, tmp_path / "stats.jsonl")
        back = read_td_stats(tmp_path / "stats.jsonl")
        assert back.variability.tolist() == [0.5, 0.0]
        assert back.confidence.tolist() == [0.5, 1.0]

    def test_end_points_accepted(self, tmp_path):
        rows = [(0.0, 0, 0.0), (1.0, 7, 0.5), (-0.0, 0, -0.0)]
        back = read_td_stats(self.write(tmp_path / "stats.jsonl", rows))
        assert back.confidence.tolist() == [0.0, 1.0, 0.0]
        assert back.variability.tolist() == [0.0, 0.5, 0.0]

    @pytest.mark.parametrize("column, value", [
        (0, -1e-300), (0, 1.0000000000000002), (0, 2.0),
        (1, -1),
        (2, -0.5), (2, -5e-324), (2, 0.5000000000000001), (2, 1.0),
    ])
    def test_out_of_range_named(self, tmp_path, column, value):
        rows = [[0.5, 1, 0.25] for _ in range(5)]
        rows[3][column] = value
        path = self.write(tmp_path / "stats.jsonl", rows)
        name = ("confidence", "correctness", "variability")[column]
        with pytest.raises(ValueError, match=f"^{path}:4: {name} {value!r} for "
                                             "example 'e3' is outside"):
            read_td_stats(path, ids=["e4", "e0"])
