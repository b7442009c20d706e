import csv
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from currikit.analysis import (
    aggregate_time_ratios,
    approx_randomization,
    correlation_matrix,
    datamap_export,
    learning_curve,
    rank_average_ties,
    spearman,
    time_ratio,
)
from currikit.dynamics import TDStats
from currikit.trainer import RunLog


def loop_rank_average_ties(values) -> np.ndarray:
    """Reference: the per-group while loop that rank_average_ties replaced."""
    a = np.asarray(values, dtype=np.float64).reshape(-1)
    order = np.argsort(a, kind="mergesort")
    ranks = np.empty(a.size, dtype=np.float64)
    i = 0
    while i < a.size:
        j = i
        while j + 1 < a.size and a[order[j + 1]] == a[order[i]]:
            j += 1
        ranks[order[i: j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


class TestRankAverageTies:
    SPECIAL = [0.0, -0.0, 1.0, -1.0, math.nan, math.inf, -math.inf, 0.5, 1e-300]

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.lists(st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True),
                              st.integers(-3, 3).map(float)), max_size=60))
    def test_equals_loop(self, values):
        got, want = rank_average_ties(values), loop_rank_average_ties(values)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("values", [
        [], [7.0], [2.0] * 5, [0.0, -0.0, 0.0], [math.nan, 1.0, math.nan, 1.0],
        [3.0, 1.0, 3.0, 2.0, 1.0, 3.0], [-0.0, math.nan, 0.0, -math.inf],
    ], ids=["empty", "one", "constant", "signed-zeros", "nan", "ties", "mixed"])
    def test_edge_cases_equal_loop(self, values):
        assert rank_average_ties(values).tobytes() == loop_rank_average_ties(values).tobytes()

    def test_large_input_equals_loop(self):
        rng = np.random.default_rng(9)
        values = rng.integers(0, 300, size=5000).astype(float)
        values[rng.random(5000) < 0.01] = math.nan
        assert rank_average_ties(values).tobytes() == loop_rank_average_ties(values).tobytes()


class TestSpearman:
    def test_identical_lists(self):
        assert spearman([3.0, 1.0, 2.0], [3.0, 1.0, 2.0]) == pytest.approx(1.0)

    def test_reversed_lists(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert spearman(xs, list(reversed(xs))) == pytest.approx(-1.0)

    def test_half_correlation(self):
        assert spearman([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5)

    def test_constant_input_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            spearman([1.0], [1.0, 2.0])

    def test_matches_scipy_with_ties(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(5, 40))
            xs = rng.integers(0, 6, size=n).astype(float)  # deliberate ties
            ys = rng.normal(size=n)
            if len(set(xs)) < 2:
                continue
            expected = scipy_stats.spearmanr(xs, ys).statistic
            assert spearman(xs, ys) == pytest.approx(expected, abs=1e-12)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(4)
        xs = rng.normal(size=30)
        ys = rng.normal(size=30)
        base = spearman(xs, ys)
        assert spearman(np.exp(xs), ys) == pytest.approx(base, abs=1e-12)
        assert spearman(xs, 3 * ys + 7) == pytest.approx(base, abs=1e-12)


def exhaustive_ar_p(a: np.ndarray, b: np.ndarray) -> float:
    """Enumerate all 2^n sign patterns of the per-unit differences."""
    d = [int(x) - int(y) for x, y in zip(a, b, strict=True)]
    observed = abs(sum(d))
    hits = 0
    for signs in itertools.product((1, -1), repeat=len(d)):
        if abs(sum(s * x for s, x in zip(signs, d))) >= observed:
            hits += 1
    return hits / 2 ** len(d)


def discordant_units(a_only: int, b_only: int, concordant: int = 0):
    """Outcomes with ``a_only`` units only a gets right, ``b_only`` only b,
    and ``concordant`` more that both get right or both wrong in turn."""
    a = [True] * a_only + [False] * b_only + [i % 2 == 0 for i in range(concordant)]
    b = [False] * a_only + [True] * b_only + [i % 2 == 0 for i in range(concordant)]
    return np.array(a), np.array(b)


def binomial_tail(k: int, d: int) -> Fraction:
    """P(|2X - k| >= d) for X ~ Binomial(k, 1/2), as an exact fraction."""
    return Fraction(sum(math.comb(k, i) for i in range(k + 1) if abs(2 * i - k) >= d),
                    2 ** k)


class TestApproxRandomization:
    def test_identical_outcomes_give_p_one(self):
        outcomes = np.array([i % 2 == 0 for i in range(20)])
        assert approx_randomization(outcomes, outcomes.copy()) == 1.0

    def test_maximal_difference_is_significant(self):
        a = np.ones(20, dtype=bool)
        b = np.zeros(20, dtype=bool)
        assert approx_randomization(a, b) == 2.0 ** -19

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(8)
        for _ in range(6):
            n = int(rng.integers(5, 13))
            a = np.array([bool(rng.integers(2)) for i in range(n)])
            b = np.array([bool(rng.integers(2)) for i in range(n)])
            assert approx_randomization(a, b) == exhaustive_ar_p(a, b)

    def test_equals_the_rounded_comb_sum(self):
        # every k <= 80 and every d of k's parity: one correctly rounded
        # float of the exact tail
        for k in range(81):
            for d in range(k % 2, k + 1, 2):
                a, b = discordant_units((k + d) // 2, (k - d) // 2, concordant=3)
                assert approx_randomization(a, b) == float(binomial_tail(k, d)), (k, d)

    def test_underflow_is_floored_at_the_least_float(self):
        # 10 against 1,480 discordant units: the tail is about 1e-423, below
        # every positive float, so the p-value is the least one and never 0
        a, b = discordant_units(1480, 10)
        assert binomial_tail(1490, 1470) < Fraction(2) ** -1074
        assert approx_randomization(a, b) == 2.0 ** -1074 == math.ulp(0.0)
        a, b = discordant_units(800, 690)
        assert approx_randomization(a, b) == float(binomial_tail(1490, 110)) > 0.0

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(9)
        a = np.array([bool(rng.integers(2)) for i in range(40)])
        b = np.array([bool(rng.integers(2)) for i in range(40)])
        assert approx_randomization(a, b) == approx_randomization(b, a)

    def test_unit_mismatch(self):
        with pytest.raises(ValueError, match="unit"):
            approx_randomization(np.array([True]), np.array([True, False]))

    @pytest.mark.parametrize("a, b", [
        (np.array([1, 0]), np.array([True, True])),
        (np.ones((2, 2), dtype=bool), np.ones((2, 2), dtype=bool)),
    ], ids=["int-array", "two-dimensional"])
    def test_outcomes_must_be_bool_vectors(self, a, b):
        with pytest.raises(ValueError, match="need two bool arrays over the same units"):
            approx_randomization(a, b)

    def test_pooled_seed_units(self):
        # seed-major: entry s * 5 + i is example i under seed s; examples 0
        # and 1 are a's alone under both seeds, so k = d = 4
        a = np.array([True for s in (1, 2) for i in range(5)])
        b = np.array([i > 1 for s in (1, 2) for i in range(5)])
        assert approx_randomization(a, b) == 2 / 16

    @pytest.mark.parametrize("k", [20, 27, 34, 41, 48, 54, 60])
    def test_matches_exact_binomial_tail(self, k):
        # past enumeration: 2^k sign patterns; swapping the k discordant units
        # gives |2 * Binomial(k, 1/2) - k|, whose tail is an integer sum
        rng = np.random.default_rng(k)
        a_only = int(rng.integers(0, k + 1))
        a = [i < a_only for i in range(k)]
        b = [i >= a_only for i in range(k)]
        for i in range(int(rng.integers(0, 50))):
            a.append(bool(rng.integers(2)))
            b.append(a[-1])
        a, b = np.array(a), np.array(b)
        observed = abs(a_only - (k - a_only))
        assert approx_randomization(a, b) == float(binomial_tail(k, observed))

    def test_concordant_units_leave_p_unchanged(self):
        rng = np.random.default_rng(12)
        a = np.array([bool(rng.integers(2)) for i in range(40)])
        b = np.array([bool(rng.integers(2)) for i in range(40)])
        p = approx_randomization(a, b)
        concordant = np.arange(10 ** 5) % 3 == 0
        a, b = np.concatenate([a, concordant]), np.concatenate([b, concordant])
        assert approx_randomization(a, b) == p


class TestDatamap:
    def stats(self):
        return TDStats(ids=["a#noisy", "b", "c"], confidence=np.array([0.2, 1.0, 0.6]),
                       correctness=np.array([1, 6, 3]),
                       variability=np.array([0.1, 0.0, 0.4]))

    def test_csv_rows(self, tmp_path):
        csv_path, svg_path = datamap_export(self.stats(), tmp_path)
        with csv_path.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["example_id", "variability", "confidence",
                           "correctness", "noisy"]
        assert len(rows) == 4
        assert rows[1][0] == "a#noisy" and rows[1][4] == "true"
        assert rows[2][4] == "false"

    def test_top_left_convention(self, tmp_path):
        _, svg_path = datamap_export(self.stats(), tmp_path)
        svg = svg_path.read_text()
        # confidence 1.0 / variability 0.0 lands at the plot's top-left corner
        assert '<circle cx="60.00" cy="20.00"' in svg

    def test_deterministic_bytes(self, tmp_path):
        p1 = datamap_export(self.stats(), tmp_path / "one")
        p2 = datamap_export(self.stats(), tmp_path / "two")
        assert p1[0].read_bytes() == p2[0].read_bytes()
        assert p1[1].read_bytes() == p2[1].read_bytes()


def runlog(best_step, grid=None, values=None):
    return RunLog(loss=np.zeros(0), eval_steps=np.array(grid or [], dtype=np.int64),
                  accuracy=np.array(values or [], dtype=np.float64), best_step=best_step,
                  best_val_metric=1.0)


class TestTimeRatio:
    def test_equal_best_steps(self):
        assert time_ratio(500, 500) == 1.0

    def test_table_entry_shape(self):
        assert time_ratio(560, 1000) == 0.56

    def test_zero_baseline(self):
        with pytest.raises(ValueError):
            time_ratio(10, 0)

    def test_three_seed_aggregation(self):
        agg = aggregate_time_ratios([560, 700, 900], [1000, 1000, 1000])
        assert agg["mean"] == pytest.approx((0.56 + 0.7 + 0.9) / 3)
        assert agg["min"] == 0.56


class TestLearningCurve:
    def test_single_log_zero_std(self):
        rows = learning_curve([runlog(2, [1, 2, 3], [0.1, 0.2, 0.3])])
        assert [r[2] for r in rows] == [0.0, 0.0, 0.0]

    def test_identical_logs(self):
        logs = [runlog(2, [1, 2], [0.4, 0.6]) for _ in range(3)]
        rows = learning_curve(logs)
        assert [r[0] for r in rows] == [1, 2]
        assert [r[1] for r in rows] == pytest.approx([0.4, 0.6])
        assert [r[2] for r in rows] == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_two_point_statistics(self):
        logs = [runlog(1, [5], [0.5]), runlog(1, [5], [0.7])]
        rows = learning_curve(logs)
        assert rows[0][1] == pytest.approx(0.6)
        assert rows[0][2] == pytest.approx(0.1)

    def test_grid_mismatch_names_step(self):
        logs = [runlog(1, [1, 2], [0.1, 0.2]), runlog(1, [1, 3], [0.1, 0.2])]
        with pytest.raises(ValueError, match="2 vs 3"):
            learning_curve(logs)

    def test_no_validation_accuracy_rejected(self, tmp_path):
        """Logs of trainings without a validation split have no curve: an
        error, not an empty curve or a crash in the SVG scaling."""
        for out in ({}, {"out_svg": tmp_path / "curve.svg"}):
            with pytest.raises(ValueError, match="no validation accuracy in the run logs"):
                learning_curve([runlog(3), runlog(3)], **out)
        assert not (tmp_path / "curve.svg").exists()

    def test_csv_and_svg_outputs(self, tmp_path):
        logs = [runlog(1, [1, 2], [0.1, 0.2]), runlog(1, [1, 2], [0.3, 0.4])]
        learning_curve(logs, out_csv=tmp_path / "curve.csv",
                       out_svg=tmp_path / "curve.svg")
        with (tmp_path / "curve.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "mean", "std"]
        assert len(rows) == 3
        assert "<svg" in (tmp_path / "curve.svg").read_text()


class TestCorrelationMatrix:
    def test_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(0)
        ids = [f"e{i}" for i in range(40)]
        metrics = {
            name: {eid: float(v) for eid, v in zip(ids, rng.normal(size=len(ids)))}
            for name in ("m1", "m2", "m3")
        }
        matrix = correlation_matrix(metrics)
        assert matrix.names == ["m1", "m2", "m3"]
        for i in range(3):
            assert matrix.rho[i][i] == 1.0
            for j in range(3):
                assert matrix.rho[i][j] == matrix.rho[j][i]
                assert -1.0 <= matrix.rho[i][j] <= 1.0

    def test_entries_are_spearman_bits(self):
        rng = np.random.default_rng(2)
        ids = [f"e{i}" for i in range(50)]
        metrics = {name: dict(zip(ids, rng.integers(0, 8, size=50).astype(float).tolist()))
                   for name in ("m1", "m2", "m3", "m4")}
        matrix = correlation_matrix(metrics)
        for (i, a), (j, b) in itertools.combinations(enumerate(metrics.values()), 2):
            want = spearman([a[e] for e in sorted(ids)], [b[e] for e in sorted(ids)])
            assert matrix.rho[i][j] == matrix.rho[j][i] == want

    def test_constant_metric_named(self):
        ids = [f"e{i}" for i in range(6)]
        metrics = {"m1": dict(zip(ids, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])),
                   "flat": dict.fromkeys(ids + ["extra"], 5.0),
                   "m3": dict(zip(ids, [6.0, 5.0, 4.0, 3.0, 2.0, 1.0]))}
        with pytest.raises(ValueError, match=r"metric 'flat' is constant over the 6 shared "
                                             r"example ids: spearman is undefined"):
            correlation_matrix(metrics)

    def test_alignment_on_common_ids(self):
        m1 = {"a": 1.0, "b": 2.0, "c": 3.0, "d": 9.0}
        m2 = {"a": 2.0, "b": 4.0, "c": 6.0}
        matrix = correlation_matrix({"m1": m1, "m2": m2})
        assert matrix.rho[0][1] == pytest.approx(1.0)
