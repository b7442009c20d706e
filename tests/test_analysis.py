import csv
import itertools
import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from currikit.analysis import (
    aggregate_time_ratios,
    approx_randomization,
    correlation_matrix,
    datamap_export,
    learning_curve,
    spearman,
    time_ratio,
)
from currikit.dynamics import TDStats
from currikit.trainer import RunLog


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


def exhaustive_ar_p(a: dict, b: dict) -> float:
    """Enumerate all 2^n sign patterns of the per-unit differences."""
    units = sorted(a)
    d = [int(a[u]) - int(b[u]) for u in units]
    observed = abs(sum(d))
    hits = 0
    for signs in itertools.product((1, -1), repeat=len(d)):
        if abs(sum(s * x for s, x in zip(signs, d))) >= observed:
            hits += 1
    return hits / 2 ** len(d)


class TestApproxRandomization:
    def test_identical_outcomes_give_p_one(self):
        outcomes = {f"u{i}": i % 2 == 0 for i in range(20)}
        assert approx_randomization(outcomes, dict(outcomes), rounds=500) == 1.0

    def test_maximal_difference_is_significant(self):
        a = {f"u{i}": True for i in range(20)}
        b = {f"u{i}": False for i in range(20)}
        assert approx_randomization(a, b, rounds=10000, seed=1) <= 0.01

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(8)
        rounds = 20000
        for trial in range(6):
            n = int(rng.integers(5, 13))
            a = {f"u{i}": bool(rng.integers(2)) for i in range(n)}
            b = {f"u{i}": bool(rng.integers(2)) for i in range(n)}
            exact = exhaustive_ar_p(a, b)
            estimate = approx_randomization(a, b, rounds=rounds, seed=trial)
            # the estimator's expectation includes the +1 smoothing
            expected = (rounds * exact + 1) / (rounds + 1)
            se = math.sqrt(max(exact * (1 - exact), 1e-12) / rounds)
            assert abs(estimate - expected) <= 3 * se + 1e-9

    def test_symmetry_exact_for_fixed_seed(self):
        rng = np.random.default_rng(9)
        a = {f"u{i}": bool(rng.integers(2)) for i in range(40)}
        b = {f"u{i}": bool(rng.integers(2)) for i in range(40)}
        assert approx_randomization(a, b, rounds=3000, seed=5) == \
            approx_randomization(b, a, rounds=3000, seed=5)

    def test_unit_mismatch(self):
        with pytest.raises(ValueError, match="unit"):
            approx_randomization({"a": True}, {"b": True})

    def test_pooled_seed_units(self):
        a = {(f"e{i}", s): True for i in range(5) for s in (1, 2)}
        b = {(f"e{i}", s): i > 1 for i in range(5) for s in (1, 2)}
        p = approx_randomization(a, b, rounds=2000, seed=0)
        assert 0.0 < p <= 1.0

    @pytest.mark.parametrize("k", [20, 27, 34, 41, 48, 54, 60])
    def test_matches_exact_binomial_tail(self, k):
        # past enumeration: 2^k sign patterns; swapping the k discordant units
        # gives |2 * Binomial(k, 1/2) - k|, whose tail scipy computes exactly
        rng = np.random.default_rng(k)
        a_only = int(rng.integers(0, k + 1))
        a, b = {}, {}
        for i in range(k):
            a[f"d{i}"], b[f"d{i}"] = i < a_only, i >= a_only
        for i in range(int(rng.integers(0, 50))):
            a[f"c{i}"] = b[f"c{i}"] = bool(rng.integers(2))
        rounds = 20000
        observed = abs(a_only - (k - a_only))
        swapped = np.arange(k + 1)
        exact = float(scipy_stats.binom.pmf(swapped, k, 0.5)[
            np.abs(2 * swapped - k) >= observed].sum())
        estimate = approx_randomization(a, b, rounds=rounds, seed=k)
        expected = (rounds * exact + 1) / (rounds + 1)
        se = math.sqrt(max(exact * (1 - exact), 1e-12) / rounds)
        assert abs(estimate - expected) <= 3 * se + 1e-9

    def test_concordant_units_leave_p_unchanged(self):
        rng = np.random.default_rng(12)
        a = {f"u{i}": bool(rng.integers(2)) for i in range(40)}
        b = {f"u{i}": bool(rng.integers(2)) for i in range(40)}
        p = approx_randomization(a, b, rounds=5000, seed=3)
        for i in range(10 ** 5):
            a[f"c{i}"] = b[f"c{i}"] = i % 3 == 0
        assert approx_randomization(a, b, rounds=5000, seed=3) == p


class TestDatamap:
    def stats(self):
        return {
            "a#noisy": TDStats("a#noisy", confidence=0.2, correctness=1,
                               variability=0.1),
            "b": TDStats("b", confidence=1.0, correctness=6, variability=0.0),
            "c": TDStats("c", confidence=0.6, correctness=3, variability=0.4),
        }

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
    records = []
    if grid:
        records = [(s, "validation", "accuracy", v) for s, v in zip(grid, values)]
    return RunLog(records=records, best_step=best_step, best_val_metric=1.0)


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

    def test_alignment_on_common_ids(self):
        m1 = {"a": 1.0, "b": 2.0, "c": 3.0, "d": 9.0}
        m2 = {"a": 2.0, "b": 4.0, "c": 6.0}
        matrix = correlation_matrix({"m1": m1, "m2": m2})
        assert matrix.rho[0][1] == pytest.approx(1.0)
