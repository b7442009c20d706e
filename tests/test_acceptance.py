"""Acceptance criteria, one test per criterion.

Each test prints a single [ACCEPTANCE nn] PASS/FAIL line. Criteria 5-7
share a pinned pilot (synthetic corpus, fixed seeds); its golden values
were computed once with this exact configuration and are frozen below.
Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import hashlib
import itertools
import json
import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from currikit.analysis import (
    aggregate_time_ratios,
    approx_randomization,
    rank_average_ties,
    spearman,
    time_ratio,
)
from currikit.cli import cmd_student, cmd_sweep, cmd_teacher, load_config
from currikit.corpus import SynthSpec, generate_synthetic
from currikit.curricula import (
    AnnealingSampler,
    CompetenceSampler,
    RandomSampler,
    annealing_stage_pool_sizes,
    build_annealing_plan,
    build_competence_plan,
    competence,
)
from currikit.difficulty import DifficultyScores, from_td
from currikit.dynamics import compute_all, confidence, correctness, variability
from currikit.trainer import TrainConfig, init_params, loss_and_grad, train

# ---- pinned pilot ----------------------------------------------------------

PILOT_SYNTH = SynthSpec(
    num_classes=3, train_size=2000, val_size=500, test_size=500,
    feature_dim=32, class_separation=3.0, label_noise_fraction=0.1,
    ood_shift=1.0, seed=20240613,
)
PILOT_TEACHER_EPOCHS = 6
PILOT_BATCH = 32
PILOT_LR = 1.5
PILOT_TEACHER_SEED = 11
PILOT_STUDENT_SEEDS = (11, 12, 13)

# golden values from the pinned pilot run
GOLD_SP_CONF_CORR = 0.776392
GOLD_SP_VAR_CORR = -0.371361
GOLD_NOISE_AUC = 0.995022


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"[ACCEPTANCE {number:02d}] FAIL - {description}")
        raise
    print(f"[ACCEPTANCE {number:02d}] PASS - {description}")


@pytest.fixture(scope="module")
def pilot():
    """Pilot corpus + teacher dynamics shared by criteria 5-7."""
    train_c, val_c, test_id, test_ood = generate_synthetic(PILOT_SYNTH)
    cfg = TrainConfig(epochs=PILOT_TEACHER_EPOCHS, batch_size=PILOT_BATCH,
                      learning_rate=PILOT_LR, seed=PILOT_TEACHER_SEED)
    sampler = RandomSampler(np.arange(train_c.size), cfg.batch_size,
                            seed=PILOT_TEACHER_SEED)
    started = time.perf_counter()
    _, runlog, probes = train(train_c, val_c, cfg, sampler)
    stats = compute_all(probes)
    return {
        "train": train_c, "val": val_c, "stats": stats, "runlog": runlog,
        "teacher_seconds": time.perf_counter() - started,
    }


def rank_auc(scores, positives):
    """Mann-Whitney AUC of ``scores`` as a detector of ``positives``."""
    ranks = rank_average_ties(scores)
    pos = np.asarray(positives, dtype=bool)
    n_pos = int(pos.sum())
    n_neg = pos.size - n_pos
    return (float(ranks[pos].sum()) - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)


def test_01_dynamics_match_brute_force_oracle():
    with criterion(1, "dynamics equal brute-force evaluation within 1e-12"):
        started = time.perf_counter()
        rng = random.Random(4321)
        for _ in range(200):
            epochs = rng.randint(1, 12)
            probs = [rng.random() for _ in range(epochs)]
            flags = [rng.random() < 0.5 for _ in range(epochs)]

            brute_mean = sum(probs) / epochs
            brute_count = len([f for f in flags if f])
            brute_sd = math.sqrt(
                sum((p - brute_mean) ** 2 for p in probs) / epochs
            )
            assert abs(confidence(probs) - brute_mean) < 1e-12
            assert correctness(flags) == brute_count
            assert abs(variability(probs) - brute_sd) < 1e-12
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_02_gradients_match_finite_differences():
    with criterion(2, "analytic gradients match central differences (<1e-4 rel)"):
        started = time.perf_counter()
        step = 1e-5
        rng = np.random.default_rng(987)
        for hidden in (0, 5):
            for _ in range(30):
                dim = int(rng.integers(2, 7))
                classes = int(rng.integers(2, 5))
                n = int(rng.integers(1, 6))
                params = init_params(dim, classes, hidden_size=hidden,
                                     seed=int(rng.integers(100000)))
                X = rng.normal(size=(n, dim))
                y = rng.integers(0, classes, size=n)
                wd = float(rng.choice([0.0, 0.05]))
                _, (aw, ab) = loss_and_grad(params, X, y, wd)
                for arrs, grads in ((params.weights, aw), (params.biases, ab)):
                    for arr, grad in zip(arrs, grads):
                        flat = arr.reshape(-1)
                        gflat = grad.reshape(-1)
                        for i in range(flat.size):
                            orig = flat[i]
                            flat[i] = orig + step
                            up, _ = loss_and_grad(params, X, y, wd)
                            flat[i] = orig - step
                            down, _ = loss_and_grad(params, X, y, wd)
                            flat[i] = orig
                            fd = (up - down) / (2 * step)
                            denom = max(abs(fd), 1e-6)
                            assert abs(gflat[i] - fd) / denom < 1e-4
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_03_competence_function_and_admission():
    with criterion(3, "competence endpoints exact, strictly monotone, "
                      "admission sizes nondecreasing"):
        c0, duration = 0.01, 737
        assert competence(0, c0, duration) == c0
        assert competence(duration, c0, duration) == 1.0
        grid = np.linspace(0, duration, 1000)
        values = [competence(t, c0, duration) for t in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

        for n, c0_, dur in ((1000, 0.01, 100), (357, 0.2, 41), (64, 1.0, 9)):
            scores = DifficultyScores(
                metric_name="confidence", higher_is_easier=True,
                ids=[f"e{i:05d}" for i in range(n)],
                scores=np.array([1.0 - i / n for i in range(n)]),
            )
            plan = build_competence_plan(scores, c0=c0_, duration=dur)
            sampler = CompetenceSampler(plan, batch_size=4, seed=0)
            counts = [sampler.available_count(t) for t in range(0, dur + 20)]
            assert counts[0] == math.ceil(c0_ * n)
            assert counts[dur] == n
            assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_04_annealing_combinatorics():
    with criterion(4, "annealing buckets, ordering, pool sizes and "
                      "served-id containment over 100 random configs"):
        rng = random.Random(2718)
        for _ in range(100):
            num_epochs = rng.randint(1, 12)
            num_buckets = rng.randint(1, num_epochs + 1)
            values = rng.sample(range(0, num_epochs + 1), num_buckets)
            scores = {}
            for v in values:
                for i in range(rng.randint(1, 40)):
                    scores[f"s{v:02d}_{i:03d}"] = float(v)
            ds = DifficultyScores(metric_name="correctness", ids=list(scores),
                                  scores=np.array(list(scores.values())),
                                  higher_is_easier=True)
            plan = build_annealing_plan(ds, num_epochs=num_epochs)

            assert plan.num_buckets == num_buckets
            bucket_values = [
                {int(scores[plan.ids[row]]) for row in bucket} for bucket in plan.buckets
            ]
            assert all(len(vs) == 1 for vs in bucket_values)
            flat_values = [vs.pop() for vs in bucket_values]
            assert flat_values == sorted(flat_values, reverse=True)

            sizes = annealing_stage_pool_sizes(plan)
            denom = num_epochs + 1
            carry = 0
            for k, bucket in enumerate(plan.buckets):
                assert sizes[k] == len(bucket) + carry
                carry += len(bucket) // denom

            batch = rng.randint(1, min(sizes))
            sampler = AnnealingSampler(plan, batch_size=batch, seed=rng.randint(0, 99))
            step = 0
            for k, size in enumerate(sizes):
                served = []
                for _ in range(math.ceil(size / batch)):
                    served.extend(sampler.next_batch(step))
                    step += 1
                pool = sampler.stage_log[k]
                assert sorted(served) == sorted(pool)  # no out-of-pool row
                assert set(pool) >= set(plan.buckets[k])


def test_05_datamap_noise_separation(pilot):
    with criterion(5, "flipped-label detection: AUC of (1 - confidence) and "
                      "mean-confidence gap"):
        stats = pilot["stats"]
        ids = pilot["train"].ids()
        noisy = np.array([eid.endswith("#noisy") for eid in ids])
        assert noisy.sum() == 200  # floor(0.1 * 2000)
        assert stats.ids == ids
        detector = 1.0 - stats.confidence
        auc = rank_auc(detector, noisy)
        assert auc >= 0.80, f"AUC {auc:.4f} below gate"
        assert auc == pytest.approx(GOLD_NOISE_AUC, abs=0.02), f"AUC {auc:.6f}"
        conf = stats.confidence
        assert conf[noisy].mean() < conf[~noisy].mean()
        assert pilot["teacher_seconds"] < 60.0


def test_06_correlation_signs(pilot):
    with criterion(6, "Spearman(conf, corr) >= 0.7 and Spearman(var, corr) <= 0, "
                      "matching golden pilot values"):
        stats = pilot["stats"]
        assert stats.ids == pilot["train"].ids()
        conf = stats.confidence.tolist()
        corr = stats.correctness.astype(np.float64).tolist()
        var = stats.variability.tolist()
        sp_cc = spearman(conf, corr)
        sp_vc = spearman(var, corr)
        assert sp_cc >= 0.7, f"spearman(conf, corr) = {sp_cc:.4f}"
        assert sp_vc <= 0.0, f"spearman(var, corr) = {sp_vc:.4f}"
        assert sp_cc == pytest.approx(GOLD_SP_CONF_CORR, abs=0.05)
        assert sp_vc == pytest.approx(GOLD_SP_VAR_CORR, abs=0.05)


def test_07_curriculum_non_inferiority(pilot):
    with criterion(7, "corr_anneal and conf+var_comp within 2.0 points of the "
                      "random baseline (3 seeds, mean)"):
        started = time.perf_counter()
        train_c, val_c = pilot["train"], pilot["val"]
        stats = pilot["stats"]
        assert stats.ids == train_c.ids()
        conf_scores = from_td(stats, "confidence")
        corr_scores = from_td(stats, "correctness")

        steps_per_epoch = math.ceil(train_c.size / PILOT_BATCH)
        total = PILOT_TEACHER_EPOCHS * steps_per_epoch
        duration = max(1, round(0.9 * total))

        def run(scheduler, seed):
            cfg = TrainConfig(epochs=PILOT_TEACHER_EPOCHS, batch_size=PILOT_BATCH,
                              learning_rate=PILOT_LR, seed=seed)
            if scheduler == "random":
                sampler = RandomSampler(np.arange(train_c.size), PILOT_BATCH, seed=seed)
            elif scheduler == "corr_anneal":
                plan = build_annealing_plan(corr_scores, PILOT_TEACHER_EPOCHS)
                sampler = AnnealingSampler(plan, PILOT_BATCH, seed=seed)
            else:
                plan = build_competence_plan(
                    conf_scores, c0=0.01, duration=duration, variability_weighted=True,
                )
                sampler = CompetenceSampler(plan, PILOT_BATCH, seed=seed)
            _, runlog, _ = train(train_c, val_c, cfg, sampler, collect_probes=False)
            return runlog.best_val_metric

        means = {}
        for scheduler in ("random", "corr_anneal", "conf+var_comp"):
            accs = [run(scheduler, seed) for seed in PILOT_STUDENT_SEEDS]
            means[scheduler] = sum(accs) / len(accs)
        for scheduler in ("corr_anneal", "conf+var_comp"):
            gap = (means["random"] - means[scheduler]) * 100
            assert gap <= 2.0, (
                f"{scheduler} mean {means[scheduler]:.4f} trails random "
                f"{means['random']:.4f} by {gap:.2f} points"
            )
        elapsed = time.perf_counter() - started
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_08_statistics_unit_checks():
    with criterion(8, "Spearman exact on listed examples; AR exact/enumerated"):
        assert spearman([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0)
        assert spearman([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == pytest.approx(-1.0)
        assert spearman([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5)

        same = np.array([i % 3 == 0 for i in range(30)])
        assert approx_randomization(same, same.copy()) == 1.0

        rng = random.Random(55)
        for _ in range(5):
            n = rng.randint(4, 12)
            a = np.array([rng.random() < 0.5 for i in range(n)])
            b = np.array([rng.random() < 0.5 for i in range(n)])
            d = [int(x) - int(y) for x, y in zip(a, b)]
            observed = abs(sum(d))
            hits = sum(
                1 for signs in itertools.product((1, -1), repeat=n)
                if abs(sum(s * x for s, x in zip(signs, d))) >= observed
            )
            assert approx_randomization(a, b) == hits / 2 ** n


ACCEPT_CONFIG = {
    "synth": {
        "num_classes": 3, "train_size": 300, "val_size": 90, "test_size": 90,
        "feature_dim": 16, "class_separation": 3.5,
        "label_noise_fraction": 0.05, "ood_shift": 1.0, "seed": 424242,
    },
    "train": {"epochs": 2, "batch_size": 25, "learning_rate": 1.0,
              "eval_per_epoch": 4},
    "seeds": [3, 4],
}


def _config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(ACCEPT_CONFIG, indent=2))
    return path


def _hash_tree(root, pattern):
    digests = {}
    for path in sorted(root.rglob(pattern)):
        digests[str(path.relative_to(root))] = hashlib.sha256(
            path.read_bytes()
        ).hexdigest()
    return digests


def test_09_repeat_runs_are_byte_identical(tmp_path):
    with criterion(9, "repeated commands produce byte-identical JSONL artifacts"):
        config = load_config(_config_file(tmp_path))
        hashes = []
        for name in ("one", "two"):
            out = tmp_path / name
            cmd_teacher(config, out, metric="dynamics")
            cmd_student(config, out, "corr_anneal")
            cmd_student(config, out, "conf_comp")
            hashes.append(_hash_tree(out, "*.jsonl"))
        assert hashes[0] == hashes[1]
        assert len(hashes[0]) > 0


def test_10_budget_parity_across_sweep(tmp_path, capsys):
    with criterion(10, "every scheduler consumes exactly the same number of "
                       "optimizer steps"):
        config = load_config(_config_file(tmp_path))
        out = tmp_path / "sweep"
        schedulers = ["random", "corr_anneal", "conf_comp", "rarity"]
        cmd_sweep(config, out, schedulers)
        capsys.readouterr()
        step_counts = set()
        for sched in schedulers:
            summary = json.loads(
                (out / "students" / sched / "summary.json").read_text()
            )
            step_counts.update(summary["total_steps"].values())
            for seed in summary["seeds"]:
                runlog = out / "students" / sched / f"seed_{seed}" / "runlog.jsonl"
                losses = sum(
                    1 for line in runlog.read_text().splitlines()
                    if json.loads(line)["metric"] == "loss"
                )
                step_counts.add(losses)
        assert len(step_counts) == 1


def test_11_time_ratio_convention():
    with criterion(11, "time ratio 560/1000 = 0.56 exactly; mean and min "
                       "across 3 seeds"):
        assert time_ratio(560, 1000) == 0.56
        assert time_ratio(1000, 1000) == 1.0

        agg = aggregate_time_ratios([560, 800, 1000], [1000, 1000, 1000])
        assert agg["mean"] == pytest.approx((0.56 + 0.8 + 1.0) / 3)
        assert agg["min"] == 0.56
