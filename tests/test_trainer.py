import json
import math

import numpy as np
import pytest
from scipy import sparse

from currikit.corpus import Corpus, SynthSpec, generate_synthetic
from currikit.curricula import RandomSampler
from currikit.trainer import (
    ModelParams,
    TrainConfig,
    evaluate,
    init_params,
    loss_and_grad,
    read_probes,
    read_runlog,
    train,
    write_probes,
    write_runlog,
)


def make_corpus(features_labels, num_classes, dim, split="train"):
    """Row i holds the i-th ({index: value}, label) pair, zeros included."""
    n = len(features_labels)
    rows = [sorted(feats.items()) for feats, _ in features_labels]
    matrix = sparse.csr_matrix(
        (np.array([v for row in rows for _, v in row], dtype=np.float64),
         np.array([j for row in rows for j, _ in row], dtype=np.int64),
         np.cumsum([0] + [len(row) for row in rows])),
        shape=(n, dim),
    )
    return Corpus(ids=[f"e{i}" for i in range(n)],
                  labels=[label for _, label in features_labels], matrix=matrix,
                  texts=[(f"t{i}", None) for i in range(n)],
                  tokens=[([f"t{i}"], []) for i in range(n)],
                  num_classes=num_classes, split_name=split,
                  label_names=[f"c{i}" for i in range(num_classes)])


def finite_difference_grads(params, X, y, weight_decay, step=1e-5):
    """Central differences of the loss wrt every parameter entry."""
    wgrads = [np.zeros_like(w) for w in params.weights]
    bgrads = [np.zeros_like(b) for b in params.biases]
    for arrs, grads in ((params.weights, wgrads), (params.biases, bgrads)):
        for arr, grad in zip(arrs, grads):
            flat = arr.reshape(-1)
            gflat = grad.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                up, _ = loss_and_grad(params, X, y, weight_decay)
                flat[i] = orig - step
                down, _ = loss_and_grad(params, X, y, weight_decay)
                flat[i] = orig
                gflat[i] = (up - down) / (2 * step)
    return wgrads, bgrads


class TestLossAndGrad:
    def test_confident_correct_loss_near_zero(self):
        params = ModelParams(weights=[np.array([[50.0, 0.0]])],
                             biases=[np.zeros(2)], hidden_size=0)
        X = np.array([[1.0]])
        loss, _ = loss_and_grad(params, X, np.array([0]))
        assert loss < 1e-6

    def test_uniform_loss_is_log_c(self):
        params = ModelParams(weights=[np.zeros((3, 4))], biases=[np.zeros(4)],
                             hidden_size=0)
        X = np.array([[0.2, -0.1, 0.4], [1.0, 0.0, 0.0]])
        loss, _ = loss_and_grad(params, X, np.array([2, 0]))
        assert loss == pytest.approx(math.log(4), abs=1e-12)

    def test_empty_batch(self):
        params = init_params(3, 2, seed=0)
        with pytest.raises(ValueError):
            loss_and_grad(params, np.zeros((0, 3)), np.zeros(0, dtype=int))

    @pytest.mark.parametrize("hidden", [0, 5])
    def test_gradients_match_finite_differences(self, hidden):
        rng = np.random.default_rng(42)
        for trial in range(25):
            dim = int(rng.integers(2, 7))
            classes = int(rng.integers(2, 5))
            n = int(rng.integers(1, 6))
            params = init_params(dim, classes, hidden_size=hidden,
                                 seed=int(rng.integers(10000)))
            X = rng.normal(size=(n, dim))
            y = rng.integers(0, classes, size=n)
            wd = float(rng.choice([0.0, 0.1]))
            _, (aw, ab) = loss_and_grad(params, X, y, wd)
            fw, fb = finite_difference_grads(params, X, y, wd)
            for a, f in zip(aw + ab, fw + fb):
                denom = np.maximum(np.abs(f), 1e-6)
                assert np.max(np.abs(a - f) / denom) < 1e-4


class TestEvaluate:
    def test_all_correct(self):
        params = ModelParams(weights=[np.array([[5.0, -5.0]])],
                             biases=[np.zeros(2)], hidden_size=0)
        corpus = make_corpus([({0: 1.0}, 0), ({0: 1.0}, 0)], 2, 1)
        assert evaluate(params, corpus) == 1.0

    def test_zero_params_ties_resolve_to_class_zero(self):
        params = ModelParams(weights=[np.zeros((1, 2))], biases=[np.zeros(2)],
                             hidden_size=0)
        corpus = make_corpus(
            [({0: 1.0}, 0), ({0: 2.0}, 1), ({0: 3.0}, 0), ({0: 4.0}, 1)], 2, 1
        )
        assert evaluate(params, corpus) == 0.5

    def test_one_of_four(self):
        params = ModelParams(weights=[np.array([[5.0, -5.0]])],
                             biases=[np.zeros(2)], hidden_size=0)
        corpus = make_corpus(
            [({0: 1.0}, 0), ({0: 1.0}, 1), ({0: 1.0}, 1), ({0: 1.0}, 1)], 2, 1
        )
        assert evaluate(params, corpus) == 0.25

    def test_empty_corpus(self):
        params = init_params(1, 2, seed=0)
        corpus = make_corpus([], 2, 1)
        with pytest.raises(ValueError):
            evaluate(params, corpus)


def random_sampler(corpus, batch_size, seed):
    return RandomSampler(np.arange(corpus.size), batch_size, seed=seed)


@pytest.fixture(scope="module")
def separable():
    spec = SynthSpec(num_classes=2, train_size=200, val_size=50, test_size=50,
                     feature_dim=16, class_separation=5.0,
                     label_noise_fraction=0.0, ood_shift=0.5, seed=7)
    return generate_synthetic(spec)


class TestTrain:
    def test_one_epoch_learns_separable_data(self, separable):
        train_c, val_c, _, _ = separable
        cfg = TrainConfig(epochs=1, batch_size=16, learning_rate=1.0, seed=3)
        params, _, _ = train(train_c, val_c, cfg, random_sampler(train_c, 16, seed=3))
        assert evaluate(params, train_c) >= 0.95

    def test_probes_disabled(self, separable):
        train_c, val_c, _, _ = separable
        cfg = TrainConfig(epochs=1, batch_size=16, learning_rate=1.0, seed=3)
        _, _, probes = train(train_c, val_c, cfg,
                             random_sampler(train_c, 16, seed=3),
                             collect_probes=False)
        assert probes is None

    def test_probe_coverage_every_epoch(self, separable):
        train_c, val_c, _, _ = separable
        cfg = TrainConfig(epochs=3, batch_size=16, learning_rate=1.0, seed=3)
        _, _, probes = train(train_c, val_c, cfg, random_sampler(train_c, 16, seed=3))
        assert probes.ids == train_c.ids()
        assert probes.gold_prob.shape == probes.correct.shape == (3, train_c.size)
        assert probes.correct.dtype == bool

    def test_runlog_byte_identical_for_same_seed(self, separable, tmp_path):
        train_c, val_c, _, _ = separable
        for name in ("a", "b"):
            cfg = TrainConfig(epochs=2, batch_size=16, learning_rate=1.0, seed=5)
            _, log, _ = train(train_c, val_c, cfg, random_sampler(train_c, 16, seed=5))
            write_runlog(log, tmp_path / f"{name}.jsonl")
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_best_val_is_max_of_validation_records(self, separable):
        train_c, val_c, _, _ = separable
        cfg = TrainConfig(epochs=2, batch_size=16, learning_rate=1.0, seed=5)
        _, log, _ = train(train_c, val_c, cfg, random_sampler(train_c, 16, seed=5))
        val_accs = [(s, v) for (s, sp, m, v) in log.records
                    if sp == "validation" and m == "accuracy"]
        assert log.best_val_metric == max(v for _, v in val_accs)
        assert log.best_step in [s for s, v in val_accs
                                 if v == log.best_val_metric]
        steps = [s for (s, _, _, _) in log.records]
        assert steps == sorted(steps)

    def test_smoothed_loss_nonincreasing_first_epoch(self):
        spec = SynthSpec(num_classes=2, train_size=960, val_size=60, test_size=60,
                         feature_dim=16, class_separation=5.0,
                         label_noise_fraction=0.0, ood_shift=0.5, seed=17)
        train_c, val_c, _, _ = generate_synthetic(spec)
        cfg = TrainConfig(epochs=1, batch_size=32, learning_rate=0.5, seed=9)
        _, log, _ = train(train_c, val_c, cfg, random_sampler(train_c, 32, seed=9))
        losses = [v for (_, sp, m, v) in log.records if m == "loss"]
        window = 10
        smoothed = [sum(losses[i:i + window]) / window
                    for i in range(len(losses) - window + 1)]
        assert all(b <= a + 1e-9 for a, b in zip(smoothed, smoothed[1:]))

    def test_sampler_exhaustion_is_hard_error(self, separable):
        train_c, val_c, _, _ = separable

        class Exhausting:
            def __init__(self, rows):
                self.rows = rows

            def epoch_length(self):
                return 5

            def next_batch(self, step):
                return self.rows[:4] if step < 2 else self.rows[:0]

        cfg = TrainConfig(epochs=1, batch_size=4, learning_rate=0.1, seed=0)
        with pytest.raises(RuntimeError, match="exhausted"):
            train(train_c, val_c, cfg, Exhausting(np.arange(train_c.size)))

    def test_non_finite_loss_names_step(self):
        rows = [([1.0, 0.0], 0), ([0.0, 1.0], 1), ([float("nan"), 1.0], 1), ([1.0, 1.0], 0)]
        corpus = make_corpus([({j: v for j, v in enumerate(f)}, label)
                              for f, label in rows], num_classes=2, dim=2)
        cfg = TrainConfig(epochs=1, batch_size=4, learning_rate=0.1, seed=0)
        with pytest.raises(FloatingPointError, match="non-finite training loss nan at step 1"):
            train(corpus, None, cfg, random_sampler(corpus, 4, seed=0))

    def test_no_validation_returns_final_params(self, separable):
        train_c, _, _, _ = separable
        cfg = TrainConfig(epochs=1, batch_size=16, learning_rate=1.0, seed=3)
        params, log, _ = train(train_c, None, cfg, random_sampler(train_c, 16, seed=3))
        assert log.best_step == cfg.epochs * math.ceil(train_c.size / 16)
        assert not any(sp == "validation" for (_, sp, _, _) in log.records)
        assert evaluate(params, train_c) >= 0.95


class TestIO:
    def test_runlog_round_trip(self, tmp_path, separable):
        train_c, val_c, _, _ = separable
        cfg = TrainConfig(epochs=1, batch_size=16, learning_rate=1.0, seed=3)
        _, log, _ = train(train_c, val_c, cfg, random_sampler(train_c, 16, seed=3))
        write_runlog(log, tmp_path / "log.jsonl")
        back = read_runlog(tmp_path / "log.jsonl")
        assert back.records == log.records
        assert back.best_step == log.best_step
        assert back.best_val_metric == log.best_val_metric

    def test_probes_round_trip(self, tmp_path, separable):
        train_c, val_c, _, _ = separable
        cfg = TrainConfig(epochs=2, batch_size=16, learning_rate=1.0, seed=3)
        _, _, probes = train(train_c, val_c, cfg, random_sampler(train_c, 16, seed=3))
        write_probes(probes, tmp_path / "probes.jsonl")
        back = read_probes(tmp_path / "probes.jsonl")
        assert back.ids == probes.ids
        assert np.array_equal(back.gold_prob, probes.gold_prob)
        assert np.array_equal(back.correct, probes.correct)

    def test_ragged_probes_file_names_id(self, tmp_path):
        path = tmp_path / "probes.jsonl"
        lines = [(1, "a"), (1, "b"), (2, "a")]
        path.write_text("".join(
            json.dumps({"epoch": e, "example_id": eid, "gold_prob": 0.5,
                        "correct": True}) + "\n"
            for e, eid in lines
        ))
        with pytest.raises(ValueError, match="'b'"):
            read_probes(path)
