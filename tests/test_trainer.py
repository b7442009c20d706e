import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from currikit import trainer as trainer_module
from currikit.corpus import Corpus, SynthSpec, generate_synthetic
from currikit.curricula import RandomSampler
from currikit.trainer import (
    ModelParams,
    TrainConfig,
    _CSR,
    _BufferSum,
    _PairwiseSum,
    _eval_offsets,
    _forward_matrix,
    _stack,
    evaluate,
    init_params,
    lockstep_group,
    loss_and_grad,
    read_probes,
    read_runlog,
    train,
    train_seeds,
    write_probes,
    write_runlog,
)
from token_pairs import token_columns


# numpy's np.exp and np.log may differ in the last bit across CPUs and
# builds (a SIMD loop or libm). EXP_LOG_DIGEST is their sha256 over fixed
# inputs where TestPinnedBytes' digests were computed; elsewhere those
# digests cannot hold, and the test skips.
EXP_LOG_DIGEST = "6c9303147e9ccd51b447ed792c7380de80b31ece63eebc2c8946019a224262b6"


def exp_log_digest() -> str:
    x = np.linspace(-40.0, 1.0, 4099)
    y = np.geomspace(1e-300, 1.0, 4099)
    return hashlib.sha256(np.exp(x).tobytes() + np.log(y).tobytes()).hexdigest()


EXP_LOG_PINNED = exp_log_digest() == EXP_LOG_DIGEST


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
                  **token_columns([([f"t{i}"], []) for i in range(n)]),
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


@pytest.mark.parametrize("field", ["learning_rate", "weight_decay", "grad_clip"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_train_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        TrainConfig(**{field: value})


def stored_matrix(rng, n, d, index_dtype=np.int32, empty_rows=()):
    """An (n, d) CSR matrix whose stored entries include explicit 0.0 and
    -0.0, with ``index_dtype`` indices and nothing stored in ``empty_rows``."""
    X = rng.normal(size=(n, d))
    stored = rng.random((n, d)) < 0.7
    stored[list(empty_rows)] = False
    X[stored & (rng.random((n, d)) < 0.15)] = 0.0   # explicit zeros
    X[stored & (rng.random((n, d)) < 0.1)] = -0.0   # explicit negative zeros
    X[~stored] = 0.0
    rows, cols = np.nonzero(stored)
    S = sparse.csr_matrix((X[rows, cols], (rows, cols)), shape=(n, d))
    assert S.has_canonical_format and S.nnz == stored.sum()
    # scipy's constructors pick int32 for small matrices; set the dtype.
    S.indices, S.indptr = S.indices.astype(index_dtype), S.indptr.astype(index_dtype)
    return S


class TestOrderedProducts:
    """The _CSR products call scipy's compiled CSR and CSC loops as ``@``
    does, so they equal the public products byte for byte."""

    SIZES = (1, 2, 9, 33)

    @staticmethod
    def assert_products(X, S, W, D):
        for got, want in ((X.dot(W), S @ W), (X.tdot(D), S.T @ D)):
            want = np.asarray(want)
            assert got.flags.c_contiguous and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", SIZES)
    @pytest.mark.parametrize("d", SIZES)
    @pytest.mark.parametrize("n", SIZES)
    def test_equals_csr_products(self, n, d, k):
        rng = np.random.default_rng(n * 10_000 + d * 100 + k)
        S = stored_matrix(rng, n, d)
        W, D = rng.normal(size=(d, k)), rng.normal(size=(n, k))
        # Zero factors make -0.0 products, some of them first terms.
        W[rng.random((d, k)) < 0.2] = 0.0
        D[rng.random((n, k)) < 0.2] = 0.0
        if k > 1:
            W[:, -1] = D[:, -1] = 0.0
        self.assert_products(_CSR.of(S), S, W, D)

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("k", [1, 3])
    def test_gathered_batches(self, index_dtype, k):
        """Batches as the trainer gathers them: empty rows, a repeated row,
        the matrix's index dtype, and one-column outputs (where ``@`` takes
        scipy's single-vector loops)."""
        rng = np.random.default_rng(k)
        S = stored_matrix(rng, 12, 9, index_dtype, empty_rows=(3, 4))
        rows = np.array([4, 0, 7, 7, 3, 11, 0])
        batch = _CSR.of(S).take(rows)
        assert batch.indptr.dtype == batch.indices.dtype == index_dtype
        self.assert_products(batch, S[rows], rng.normal(size=(9, k)), rng.normal(size=(7, k)))


class TestGather:
    """``_CSR.take`` gathers the buffers of ``S[rows]``."""

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(n=st.integers(1, 40), d=st.integers(1, 20), seed=st.integers(0, 2 ** 16),
           batch=st.integers(0, 50), index_dtype=st.sampled_from([np.int32, np.int64]))
    def test_equals_scipy_row_index(self, n, d, seed, batch, index_dtype):
        rng = np.random.default_rng(seed)
        S = stored_matrix(rng, n, d, index_dtype)
        rows = rng.integers(0, n, batch)
        got, want = _CSR.of(S).take(rows), S[rows]
        assert got.n_cols == d
        assert got.indptr.dtype == got.indices.dtype == index_dtype
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert got.data.tobytes() == want.data.tobytes()


def squares(n, low, high, seed):
    """n squares of normals scaled by 10**uniform(low, high)."""
    rng = np.random.default_rng(seed)
    return np.square(rng.normal(size=n) * 10.0 ** rng.uniform(low, high, n))


class TestPairwiseSum:
    """The replica of numpy's pairwise sum equals ``float(np.sum(buffer))``
    bit for bit, from the non-zero positions alone."""

    @staticmethod
    def full_sum(size, index, values):
        buffer = np.zeros(size)
        buffer[index] = values
        return float(np.sum(buffer))

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(size=st.one_of(st.integers(1, 300), st.integers(1, 20_000),
                          st.sampled_from([12_345 * 7, 2 ** 12 * 3, 1021 * 3])),
           density=st.sampled_from([0.0, 1e-4, 0.01, 0.3, 1.0]),
           low=st.integers(-8, 3), span=st.integers(0, 11), seed=st.integers(0, 2 ** 16))
    def test_equals_numpy_sum(self, size, density, low, span, seed):
        rng = np.random.default_rng(seed)
        index = np.flatnonzero(rng.random(size) < density)
        if len(index) > 2:  # an untouched stretch, whole blocks of it
            gap = np.sort(rng.integers(0, size, 2))
            index = index[(index < gap[0]) | (index >= gap[1])]
        values = squares(len(index), low, min(low + span, 3), seed)
        assert _PairwiseSum(index, size)(values) == self.full_sum(size, index, values)

    @pytest.mark.parametrize("size", [1, 7, 8, 9, 100, 127, 128, 129, 136, 12_345 * 7,
                                      2 ** 18 * 3])
    def test_single_position_and_none(self, size):
        for pos in {0, size // 3, size - 1}:
            value = np.array([2.5e-7])
            assert _PairwiseSum(np.array([pos]), size)(value) == 2.5e-7
        assert _PairwiseSum(np.array([], dtype=np.int64), size)(np.zeros(0)) == 0.0

    @pytest.mark.parametrize("rows", [1, 37, 4183, 20_000])
    def test_compact_rows_of_a_wide_matrix(self, rows):
        """The trainer's case: whole rows of a (2^18, 3) gradient."""
        rng = np.random.default_rng(rows)
        used = np.sort(rng.choice(2 ** 18, rows, replace=False))
        index = (used[:, None] * 3 + np.arange(3)).reshape(-1)
        values = squares(len(index), -8, 3, rows)
        pairwise = _PairwiseSum(index, 2 ** 18 * 3)
        want = self.full_sum(2 ** 18 * 3, index, values)
        assert pairwise(values) == want == _BufferSum(index, 2 ** 18 * 3)(values)
        assert pairwise(values * 0.5) == self.full_sum(2 ** 18 * 3, index, values * 0.5)

    def test_probe_passes_on_installed_numpy(self):
        """Fails when a numpy upgrade groups its sums differently: the
        trainer would then fall back to the slower buffer sum."""
        assert trainer_module._pairwise_sum_is_numpys()
        assert trainer_module._PAIRWISE_EXACT

    @pytest.mark.parametrize("block", [16, 32, 64, 256, 512])
    def test_probe_rejects_another_grouping(self, monkeypatch, block):
        monkeypatch.setattr(trainer_module, "_PAIRWISE_BLOCK", block)
        assert not trainer_module._pairwise_sum_is_numpys()


class TestClipGradients:
    def test_stacked_scale_in_place_in_any_layout(self):
        """Two models' stacked gradients are scaled in place, each to its own
        norm, whatever their memory layout."""
        rng = np.random.default_rng(3)
        w, b = rng.normal(size=(8, 3)) * 10, rng.normal(size=(2, 3))
        wc, bc = w.copy(), b.copy()
        wf, bf = np.asfortranarray(w), np.asfortranarray(b)
        norms = trainer_module.clip_gradients([wc], [bc], 0.1, seeds=2)
        assert norms.tolist() == trainer_module.clip_gradients([wf], [bf], 0.1,
                                                               seeds=2).tolist()
        assert wf.tobytes("C") == wc.tobytes() and bf.tobytes("C") == bc.tobytes()
        for s in range(2):
            assert math.hypot(*wc[4 * s:4 * s + 4].ravel(), *bc[s]) == pytest.approx(0.1)
            assert norms[s] == pytest.approx(math.hypot(*w[4 * s:4 * s + 4].ravel(), *b[s]))


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


class TestSoftmax:
    """``_forward_matrix`` takes each row's max as a chain of ``np.maximum``
    over the class columns, and below 8 classes its sum as a chain of
    ``np.add``; its probabilities keep the bytes of the ``np.maximum.reduce``
    and ``np.add.reduce`` form, signed zeros, infinities and NaN included."""

    class Logits(_CSR):
        """A "matrix" whose product is a fixed logits array."""

        def dot(self, W):
            return self.data.copy()

    @pytest.mark.parametrize("classes", [2, 3, 4, 5, 6, 7, 8, 9])
    def test_equals_maximum_reduce(self, classes):
        rng = np.random.default_rng(classes)
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -1.5, 745.0])
        # every pair of special values in the first two columns, then rows
        # mixing special and normal values anywhere
        pairs = np.array(np.meshgrid(special, special)).reshape(2, -1).T
        logits = np.concatenate([
            np.column_stack([pairs, rng.normal(size=(len(pairs), classes - 2))]),
            np.where(rng.random((600, classes)) < 0.3,
                     rng.choice(special, size=(600, classes)),
                     rng.normal(scale=20.0, size=(600, classes)))])
        # a -0.0 bias adds nothing to any value, so the logits are exactly these
        params = ModelParams(weights=[np.zeros((1, classes))],
                             biases=[np.full(classes, -0.0)], hidden_size=0)
        with np.errstate(invalid="ignore", over="ignore"):
            (probs,) = _forward_matrix(_stack([params]), self.Logits(None, None, logits, 1))
            e = np.exp(logits - np.maximum.reduce(logits, axis=-1, keepdims=True))
            want = e / np.add.reduce(e, axis=-1, keepdims=True)
        assert np.isnan(want).any() and (want == 1.0).any()
        assert probs.tobytes() == want.tobytes()


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


def dense_reference(corpus, val_corpus, config, sampler, hidden_size):
    """The full-width trainer step, written out with CSR batches: every row
    of the first weight matrix takes part in every product, norm, update and
    decay.
    Returns the best (or final) parameters, the run-log records, best step,
    gold probabilities, correctness and the number of clipped steps."""
    X, y = corpus.feature_matrix(), corpus.labels()
    params = init_params(corpus.feature_dim, corpus.num_classes, hidden_size, config.seed)
    vel_w = [np.zeros_like(w) for w in params.weights]
    vel_b = [np.zeros_like(b) for b in params.biases]
    epoch_len = sampler.epoch_length()
    evals = set(_eval_offsets(epoch_len, config.eval_per_epoch))
    records, gold, correct = [], [], []
    best, best_acc, best_step, step, clipped = params.copy(), -math.inf, 0, 0, 0
    for _ in range(config.epochs):
        for offset in range(1, epoch_len + 1):
            rows = sampler.next_batch(step)
            loss, (wgrads, bgrads) = loss_and_grad(params, X[rows], y[rows])
            total = 0.0
            for g in wgrads + bgrads:
                total += float(np.sum(g * g))
            norm = math.sqrt(total)
            if norm > config.grad_clip:
                clipped += 1
                for g in wgrads + bgrads:
                    g *= config.grad_clip / norm
            for i, w in enumerate(params.weights):
                vel_w[i] = 0.9 * vel_w[i] + wgrads[i]
                w -= config.learning_rate * vel_w[i]
                if config.weight_decay > 0.0:
                    w *= 1.0 - config.learning_rate * config.weight_decay
            for i, b in enumerate(params.biases):
                vel_b[i] = 0.9 * vel_b[i] + bgrads[i]
                b -= config.learning_rate * vel_b[i]
            step += 1
            records.append((step, "train", "loss", loss))
            if val_corpus is not None and offset in evals:
                acc = evaluate(params, val_corpus)
                records.append((step, "validation", "accuracy", acc))
                if acc > best_acc:
                    best, best_acc, best_step = params.copy(), acc, step
        (probs,) = _forward_matrix(_stack([params]), X)
        gold.append(probs[np.arange(corpus.size), y])
        correct.append(probs.argmax(axis=1) == y)
    if val_corpus is None:
        best, best_step = params.copy(), step
    return best, records, best_step, np.array(gold), np.array(correct), clipped


class TestActiveRows:
    """When at most a quarter of the columns are used by the train matrix,
    the trainer steps only those rows of the first weight matrix; either way
    the result must equal the full-width step bit for bit."""

    DIM = 24
    SPARSE_COLS = (0, 2, 5, 9, 17, 20)  # a quarter: the compact step
    DENSE_COLS = tuple(range(0, 24, 2))  # half: the full-width step

    # 1000 x 3 squares span five levels of numpy's pairwise tree (24 x 3 is
    # one leaf), with tails in some leaves and untouched leaves.
    WIDE_DIM = 1000
    WIDE_COLS = (0, 2, 5, 9, 17, 20, 130, 131, 400, 401, 402, 517, 998, 999)

    def corpora(self, train_cols, dim=DIM):
        rng = np.random.default_rng(5)

        def records(n, cols):
            out = []
            for i in range(n):
                picked = rng.choice(cols, size=int(rng.integers(1, 4)), replace=False)
                out.append(({int(j): float(rng.normal()) for j in picked}, i % 3))
            return out

        train = make_corpus(records(30, train_cols), 3, dim)
        val = make_corpus(records(15, range(dim)), 3, dim, split="validation")
        return train, val

    @pytest.mark.parametrize("hidden", [0, 4])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    @pytest.mark.parametrize("with_validation", [True, False])
    @pytest.mark.parametrize("compact", [True, False])
    def test_matches_full_width_step(self, monkeypatch, hidden, weight_decay,
                                     with_validation, compact):
        train_cols = self.SPARSE_COLS if compact else self.DENSE_COLS
        train_c, val_c = self.corpora(train_cols)
        used = set(np.unique(train_c.feature_matrix().indices).tolist())
        assert used == set(train_cols)
        assert set(np.unique(val_c.feature_matrix().indices).tolist()) - used
        val_c = val_c if with_validation else None
        built = []
        active_rows = trainer_module._ActiveRows
        monkeypatch.setattr(trainer_module, "_ActiveRows",
                            lambda *args: built.append(args) or active_rows(*args))
        cfg = TrainConfig(epochs=3, batch_size=7, learning_rate=0.8,
                          weight_decay=weight_decay, grad_clip=0.5,
                          eval_per_epoch=3, seed=4)
        params, log, probes = train(train_c, val_c, cfg, random_sampler(train_c, 7, seed=2),
                                    hidden_size=hidden)
        assert bool(built) == compact
        ref, records, best_step, gold, correct, clipped = dense_reference(
            train_c, val_c, cfg, random_sampler(train_c, 7, seed=2), hidden)
        assert 0 < clipped < len([r for r in records if r[1] == "train"])
        assert params.weights[0].shape == (self.DIM, hidden or 3)
        for got, want in zip(params.weights + params.biases, ref.weights + ref.biases,
                             strict=True):
            assert got.tobytes() == want.tobytes()
        assert log.records == records
        assert log.best_step == best_step
        assert probes.gold_prob.tobytes() == gold.tobytes()
        assert np.array_equal(probes.correct, correct)

    def train_and_compare(self, train_c, val_c, cfg, hidden):
        """Train compactly and check every output against dense_reference;
        returns the run log."""
        params, log, probes = train(train_c, val_c, cfg, random_sampler(train_c, 7, seed=2),
                                    hidden_size=hidden)
        ref, records, best_step, gold, correct, clipped = dense_reference(
            train_c, val_c, cfg, random_sampler(train_c, 7, seed=2), hidden)
        assert 0 < clipped < len([r for r in records if r[1] == "train"])
        for got, want in zip(params.weights + params.biases, ref.weights + ref.biases,
                             strict=True):
            assert got.tobytes() == want.tobytes()
        assert (log.records, log.best_step) == (records, best_step)
        assert probes.gold_prob.tobytes() == gold.tobytes()
        assert np.array_equal(probes.correct, correct)
        return log

    @pytest.mark.parametrize("hidden", [0, 4])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    @pytest.mark.parametrize("with_validation", [True, False])
    def test_wide_matches_full_width_step(self, monkeypatch, hidden, weight_decay,
                                          with_validation):
        train_c, val_c = self.corpora(self.WIDE_COLS, dim=self.WIDE_DIM)
        assert set(np.unique(train_c.feature_matrix().indices).tolist()) == set(self.WIDE_COLS)
        sums = []
        pairwise = trainer_module._PairwiseSum
        monkeypatch.setattr(trainer_module, "_PairwiseSum",
                            lambda *args: sums.append(pairwise(*args)) or sums[-1])
        cfg = TrainConfig(epochs=3, batch_size=7, learning_rate=0.8,
                          weight_decay=weight_decay, grad_clip=0.5,
                          eval_per_epoch=3, seed=4)
        self.train_and_compare(train_c, val_c if with_validation else None, cfg, hidden)
        assert len(sums) == 1 and len(sums[0]._levels) >= 5

    @pytest.mark.parametrize("hidden", [0, 4])
    def test_decayed_best_checkpoint_before_last_eval(self, monkeypatch, hidden):
        """The frozen rows of a best checkpoint that precedes the last eval
        are redrawn from init_params' stream, in row chunks (5 rows here, so
        the 24 rows take several), with the decays of the best step."""
        train_c, val_c = self.corpora(self.SPARSE_COLS)
        inits, redraws = [], []
        init = trainer_module.init_params
        monkeypatch.setattr(trainer_module, "init_params",
                            lambda *args: inits.append(args) or init(*args))
        redraw = trainer_module._redraw_first_weights
        monkeypatch.setattr(trainer_module, "_redraw_first_weights",
                            lambda *args: redraws.append(args) or redraw(*args, chunk_rows=5))
        cfg = TrainConfig(epochs=3, batch_size=7, learning_rate=0.8, weight_decay=0.05,
                          grad_clip=0.5, eval_per_epoch=3, seed=4)
        log = self.train_and_compare(train_c, val_c, cfg, hidden)
        last_eval = max(step for step, split, _, _ in log.records if split == "validation")
        assert log.best_step < last_eval
        assert len(inits) == 1 and len(redraws) == 1

    @pytest.mark.parametrize("with_validation", [True, False])
    def test_buffer_sum_fallback_same_bits(self, monkeypatch, with_validation):
        train_c, val_c = self.corpora(self.WIDE_COLS, dim=self.WIDE_DIM)
        val_c = val_c if with_validation else None
        cfg = TrainConfig(epochs=2, batch_size=7, learning_rate=0.8, weight_decay=0.05,
                          grad_clip=0.5, eval_per_epoch=3, seed=4)
        runs = []
        for exact in (True, False):
            monkeypatch.setattr(trainer_module, "_PAIRWISE_EXACT", exact)
            built = []
            for name in ("_PairwiseSum", "_BufferSum"):
                real = getattr(trainer_module, name)
                monkeypatch.setattr(trainer_module, name, lambda *args, real=real, name=name:
                                    built.append(name) or real(*args))
            params, log, probes = train(train_c, val_c, cfg, random_sampler(train_c, 7, seed=2))
            runs.append((built, params.weights[0].tobytes(), params.biases[0].tobytes(),
                         log.records, probes.gold_prob.tobytes()))
            monkeypatch.undo()
        assert runs[0][0] == ["_PairwiseSum"] and runs[1][0] == ["_BufferSum"]
        assert runs[0][1:] == runs[1][1:]


class TestMemory:
    """A compact-rows training at hash_dim 2^18 holds one full-width array,
    the weights: no squares buffer and no full-width checkpoint copies."""

    def corpus(self, n, dim, cols, seed, split):
        rng = np.random.default_rng(seed)
        indices = np.sort(rng.choice(cols, size=(n, 12)), axis=1)
        matrix = sparse.csr_matrix((rng.random(n * 12), indices.reshape(-1),
                                    np.arange(0, n * 12 + 1, 12)), shape=(n, dim))
        matrix.sum_duplicates()
        return Corpus(ids=[f"e{i}" for i in range(n)], labels=(np.arange(n) % 3).tolist(),
                      matrix=matrix, texts=[("t", None)] * n,
                      **token_columns([(["t"], [])] * n),
                      num_classes=3, split_name=split, label_names=["a", "b", "c"])

    @pytest.mark.parametrize("with_validation", [True, False])
    def test_peak_below_two_weight_arrays(self, with_validation):
        dim = 2 ** 18
        cols = np.sort(np.random.default_rng(3).choice(dim, 4000, replace=False))
        train_c = self.corpus(300, dim, cols, 1, "train")
        val_c = self.corpus(100, dim, np.arange(dim), 2, "validation") if with_validation else None
        cfg = TrainConfig(epochs=2, batch_size=32, eval_per_epoch=5, seed=1)
        tracemalloc.start()
        try:
            params, log, _ = train(train_c, val_c, cfg, random_sampler(train_c, 32, seed=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert params.weights[0].shape == (dim, 3)
        assert peak < 2 * params.weights[0].nbytes
        if with_validation:
            assert sum(split == "validation" for _, split, _, _ in log.records) == 10

    def test_decayed_early_best_below_two_weight_arrays(self):
        """With weight decay and a best checkpoint before the last eval, the
        frozen rows are rebuilt in row chunks (64 at 2^18): the peak stays
        below 2 x W.nbytes and the weights equal the full-width reference."""
        dim = 2 ** 18
        cols = np.sort(np.random.default_rng(3).choice(dim, 4000, replace=False))
        train_c = self.corpus(300, dim, cols, 1, "train")
        val_c = self.corpus(100, dim, np.arange(dim), 2, "validation")
        cfg = TrainConfig(epochs=2, batch_size=32, eval_per_epoch=5, weight_decay=0.05,
                          seed=1)
        tracemalloc.start()
        try:
            params, log, _ = train(train_c, val_c, cfg, random_sampler(train_c, 32, seed=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert log.best_step < max(s for s, split, _, _ in log.records if split == "validation")
        assert peak < 2 * params.weights[0].nbytes
        ref = dense_reference(train_c, val_c, cfg, random_sampler(train_c, 32, seed=1), 0)[0]
        for got, want in zip(params.weights + params.biases, ref.weights + ref.biases,
                             strict=True):
            assert got.tobytes() == want.tobytes()

    def test_three_seeds_below_two_weight_arrays(self):
        """At 2^18 every lockstep group is one seed; a caller that drops each
        result before asking for the next holds one model at a time."""
        dim = 2 ** 18
        cols = np.sort(np.random.default_rng(3).choice(dim, 4000, replace=False))
        train_c = self.corpus(300, dim, cols, 1, "train")
        val_c = self.corpus(100, dim, np.arange(dim), 2, "validation")
        configs = [TrainConfig(epochs=2, batch_size=32, eval_per_epoch=5, seed=s)
                   for s in (1, 2, 3)]
        samplers = [random_sampler(train_c, 32, seed=s) for s in (1, 2, 3)]
        shapes = []
        tracemalloc.start()
        try:
            for [(params, _, _)] in train_seeds(train_c, val_c, configs, samplers):
                shapes.append(params.weights[0].shape)
                nbytes = params.weights[0].nbytes
                del params
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert shapes == [(dim, 3)] * 3
        assert peak < 2 * nbytes


class TestDenseBatches:
    """A train matrix at least half non-zero (the synthetic pilot's form)
    takes the same CSR step as any other; the result must equal the
    full-width reference bit for bit."""

    DIM = 12

    def corpora(self):
        rng = np.random.default_rng(8)

        def records(n, low):
            out = []
            for i in range(n):
                picked = rng.choice(self.DIM, size=int(rng.integers(low, self.DIM + 1)),
                                    replace=False)
                values = rng.normal(size=len(picked))
                values[rng.random(len(picked)) < 0.1] = 0.0  # stored zeros
                out.append(({int(j): float(v) for j, v in zip(picked, values)}, i % 3))
            return out

        train = make_corpus(records(30, self.DIM // 2), 3, self.DIM)
        val = make_corpus(records(15, 1), 3, self.DIM, split="validation")
        return train, val

    @pytest.mark.parametrize("hidden", [0, 4])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    @pytest.mark.parametrize("with_validation", [True, False])
    def test_matches_csr_batches(self, hidden, weight_decay,
                                 with_validation):
        train_c, val_c = self.corpora()
        X = train_c.feature_matrix()
        assert 2 * X.nnz >= X.shape[0] * X.shape[1] and 0.0 in X.data
        val_c = val_c if with_validation else None
        cfg = TrainConfig(epochs=3, batch_size=7, learning_rate=0.8,
                          weight_decay=weight_decay, grad_clip=1.0,
                          eval_per_epoch=3, seed=4)
        params, log, probes = train(train_c, val_c, cfg, random_sampler(train_c, 7, seed=2),
                                    hidden_size=hidden)
        ref, records, best_step, gold, correct, clipped = dense_reference(
            train_c, val_c, cfg, random_sampler(train_c, 7, seed=2), hidden)
        assert 0 < clipped < len([r for r in records if r[1] == "train"])
        for got, want in zip(params.weights + params.biases, ref.weights + ref.biases,
                             strict=True):
            assert got.tobytes() == want.tobytes()
        assert log.records == records
        assert log.best_step == best_step
        assert probes.gold_prob.tobytes() == gold.tobytes()
        assert np.array_equal(probes.correct, correct)

    @pytest.mark.parametrize("dim", [256, 257])
    def test_large_products_match_reference(self, dim):
        """batch 8 x dim columns x 4 classes, every column used."""
        rng = np.random.default_rng(3)
        train_c = make_corpus([(dict(enumerate(rng.normal(size=dim).tolist())), i % 4)
                               for i in range(24)], 4, dim)
        cfg = TrainConfig(epochs=1, batch_size=8, seed=1)
        params, log, _ = train(train_c, None, cfg, random_sampler(train_c, 8, seed=1),
                               collect_probes=False)
        ref, records = dense_reference(train_c, None, cfg, random_sampler(train_c, 8, seed=1),
                                       0)[:2]
        assert len(records) == 3 and log.records == records
        for got, want in zip(params.weights + params.biases, ref.weights + ref.biases,
                             strict=True):
            assert got.tobytes() == want.tobytes()


class RaggedSampler:
    """Full batches at even steps; at odd steps a length that depends on the
    seed, so seeds trained in lockstep get batches of different lengths."""

    def __init__(self, n, batch_size, seed):
        self.n, self.batch_size, self.seed = n, batch_size, seed
        self.rng = np.random.default_rng(seed)

    def epoch_length(self):
        return math.ceil(self.n / self.batch_size)

    def next_batch(self, step):
        size = self.batch_size if step % 2 == 0 else 1 + (step + self.seed) % self.batch_size
        return self.rng.integers(0, self.n, size=size)


def same_result(got, want):
    """Two (params, run log, probes) results are equal byte for byte."""
    (params, log, probes), (ref, ref_log, ref_probes) = got, want
    for a, b in zip(params.weights + params.biases, ref.weights + ref.biases, strict=True):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert log.records == ref_log.records
    assert log.best_step == ref_log.best_step
    assert repr(log.best_val_metric) == repr(ref_log.best_val_metric)
    assert (probes is None) == (ref_probes is None)
    if probes is not None:
        assert probes.ids == ref_probes.ids
        assert probes.gold_prob.tobytes() == ref_probes.gold_prob.tobytes()
        assert probes.correct.tobytes() == ref_probes.correct.tobytes()


class TestLockstep:
    """``train_seeds`` trains the seeds of one config as one stack of models;
    each seed's weights, biases, run log, best step and probes must equal
    its own ``train`` call byte for byte."""

    SEEDS = (4, 5, 6)

    def configs(self, weight_decay=0.0, seeds=SEEDS):
        return [TrainConfig(epochs=3, batch_size=7, learning_rate=0.8,
                            weight_decay=weight_decay, grad_clip=0.5, eval_per_epoch=3,
                            seed=seed) for seed in seeds]

    @staticmethod
    def samplers(sampler, train_c, seeds=SEEDS):
        return [sampler(train_c.size, 7, seed=seed + 10) for seed in seeds]

    @staticmethod
    def record_forms(monkeypatch):
        """Whether each 3-seed batch had equal lengths."""
        forms = []
        rows = trainer_module._SeedRows

        def seed_rows(sizes):
            built = rows(sizes)
            if len(sizes) == 3:
                forms.append(built.equal)
            return built

        monkeypatch.setattr(trainer_module, "_SeedRows", seed_rows)
        return forms

    @pytest.mark.parametrize("sampler", ["random", "ragged"])
    @pytest.mark.parametrize("hidden", [0, 4])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    @pytest.mark.parametrize("with_validation", [True, False])
    @pytest.mark.parametrize("compact", [True, False])
    def test_equals_sequential_trainings(self, monkeypatch, sampler, hidden, weight_decay,
                                         with_validation, compact):
        cols = TestActiveRows.SPARSE_COLS if compact else TestActiveRows.DENSE_COLS
        train_c, val_c = TestActiveRows().corpora(cols)
        val_c = val_c if with_validation else None
        make = (lambda n, b, seed: RandomSampler(np.arange(n), b, seed=seed)) \
            if sampler == "random" else RaggedSampler
        want = [train(train_c, val_c, cfg, s, hidden_size=hidden)
                for cfg, s in zip(self.configs(weight_decay), self.samplers(make, train_c))]
        active = []
        active_rows = trainer_module._ActiveRows
        monkeypatch.setattr(trainer_module, "_ActiveRows",
                            lambda *args: active.append(args) or active_rows(*args))
        forms = self.record_forms(monkeypatch)
        stacks = list(train_seeds(train_c, val_c, self.configs(weight_decay),
                                  self.samplers(make, train_c), hidden_size=hidden))
        assert [len(stack) for stack in stacks] == [3] and bool(active) == compact
        assert set(forms) == ({True, False} if sampler == "ragged" else {True})
        for result, ref in zip(stacks[0], want):
            same_result(result, ref)

    def test_groups_hold_at_most_lockstep_group_seeds(self, monkeypatch):
        """With room for two seeds a stack, three seeds train as 2 + 1."""
        train_c, val_c = TestActiveRows().corpora(TestActiveRows.DENSE_COLS)
        assert lockstep_group(2 ** 18) == 1 and lockstep_group(2 ** 16) == 4
        assert lockstep_group(2 ** 20) == 1 and lockstep_group(24) == 2 ** 18 // 24
        monkeypatch.setattr(trainer_module, "DEFAULT_HASH_DIM", 2 * train_c.feature_dim + 1)
        make = lambda n, b, seed: RandomSampler(np.arange(n), b, seed=seed)  # noqa: E731
        stacks = list(train_seeds(train_c, val_c, self.configs(), self.samplers(make, train_c)))
        assert [len(stack) for stack in stacks] == [2, 1]
        monkeypatch.undo()
        got = [result for stack in stacks for result in stack]
        for result, cfg, s in zip(got, self.configs(), self.samplers(make, train_c), strict=True):
            same_result(result, train(train_c, val_c, cfg, s))

    @pytest.mark.parametrize("field, value", [("learning_rate", 0.7), ("epochs", 2),
                                              ("weight_decay", 0.01), ("eval_per_epoch", 4)])
    def test_configs_differing_beyond_seed_raise(self, field, value):
        train_c, val_c = TestActiveRows().corpora(TestActiveRows.DENSE_COLS)
        configs = self.configs()
        configs[1] = TrainConfig(**{**vars(configs[1]), field: value})
        make = lambda n, b, seed: RandomSampler(np.arange(n), b, seed=seed)  # noqa: E731
        with pytest.raises(ValueError, match="differ only in seed"):
            train_seeds(train_c, val_c, configs, self.samplers(make, train_c))

    def test_epoch_lengths_differing_raise(self):
        train_c, val_c = TestActiveRows().corpora(TestActiveRows.DENSE_COLS)
        samplers = [RandomSampler(np.arange(train_c.size), b, seed=1) for b in (7, 7, 10)]
        with pytest.raises(ValueError, match=r"epoch lengths \[3, 5\]"):
            train_seeds(train_c, val_c, self.configs(), samplers)

    def test_configs_and_samplers_pair_up(self):
        train_c, val_c = TestActiveRows().corpora(TestActiveRows.DENSE_COLS)
        with pytest.raises(ValueError, match="3 configs for 2 samplers"):
            train_seeds(train_c, val_c, self.configs(),
                        [RandomSampler(np.arange(train_c.size), 7, seed=1)] * 2)
        with pytest.raises(ValueError, match="0 configs for 0 samplers"):
            train_seeds(train_c, val_c, [], [])


class TestPinnedBytes:
    """A small seeded linear training's weights, biases and run log, pinned
    by sha256 (computed before seeds trained in lockstep), alone and as the
    first seed of a three-seed stack."""

    SPEC = SynthSpec(num_classes=3, train_size=200, val_size=50, test_size=50,
                     feature_dim=16, class_separation=3.0, label_noise_fraction=0.1,
                     ood_shift=0.5, seed=7)

    @staticmethod
    def digest(result, tmp_path):
        params, log, _ = result
        write_runlog(log, tmp_path / "runlog.jsonl")
        h = hashlib.sha256()
        for a in params.weights + params.biases:
            h.update(a.tobytes())
        h.update((tmp_path / "runlog.jsonl").read_bytes())
        return h.hexdigest()

    @pytest.mark.parametrize("with_validation, best_step, digest", [
        (True, 20, "7d0106842cafb8a0bfdfac6143f170a7f033e3094a7be74cea7a8adf442384b3"),
        (False, 39, "57016f0f08c9570f7331409fb5057bdbaef229f50c13d47e702c2af5f3e3b1f9"),
    ])
    def test_training_bytes(self, tmp_path, with_validation, best_step, digest):
        if not EXP_LOG_PINNED:
            pytest.skip("np.exp/np.log round differently on this machine than where "
                        "the digests were computed")
        train_c, val_c, _, _ = generate_synthetic(self.SPEC)
        val_c = val_c if with_validation else None
        configs = [TrainConfig(epochs=3, batch_size=16, learning_rate=1.5,
                               eval_per_epoch=4, seed=seed) for seed in (5, 6, 7)]
        samplers = [random_sampler(train_c, 16, seed=seed) for seed in (5, 6, 7)]
        alone = train(train_c, val_c, configs[0], random_sampler(train_c, 16, seed=5))
        stacked = next(train_seeds(train_c, val_c, configs, samplers))[0]
        for result in (alone, stacked):
            assert result[1].best_step == best_step
            assert self.digest(result, tmp_path) == digest


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
