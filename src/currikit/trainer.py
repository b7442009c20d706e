"""Softmax classifier (optional tanh hidden layer) trained with
deterministic mini-batch SGD.

Batches come from a pluggable sampler so curricula control data order;
the trainer itself never inspects difficulty. Validation accuracy is
logged on a fixed step grid, the best checkpoint is kept in memory, and
an end-of-epoch inference pass over the whole train set fills one row of
the (epochs, N) gold-label probability and correctness arrays of a Probes
record, columns in corpus row order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol

import numpy as np
from scipy import sparse

from .artifacts import read_jsonl, write_jsonl
from .corpus import Corpus


class Sampler(Protocol):
    """Contract consumed by train(): train-corpus rows per batch, batches per epoch."""

    def next_batch(self, step: int) -> np.ndarray: ...

    def epoch_length(self) -> int: ...


@dataclass
class ModelParams:
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    hidden_size: int  # 0 = linear model

    def copy(self) -> "ModelParams":
        return ModelParams(
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            hidden_size=self.hidden_size,
        )


@dataclass
class TrainConfig:
    epochs: int = 5
    batch_size: int = 32
    learning_rate: float = 0.1
    weight_decay: float = 0.0
    grad_clip: float = 1.0
    eval_per_epoch: int = 10
    seed: int = 0

    def __post_init__(self):
        for name in ("learning_rate", "weight_decay", "grad_clip"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if self.grad_clip <= 0:
            raise ValueError("grad_clip must be > 0")
        if self.eval_per_epoch <= 0:
            raise ValueError("eval_per_epoch must be positive")


@dataclass
class Probes:
    """End-of-epoch snapshots over the entire train set: row e is epoch
    e + 1, column i is example ``ids[i]``."""

    ids: list[str]
    gold_prob: np.ndarray  # (epochs, N) gold-label probability
    correct: np.ndarray    # (epochs, N) bool, prediction equals the gold label


@dataclass
class RunLog:
    records: list[tuple[int, str, str, float]]
    best_step: int
    best_val_metric: float


def init_params(
    feature_dim: int, num_classes: int, hidden_size: int = 0, seed: int = 0
) -> ModelParams:
    rng = np.random.default_rng(seed)
    if hidden_size > 0:
        shapes = [(feature_dim, hidden_size), (hidden_size, num_classes)]
    else:
        shapes = [(feature_dim, num_classes)]
    weights = [
        rng.normal(0.0, 1.0 / math.sqrt(fan_in), size=(fan_in, fan_out))
        for fan_in, fan_out in shapes
    ]
    biases = [np.zeros(fan_out) for _, fan_out in shapes]
    return ModelParams(weights=weights, biases=biases, hidden_size=max(hidden_size, 0))


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _ordered_tdot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``A.T @ B`` as a C-ordered array, each output summed over the rows
    of ``A`` and ``B`` in index order, starting from 0.0.

    That is the order of scipy's CSR and CSC matvec loops, so for an array
    ``X``, a canonical CSR ``S`` with the same entries and finite ``W`` and
    ``D``, ``_ordered_tdot(X.T, W)`` equals ``S @ W`` and
    ``_ordered_tdot(X, D)`` equals ``S.T @ D`` bit for bit: a term that ``S``
    does not store is a zero product, which only changes the sign of a zero
    sum, and the final ``+ 0.0`` maps -0.0 to scipy's 0.0 start. BLAS ``@``
    groups the terms differently, and ``np.add.reduce`` sums pairwise when
    the output has one element. (Equality also needs scipy's loops compiled
    without fused multiply-adds, as in its x86-64 wheels.)
    """
    terms = np.multiply(B[:, :, None], A[:, None, :])  # (terms, out, rows)
    np.add.accumulate(terms, axis=0, out=terms)
    return np.add(terms[-1].T, 0.0, order="C")


def _forward_matrix(params: ModelParams, X) -> tuple[np.ndarray, np.ndarray | None]:
    """Probabilities for a (N, dim) CSR matrix or array, the same bits for
    either; returns hidden activations too."""
    if X.shape[1] != params.weights[0].shape[0]:
        raise ValueError(
            f"feature dim {X.shape[1]} does not match model input "
            f"dim {params.weights[0].shape[0]}"
        )
    first = (_ordered_tdot(X.T, params.weights[0]) if isinstance(X, np.ndarray)
             else np.asarray(X @ params.weights[0]))
    if params.hidden_size > 0:
        hidden = np.tanh(first + params.biases[0])
        logits = hidden @ params.weights[1] + params.biases[1]
        return _softmax(logits), hidden
    return _softmax(first + params.biases[0]), None


def loss_and_grad(
    params: ModelParams, X, y: np.ndarray, weight_decay: float = 0.0
) -> tuple[float, tuple[list[np.ndarray], list[np.ndarray]]]:
    """Mean cross-entropy over the batch and its analytic gradients.

    With ``weight_decay`` > 0 an L2 penalty (weights only) is added to both
    the loss and the gradients; the trainer instead applies decay decoupled
    in its update step and calls this with 0.
    """
    n = X.shape[0]
    if n == 0:
        raise ValueError("empty batch")
    probs, hidden = _forward_matrix(params, X)
    gold = probs[np.arange(n), y]
    loss = float(-np.mean(np.log(np.clip(gold, 1e-300, None))))

    dlogits = probs.copy()
    dlogits[np.arange(n), y] -= 1.0
    dlogits /= n

    def input_grad(D: np.ndarray) -> np.ndarray:
        return _ordered_tdot(X, D) if isinstance(X, np.ndarray) else np.asarray(X.T @ D)

    if params.hidden_size > 0:
        g_w2 = hidden.T @ dlogits
        g_b2 = dlogits.sum(axis=0)
        dh = (dlogits @ params.weights[1].T) * (1.0 - hidden * hidden)
        g_w1 = input_grad(dh)
        g_b1 = dh.sum(axis=0)
        wgrads, bgrads = [g_w1, g_w2], [g_b1, g_b2]
    else:
        wgrads = [input_grad(dlogits)]
        bgrads = [dlogits.sum(axis=0)]

    if weight_decay > 0.0:
        for i, w in enumerate(params.weights):
            loss += 0.5 * weight_decay * float(np.sum(w * w))
            wgrads[i] = wgrads[i] + weight_decay * w
    return loss, (wgrads, bgrads)


def clip_gradients(
    wgrads: list[np.ndarray], bgrads: list[np.ndarray], max_norm: float,
    squares: tuple[np.ndarray, np.ndarray] | None = None,
) -> float:
    """Scale all gradients in place to a global L2 norm of at most
    ``max_norm``; returns the pre-clip norm.

    ``squares`` is (index, buffer) when ``wgrads[0]`` holds only some rows
    of a full gradient that is zero elsewhere: ``buffer`` is a zero array of
    the full shape and ``index`` the flat position in it of each element of
    ``wgrads[0]``. The squares are written there and the whole buffer is
    summed, so the norm equals the full gradient's bit for bit (summing the
    compact rows alone groups the terms differently).
    """
    total = 0.0
    for i, g in enumerate(wgrads + bgrads):
        sq = g * g
        if i == 0 and squares is not None:
            index, sq_full = squares
            sq_full.reshape(-1)[index] = sq.reshape(-1)
            sq = sq_full
        total += float(np.sum(sq))
    norm = math.sqrt(total)
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for g in wgrads + bgrads:
            g *= scale
    return norm


def predict(params: ModelParams, corpus: Corpus) -> np.ndarray:
    """Argmax class per example; ties go to the lowest class index."""
    probs, _ = _forward_matrix(params, corpus.feature_matrix())
    return probs.argmax(axis=1)


def evaluate(params: ModelParams, corpus: Corpus) -> float:
    if corpus.size == 0:
        raise ValueError("cannot evaluate on an empty corpus")
    return float(np.mean(predict(params, corpus) == corpus.labels()))


class _ActiveRows:
    """Training on the rows of ``weights[0]`` whose feature columns the train
    matrix uses; the other rows are frozen.

    A frozen row has zero gradient and zero velocity at every step, so only
    decoupled weight decay moves it: one ``*= (1 - lr * wd)`` per step. Those
    factors are owed and applied, one multiply each, by ``sync``, which also
    scatters the trained rows into the full-width ``full``. ``params`` is the
    compact model: its ``weights[0]`` holds the active rows, and it shares
    every other array with ``full``. ``X`` is the train matrix with its
    columns renumbered to match; its rows keep their entries in order, so
    products with it equal the full-width ones bit for bit.
    """

    def __init__(self, X, full: ModelParams, rows: np.ndarray):
        self.full = full
        self.rows = rows
        col_of = np.empty(X.shape[1], dtype=X.indices.dtype)
        col_of[rows] = np.arange(len(rows))
        self.X = sparse.csr_matrix((X.data, col_of[X.indices], X.indptr),
                                   shape=(X.shape[0], len(rows)))
        self.params = ModelParams(weights=[full.weights[0][rows], *full.weights[1:]],
                                  biases=full.biases, hidden_size=full.hidden_size)
        width = full.weights[0].shape[1]
        self.squares = ((rows[:, None] * width + np.arange(width)).reshape(-1),
                        np.zeros_like(full.weights[0]))
        self.owed = 0  # decay steps not yet applied to the frozen rows

    def sync(self, decay: float) -> None:
        W = self.full.weights[0]
        for _ in range(self.owed):
            W *= decay
        self.owed = 0
        W[self.rows] = self.params.weights[0]


def _eval_offsets(epoch_len: int, per_epoch: int) -> list[int]:
    # k-th eval after ceil(k*L/per_epoch) batches; epoch end always included.
    offsets = {math.ceil(k * epoch_len / per_epoch) for k in range(1, per_epoch + 1)}
    offsets.add(epoch_len)
    return sorted(offsets)


def train(
    corpus: Corpus,
    val_corpus: Corpus | None,
    config: TrainConfig,
    sampler: Sampler,
    hidden_size: int = 0,
    collect_probes: bool = True,
) -> tuple[ModelParams, RunLog, Probes | None]:
    """Run ``config.epochs`` epochs of batches drawn from ``sampler``.

    Optimizer is SGD with momentum 0.9, global-norm gradient clipping and
    decoupled weight decay. Returns the parameters of the best validation
    checkpoint (final parameters when ``val_corpus`` is None), the run log,
    and the probes, one row per epoch (None when ``collect_probes`` is
    False). Probes always cover the entire train corpus, whatever the
    sampler admitted.
    """
    X = corpus.feature_matrix()
    y = corpus.labels()

    params = init_params(corpus.feature_dim, corpus.num_classes, hidden_size, config.seed)
    # Rows of weights[0] whose columns the train split never uses stay frozen
    # when they are most rows: each step then saves work on every frozen row
    # but scatters the used ones. On a 2-core x86-64 host the compact step
    # beat the full-width one at 23% of columns used, tied at 41% and lost by
    # 9-17% at 65% and above, so it runs only when at most a quarter is used.
    used = np.flatnonzero(np.bincount(X.indices, minlength=X.shape[1]))
    active = _ActiveRows(X, params, used) if 4 * len(used) <= X.shape[1] else None
    step_params, step_X, squares = ((params, X, None) if active is None
                                    else (active.params, active.X, active.squares))
    # A 32-row scipy gather costs about 100 us, an array one about 5 us. So a
    # matrix at least half non-zero is copied dense once (no larger than its
    # CSR data and int64 indices) and batches are gathered from the copy;
    # loss_and_grad sums their products in CSR order, for the same bits. That
    # needs CSR entries in column order with no duplicates (canonical format).
    # Those ordered sums cost about 6 ns a term against scipy's 1 ns, so the
    # copy pays only for small products: on a 2-core x86-64 host the dense
    # step won up to 9,216 terms (batch x columns x outputs), tied at 12,288
    # and lost from 16,384. Probes keep the CSR products, faster on a split.
    terms = config.batch_size * X.shape[1] * params.weights[0].shape[1]
    dense = (2 * X.nnz >= X.shape[0] * X.shape[1] and terms <= 8192
             and X.has_canonical_format)
    batch_X = X.toarray() if dense else step_X
    vel_w = [np.zeros_like(w) for w in step_params.weights]
    vel_b = [np.zeros_like(b) for b in step_params.biases]
    decay = 1.0 - config.learning_rate * config.weight_decay

    epoch_len = sampler.epoch_length()
    if epoch_len <= 0:
        raise ValueError("sampler reports a non-positive epoch length")
    eval_offsets = set(_eval_offsets(epoch_len, config.eval_per_epoch))

    records: list[tuple[int, str, str, float]] = []
    probes = None
    if collect_probes:
        shape = (config.epochs, corpus.size)
        probes = Probes(ids=corpus.ids(), gold_prob=np.empty(shape),
                        correct=np.empty(shape, dtype=bool))
    best_params = params.copy()
    best_acc = -math.inf
    best_step = 0
    step = 0  # batches served so far; sampler sees the pre-batch count

    momentum = 0.9
    for epoch in range(1, config.epochs + 1):
        for offset in range(1, epoch_len + 1):
            rows = sampler.next_batch(step)
            if not len(rows):
                raise RuntimeError(
                    f"sampler exhausted mid-epoch at step {step} (contract violation)"
                )
            loss, (wgrads, bgrads) = loss_and_grad(step_params, batch_X[rows], y[rows])
            if not math.isfinite(loss):
                raise FloatingPointError(
                    f"non-finite training loss {loss} at step {step + 1}"
                )
            clip_gradients(wgrads, bgrads, config.grad_clip, squares)
            for i in range(len(step_params.weights)):
                vel_w[i] = momentum * vel_w[i] + wgrads[i]
                step_params.weights[i] -= config.learning_rate * vel_w[i]
                if config.weight_decay > 0.0:
                    step_params.weights[i] *= decay
            if active is not None and config.weight_decay > 0.0:
                active.owed += 1
            for i in range(len(step_params.biases)):
                vel_b[i] = momentum * vel_b[i] + bgrads[i]
                step_params.biases[i] -= config.learning_rate * vel_b[i]
            step += 1
            records.append((step, "train", "loss", loss))

            if val_corpus is not None and offset in eval_offsets:
                if active is not None:
                    active.sync(decay)
                acc = evaluate(params, val_corpus)
                records.append((step, "validation", "accuracy", acc))
                if acc > best_acc:
                    best_acc = acc
                    best_step = step
                    best_params = params.copy()

        if probes is not None:
            probs, _ = _forward_matrix(step_params, step_X)
            probes.gold_prob[epoch - 1] = probs[np.arange(corpus.size), y]
            probes.correct[epoch - 1] = probs.argmax(axis=1) == y

    if val_corpus is None:
        if active is not None:
            active.sync(decay)
        best_params = params.copy()
        best_step = step
        best_acc = math.nan
    return best_params, RunLog(records=records, best_step=best_step,
                               best_val_metric=best_acc), probes


# --- on-disk formats -------------------------------------------------------

_BEST_MARKER = "best_accuracy"
_RUNLOG_SCHEMA = {"step": int, "split": str, "metric": str, "value": float}
_PROBE_SCHEMA = {"epoch": int, "example_id": str, "gold_prob": float, "correct": bool}


def write_runlog(log: RunLog, path: str | Path) -> None:
    """JSONL of {step, split, metric, value} records; a final marker record
    carries the best checkpoint (metric "best_accuracy")."""
    write_jsonl(path, [
        *({"step": step, "split": split, "metric": metric, "value": value}
          for step, split, metric, value in log.records),
        {"step": log.best_step, "split": "validation",
         "metric": _BEST_MARKER, "value": log.best_val_metric},
    ])


def read_runlog(path: str | Path) -> RunLog:
    records: list[tuple[int, str, str, float]] = []
    best_step, best_val = 0, -math.inf
    for rec in read_jsonl(path, _RUNLOG_SCHEMA):
        if rec["metric"] == _BEST_MARKER:
            best_step, best_val = rec["step"], rec["value"]
        else:
            records.append((rec["step"], rec["split"], rec["metric"], rec["value"]))
    return RunLog(records=records, best_step=best_step, best_val_metric=best_val)


def write_probes(probes: Probes, path: str | Path) -> None:
    """JSONL with one {epoch, example_id, gold_prob, correct} line per
    (epoch, example)."""
    rows = zip(probes.gold_prob.tolist(), probes.correct.tolist())
    write_jsonl(path, (
        {"epoch": epoch, "example_id": eid, "gold_prob": gold, "correct": correct}
        for epoch, (golds, corrects) in enumerate(rows, start=1)
        for eid, gold, correct in zip(probes.ids, golds, corrects, strict=True)
    ))


def read_probes(path: str | Path) -> Probes:
    """Inverse of write_probes; every epoch must cover the same example ids."""
    by_epoch: dict[int, dict[str, dict]] = {}
    for rec in read_jsonl(path, _PROBE_SCHEMA):
        by_epoch.setdefault(rec["epoch"], {})[rec["example_id"]] = rec
    epochs = sorted(by_epoch)
    ids = list(by_epoch[epochs[0]]) if epochs else []
    for epoch in epochs[1:]:
        diff = set(ids).symmetric_difference(by_epoch[epoch])
        if diff:
            raise ValueError(
                f"{path}: probes for epoch {epoch} disagree on example id {min(diff)!r}"
            )

    def array(field: str, dtype) -> np.ndarray:
        values = [[by_epoch[e][eid][field] for eid in ids] for e in epochs]
        return np.array(values, dtype=dtype).reshape(len(epochs), len(ids))

    return Probes(ids=ids, gold_prob=array("gold_prob", float),
                  correct=array("correct", bool))
