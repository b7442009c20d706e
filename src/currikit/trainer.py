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


def _forward_matrix(params: ModelParams, X) -> tuple[np.ndarray, np.ndarray | None]:
    """Probabilities for a (N, dim) matrix; returns hidden activations too."""
    if X.shape[1] != params.weights[0].shape[0]:
        raise ValueError(
            f"feature dim {X.shape[1]} does not match model input "
            f"dim {params.weights[0].shape[0]}"
        )
    if params.hidden_size > 0:
        hidden = np.tanh(np.asarray(X @ params.weights[0]) + params.biases[0])
        logits = hidden @ params.weights[1] + params.biases[1]
        return _softmax(logits), hidden
    logits = np.asarray(X @ params.weights[0]) + params.biases[0]
    return _softmax(logits), None


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

    if params.hidden_size > 0:
        g_w2 = hidden.T @ dlogits
        g_b2 = dlogits.sum(axis=0)
        dh = (dlogits @ params.weights[1].T) * (1.0 - hidden * hidden)
        g_w1 = np.asarray(X.T @ dh)
        g_b1 = dh.sum(axis=0)
        wgrads, bgrads = [g_w1, g_w2], [g_b1, g_b2]
    else:
        wgrads = [np.asarray(X.T @ dlogits)]
        bgrads = [dlogits.sum(axis=0)]

    if weight_decay > 0.0:
        for i, w in enumerate(params.weights):
            loss += 0.5 * weight_decay * float(np.sum(w * w))
            wgrads[i] = wgrads[i] + weight_decay * w
    return loss, (wgrads, bgrads)


def clip_gradients(
    wgrads: list[np.ndarray], bgrads: list[np.ndarray], max_norm: float
) -> float:
    """Scale all gradients in place to a global L2 norm of at most
    ``max_norm``; returns the pre-clip norm."""
    total = 0.0
    for g in wgrads + bgrads:
        total += float(np.sum(g * g))
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
    vel_w = [np.zeros_like(w) for w in params.weights]
    vel_b = [np.zeros_like(b) for b in params.biases]

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
            loss, (wgrads, bgrads) = loss_and_grad(params, X[rows], y[rows])
            if not math.isfinite(loss):
                raise FloatingPointError(
                    f"non-finite training loss {loss} at step {step + 1}"
                )
            clip_gradients(wgrads, bgrads, config.grad_clip)
            for i in range(len(params.weights)):
                vel_w[i] = momentum * vel_w[i] + wgrads[i]
                params.weights[i] -= config.learning_rate * vel_w[i]
                if config.weight_decay > 0.0:
                    params.weights[i] *= 1.0 - config.learning_rate * config.weight_decay
            for i in range(len(params.biases)):
                vel_b[i] = momentum * vel_b[i] + bgrads[i]
                params.biases[i] -= config.learning_rate * vel_b[i]
            step += 1
            records.append((step, "train", "loss", loss))

            if val_corpus is not None and offset in eval_offsets:
                acc = evaluate(params, val_corpus)
                records.append((step, "validation", "accuracy", acc))
                if acc > best_acc:
                    best_acc = acc
                    best_step = step
                    best_params = params.copy()

        if probes is not None:
            probs, _ = _forward_matrix(params, X)
            probes.gold_prob[epoch - 1] = probs[np.arange(corpus.size), y]
            probes.correct[epoch - 1] = probs.argmax(axis=1) == y

    if val_corpus is None:
        best_params = params.copy()
        best_step = step
        best_acc = math.nan
    return best_params, RunLog(records=records, best_step=best_step,
                               best_val_metric=best_acc), probes


# --- on-disk formats -------------------------------------------------------

_BEST_MARKER = "best_accuracy"


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
    for rec in read_jsonl(path):
        if rec["metric"] == _BEST_MARKER:
            best_step = int(rec["step"])
            best_val = float(rec["value"])
        else:
            records.append(
                (int(rec["step"]), rec["split"], rec["metric"], float(rec["value"]))
            )
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
    for rec in read_jsonl(path):
        by_epoch.setdefault(int(rec["epoch"]), {})[rec["example_id"]] = rec
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
