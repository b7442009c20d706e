"""Softmax classifier (optional tanh hidden layer) trained with
deterministic mini-batch SGD.

Batches come from a pluggable sampler so curricula control data order;
the trainer itself never inspects difficulty. Validation accuracy is
logged on a fixed step grid, the best checkpoint is kept in memory, and
an end-of-epoch inference pass over the whole train set fills one row of
the (epochs, N) gold-label probability and correctness arrays of a Probes
record, columns in corpus row order.

A training step knows one form, a stack of models (one model is a stack of
one): several seeds of one config train in lockstep as one stack
(``train_seeds``), and every seed keeps the bits a training of its own gives.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import reduce
from pathlib import Path
from typing import NamedTuple, Protocol

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools

from .artifacts import read_jsonl, write_columns
from .corpus import DEFAULT_HASH_DIM, Corpus


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


def _stack(models: list[ModelParams]) -> ModelParams:
    """S models of one shape as one stack: the first-layer weights one above
    the other, ``(S * dim, width)``, and every other array with a leading
    seed axis. The stack of one model shares its arrays."""
    if len(models) == 1:
        (m,) = models
        return ModelParams(weights=[m.weights[0], *(w[None] for w in m.weights[1:])],
                           biases=[b[None] for b in m.biases], hidden_size=m.hidden_size)
    return ModelParams(
        weights=[np.concatenate([m.weights[0] for m in models]),
                 *map(np.stack, zip(*(m.weights[1:] for m in models)))],
        biases=[np.stack(b) for b in zip(*(m.biases for m in models))],
        hidden_size=models[0].hidden_size)


def _unstack(stack: ModelParams) -> list[ModelParams]:
    """The models of a stack, as views of its arrays."""
    S = len(stack.biases[0])
    W = stack.weights[0].reshape(S, -1, stack.weights[0].shape[1])
    return [ModelParams(weights=[W[s], *(w[s] for w in stack.weights[1:])],
                        biases=[b[s] for b in stack.biases], hidden_size=stack.hidden_size)
            for s in range(S)]


def _redraw_first_weights(W: np.ndarray, seed: int, decay: float, decays: int,
                          chunk_rows: int = 4096) -> None:
    """Overwrite ``W`` with ``init_params``' first weight matrix for ``seed``
    times ``decays`` sequential ``decay`` factors. The rows are drawn in
    chunks from the same stream, so no second full-width array is made;
    chunked normal draws equal one draw bit for bit."""
    rng = np.random.default_rng(seed)
    scale = 1.0 / math.sqrt(W.shape[0])
    for start in range(0, W.shape[0], chunk_rows):
        rows = min(chunk_rows, W.shape[0] - start)
        chunk = rng.normal(0.0, scale, size=(rows, W.shape[1]))
        for _ in range(decays):
            chunk *= decay
        W[start:start + rows] = chunk


class _CSR(NamedTuple):
    """The buffers of a CSR matrix with ``n_cols`` columns; ``indptr`` and
    ``indices`` share one integer dtype. Its products make the calls into
    scipy's compiled loops that ``S @ W`` and ``S.T @ D`` make (see
    ``_compressed._matmul_multivector``), so they equal those bit for bit:
    each output starts at 0.0 and adds its terms in stored order."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    n_cols: int

    @classmethod
    def of(cls, X) -> "_CSR":
        """``X`` as is, or a scipy matrix or an array as CSR buffers."""
        if isinstance(X, cls):
            return X
        X = X.tocsr() if sparse.issparse(X) else sparse.csr_matrix(X)
        return cls(X.indptr, X.indices, X.data, X.shape[1])

    def take(self, rows: np.ndarray, sizes: list[int] | None = None) -> "_CSR":
        """The buffers of ``S[rows]``; rows may repeat. With ``sizes``, the
        rows are S = len(sizes) seeds' batches in seed order, ``sizes[s]``
        rows of seed s, and the result is their block-diagonal batch: seed
        s's columns shifted by ``s * n_cols``."""
        starts = self.indptr[rows]
        lens = self.indptr[1:][rows]
        lens -= starts
        indptr = np.zeros(len(rows) + 1, dtype=self.indptr.dtype)
        np.add.accumulate(lens, out=indptr[1:])
        pos = (starts - indptr[:-1]).repeat(lens)
        pos += np.arange(indptr[-1], dtype=pos.dtype)
        indices, n_cols = self.indices.take(pos), self.n_cols
        if sizes is not None and len(sizes) > 1:
            shift = np.arange(0, len(sizes) * n_cols, n_cols, dtype=indices.dtype)
            indices += shift.repeat(sizes).repeat(lens)
            n_cols *= len(sizes)
        return _CSR(indptr, indices, self.data.take(pos), n_cols)

    def dot(self, W: np.ndarray) -> np.ndarray:
        """``S @ W``; a ``W`` of other than ``n_cols`` rows raises."""
        if W.shape[0] != self.n_cols:
            raise ValueError(f"feature dim {self.n_cols} does not match model input "
                             f"dim {W.shape[0]}")
        out = np.zeros((len(self.indptr) - 1, W.shape[1]))
        _sparsetools.csr_matvecs(len(self.indptr) - 1, self.n_cols, W.shape[1], self.indptr,
                                 self.indices, self.data, W.ravel(), out.ravel())
        return out

    def tdot(self, D: np.ndarray) -> np.ndarray:
        """``S.T @ D`` for a ``D`` with one row per row of ``S``: scipy's CSC
        loop over ``S.T``, which shares the buffers."""
        out = np.zeros((self.n_cols, D.shape[1]))
        _sparsetools.csc_matvecs(self.n_cols, len(self.indptr) - 1, D.shape[1], self.indptr,
                                 self.indices, self.data, D.ravel(), out.ravel())
        return out


class _SeedRows:
    """The rows of a stack's batch: ``sizes[s]`` rows of seed s, in seed
    order. The per-seed sums run once on an ``(S, B, ...)`` view when every
    seed has B rows, and once per seed on its own rows when they differ;
    numpy reduces each seed's block of such a view as it does the block
    alone, so either way each seed gets the bits of its own batch. The
    hidden layer's products run once per seed."""

    def __init__(self, sizes: list[int]):
        self.sizes = sizes
        self.equal = sizes.count(sizes[0]) == len(sizes)
        # batch rows per seed, and per row of the batch
        self.n = sizes[0] if self.equal else np.array(sizes)
        self.row_n = self.n if self.equal else np.repeat(self.n, sizes)[:, None]

    def blocks(self, a: np.ndarray) -> list[np.ndarray]:
        return np.split(a, np.cumsum(self.sizes[:-1]))

    def rows(self, a: np.ndarray) -> np.ndarray:
        """Row s of ``a`` for every row of seed s."""
        return a.repeat(self.sizes, axis=0)

    def sums(self, a: np.ndarray) -> np.ndarray:
        """Each seed's sum of its rows of ``a``, stacked."""
        if self.equal:
            return np.add.reduce(a.reshape(len(self.sizes), self.n, *a.shape[1:]), axis=1)
        return np.stack([np.add.reduce(block, axis=0) for block in self.blocks(a)])

    def matmul(self, a: np.ndarray, M: np.ndarray) -> np.ndarray:
        """Each seed's rows of ``a`` times its matrix ``M[s]``."""
        return np.concatenate([block @ m for block, m in zip(self.blocks(a), M)])

    def tmatmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Each seed's ``a.T @ b`` over its rows, stacked."""
        return np.stack([pa.T @ pb for pa, pb in zip(self.blocks(a), self.blocks(b))])


def _seed_sums(a: np.ndarray, seeds: int) -> np.ndarray:
    """The sum of each seed's part of a stacked array (see ``_stack``)."""
    return np.add.reduce(a.reshape(seeds, -1), axis=1)


def _row_sums(e: np.ndarray) -> np.ndarray:
    """``np.add.reduce(e, axis=-1, keepdims=True)`` for a 2-D ``e``. numpy
    adds fewer than 8 terms left to right, as a chain over the columns
    does, and reduces a short inner axis slowly; from 8 on it sums pairwise
    in 8 accumulators, so the reduce stays."""
    if e.shape[1] < 8:
        return reduce(np.add, e.T)[:, None]
    return np.add.reduce(e, axis=-1, keepdims=True)


def _forward(stack: ModelParams, first: np.ndarray,
             rows: _SeedRows) -> tuple[np.ndarray, np.ndarray | None]:
    """Softmax probabilities of a stack of models (see ``_stack``) from the
    first-layer products ``first``, one row per example with seed s's
    examples on ``rows``; and the hidden activations (None for a linear
    model)."""
    logits, hidden = first + rows.rows(stack.biases[0]), None
    if stack.hidden_size > 0:
        hidden = np.tanh(logits)
        logits = rows.matmul(hidden, stack.weights[1]) + rows.rows(stack.biases[1])
    # The row max as a chain over the class columns: numpy reduces a short
    # inner axis slowly. Only a zero's sign can differ, which exp erases.
    e = np.exp(logits - reduce(np.maximum, logits.T)[:, None])
    return e / _row_sums(e), hidden


def _forward_matrix(stack: ModelParams, X) -> np.ndarray:
    """Softmax probabilities of a stack of S models (see ``_stack``) for a
    (N, dim) CSR matrix, array or _CSR, (S, N, classes), from one product
    against the first-layer weights side by side. For one model both
    reshapes are views, so its weights are not copied."""
    S, W = len(stack.biases[0]), stack.weights[0]
    W = W.reshape(S, -1, W.shape[1]).transpose(1, 0, 2).reshape(-1, S * W.shape[1])
    first = _CSR.of(X).dot(W)
    n = len(first)
    first = first.reshape(n, S, -1).transpose(1, 0, 2).reshape(S * n, -1)  # seed-major
    probs, _ = _forward(stack, first, _SeedRows([n] * S))
    return probs.reshape(S, n, -1)


def loss_and_grad(
    params: ModelParams, X, y: np.ndarray, weight_decay: float = 0.0,
    sizes: list[int] | None = None,
) -> tuple[float | np.ndarray, tuple[list[np.ndarray], list[np.ndarray]]]:
    """Mean cross-entropy over the batch and its analytic gradients.

    ``X`` is a CSR matrix, an array (converted once to CSR) or a _CSR. With
    ``weight_decay`` > 0 an L2 penalty (weights only) is added to both the
    loss and the gradients; the trainer instead applies decay decoupled in
    its update step and calls this with 0.

    With ``sizes``, ``params`` is a stack of S = len(sizes) models (see
    ``_stack``) and ``X`` their batches as one block-diagonal matrix
    (``_CSR.take`` with ``sizes``). Then the S losses come as an array and
    the gradients stacked like ``params``, each seed's the bits of its own
    batch.
    """
    X = _CSR.of(X)
    n = len(X.indptr) - 1
    if n == 0:
        raise ValueError("empty batch")
    stack = params if sizes else _stack([params])
    rows = _SeedRows(sizes or [n])
    # probabilities, turned into the gradient
    dlogits, hidden = _forward(stack, X.dot(stack.weights[0]), rows)
    at_gold = (np.arange(n), y)
    gold = dlogits[at_gold]
    losses = -(rows.sums(np.log(np.maximum(gold, 1e-300))) / rows.n)
    dlogits[at_gold] = gold - 1.0
    dlogits /= rows.row_n

    if stack.hidden_size > 0:
        dh = rows.matmul(dlogits, stack.weights[1].transpose(0, 2, 1)) * (1.0 - hidden * hidden)
        wgrads = [X.tdot(dh), rows.tmatmul(hidden, dlogits)]
        bgrads = [rows.sums(dh), rows.sums(dlogits)]
    else:
        wgrads, bgrads = [X.tdot(dlogits)], [rows.sums(dlogits)]

    if weight_decay > 0.0:
        for i, w in enumerate(stack.weights):
            losses += 0.5 * weight_decay * _seed_sums(w * w, len(rows.sizes))
            wgrads[i] = wgrads[i] + weight_decay * w
    if sizes:
        return losses, (wgrads, bgrads)
    (grads,) = _unstack(ModelParams(wgrads, bgrads, stack.hidden_size))
    return float(losses[0]), (grads.weights, grads.biases)


def clip_gradients(
    wgrads: list[np.ndarray], bgrads: list[np.ndarray], max_norm: float,
    square_sum: Callable[[np.ndarray], float] | None = None, seeds: int | None = None,
) -> float | np.ndarray:
    """Scale all gradients in place to a global L2 norm of at most
    ``max_norm``; returns the pre-clip norm.

    ``square_sum`` is given when ``wgrads[0]`` holds only some rows of a full
    gradient that is zero elsewhere: it maps the flat squares of
    ``wgrads[0]`` to ``float(np.sum(...))`` of the full-shape squares, so the
    norm equals the full gradient's bit for bit (summing the compact rows
    alone groups the terms differently).

    With ``seeds``, the gradients are a stack of that many models' (see
    ``_stack``): each model's norm and scale are its own, and the norms come
    as an array.
    """
    S = seeds or 1
    if S == 1:  # float sums and a float scale: timed 3-5 us a one-model step less
        total = 0.0
        for i, g in enumerate(wgrads + bgrads):
            sq = g * g
            total += (square_sum(sq.reshape(-1)) if i == 0 and square_sum is not None
                      else float(np.add.reduce(sq, axis=None)))
        norm = math.sqrt(total)
        if norm > max_norm and norm > 0.0:
            for g in wgrads + bgrads:
                g *= max_norm / norm
        return np.array([norm]) if seeds else norm
    total = 0.0
    for i, g in enumerate(wgrads + bgrads):
        sq = g * g
        if i == 0 and square_sum is not None:
            total += np.array([square_sum(part) for part in sq.reshape(S, -1)])
        else:
            total += _seed_sums(sq, S)
    norms = np.sqrt(total)
    scales = [max_norm / norm if norm > max_norm and norm > 0.0 else 1.0
              for norm in norms.tolist()]
    if scales.count(1.0) < S:
        scale = np.array(scales)
        for g in wgrads + bgrads:
            # Splitting the leading axis is a view in any memory layout.
            by_seed = g.reshape(S, -1, *g.shape[1:])
            by_seed *= scale.reshape(S, *[1] * g.ndim)
    return norms


# numpy sums a contiguous float64 array pairwise: a block of more than this
# many elements is split in two, the first part n//2 rounded down to a
# multiple of 8; a block of 8 to this many runs 8 accumulators.
_PAIRWISE_BLOCK = 128


class _PairwiseSum:
    """``float(np.sum(a))`` for a contiguous float64 array ``a`` of ``size``
    non-negative elements that is zero except at the ascending flat
    positions ``index``, computed from the values at those positions alone.

    It replays numpy's pairwise grouping. A block of fewer than 8 elements
    is summed left to right from 0.0; a block of 8 to ``_PAIRWISE_BLOCK``
    seeds accumulator j with element j, adds element j + 8k to it for each
    whole group of 8, combines the eight as
    ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))`` and then adds the
    last ``len % 8`` elements one at a time; a larger block is the sum of its
    two halves. Every skipped element is +0.0 and every partial sum is
    non-negative, so ``x + 0.0 == x`` makes skipping exact provided each
    accumulator still adds its non-zero terms in position order. The layout
    is built once; a call is a few gather/scatter passes over the touched
    blocks and one pass per level of the tree.
    """

    def __init__(self, index: np.ndarray, size: int):
        index = np.asarray(index, dtype=np.int64)
        # Walk the tree a level at a time, splitting every block larger than
        # _PAIRWISE_BLOCK; record which nodes of each level are leaves.
        starts, lens = np.zeros(1, dtype=np.int64), np.array([size], dtype=np.int64)
        levels, leaf_starts, leaf_lens = [], [], []
        while len(starts):
            leaf = lens <= _PAIRWISE_BLOCK
            levels.append((len(starts), np.flatnonzero(leaf), np.flatnonzero(~leaf)))
            leaf_starts.append(starts[leaf])
            leaf_lens.append(lens[leaf])
            split_starts, split_lens = starts[~leaf], lens[~leaf]
            half = split_lens // 2 - (split_lens // 2) % 8
            starts = np.column_stack([split_starts, split_starts + half]).reshape(-1)
            lens = np.column_stack([half, split_lens - half]).reshape(-1)
        # Number the leaves level by level, and each level's leaves in order.
        offsets = np.cumsum([0] + [len(s) for s in leaf_starts]).tolist()
        self._levels = [(*level, slice(offsets[k], offsets[k + 1]))
                        for k, level in enumerate(levels)]
        self._n_leaves = int(offsets[-1])
        all_starts = np.concatenate(leaf_starts)
        all_lens = np.concatenate(leaf_lens)
        by_start = np.argsort(all_starts)

        # Place each element: its leaf, and in it a lane (accumulator) or the
        # tail. Elements are ascending, so stable sorts keep position order.
        leaf = by_start[np.searchsorted(all_starts[by_start], index, side="right") - 1]
        self._touched, t = np.unique(leaf, return_inverse=True)
        offset = index - all_starts[leaf]
        lens = all_lens[leaf]
        grouped = np.where(lens >= 8, lens - lens % 8, 0)
        in_lane = offset < grouped
        n_touched = len(self._touched)
        lane = np.where(in_lane, (offset % 8) * n_touched + t, t)
        self._n_lanes = 8 * n_touched
        # Pass r adds the r-th element of each lane (then of each tail) to
        # it, so no pass adds twice to one target. A call gathers the
        # elements once, pass by pass, and each pass reads one slice.
        self._order, self._lane_passes, self._tail_passes = [], [], []
        start = 0
        for passes, elements in ((self._lane_passes, np.flatnonzero(in_lane)),
                                 (self._tail_passes, np.flatnonzero(~in_lane))):
            keys = lane[elements]
            order = np.argsort(keys, kind="stable")
            run_start = np.r_[True, keys[order][1:] != keys[order][:-1]]
            first = np.flatnonzero(run_start)
            rank = np.arange(len(keys)) - np.repeat(first, np.diff(np.r_[first, len(keys)]))
            for r in range(int(rank.max(initial=-1)) + 1):
                sel = elements[order[rank == r]]
                self._order.append(sel)
                passes.append((slice(start, start + len(sel)), lane[sel]))
                start += len(sel)
        self._order = np.concatenate(self._order) if self._order else index[:0]

    def __call__(self, values: np.ndarray) -> float:
        v = values[self._order]
        lanes = np.zeros(self._n_lanes)
        for part, target in self._lane_passes:
            lanes[target] += v[part]
        r = lanes.reshape(8, -1)
        r = r[0::2] + r[1::2]  # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        r = r[0::2] + r[1::2]
        sums = r[0] + r[1]
        for part, target in self._tail_passes:
            sums[target] += v[part]
        leaves = np.zeros(self._n_leaves)
        leaves[self._touched] = sums
        node = leaves[:0]
        for n_nodes, leaf_pos, split_pos, level_leaves in reversed(self._levels):
            pairs = node[0::2] + node[1::2]
            if not len(leaf_pos):
                node = pairs
            elif not len(split_pos):
                node = leaves[level_leaves]
            else:
                node = np.empty(n_nodes)
                node[leaf_pos] = leaves[level_leaves]
                node[split_pos] = pairs
        return float(node[0])


class _BufferSum:
    """The same sum as _PairwiseSum, by writing the values into a zero
    buffer of the full size and summing it."""

    def __init__(self, index: np.ndarray, size: int):
        self.index, self.buffer = index, np.zeros(size)

    def __call__(self, values: np.ndarray) -> float:
        self.buffer[self.index] = values
        return float(np.sum(self.buffer))


def _pairwise_sum_is_numpys() -> bool:
    """Whether _PairwiseSum equals np.sum on a probe whose grouping matters,
    with an unbalanced tree, blocks with a tail and untouched blocks. Its
    values are 20 ones among terms near a quarter of the ulp of 1.0: each
    such term added to a one alone is lost, so the sum depends on which
    terms meet first. A numpy that groups its sums differently makes the
    trainer fall back to _BufferSum."""
    rng = np.random.default_rng(0)
    size = 3 * 1000 + 5
    index = np.flatnonzero(rng.random(size) < 0.5)
    index = index[(index < 1000) | (index > 1500)]
    values = 2.0 ** -54 * (1 + rng.integers(0, 8, len(index)) / 8)
    values[rng.choice(len(index), 20, replace=False)] = 1.0
    return _PairwiseSum(index, size)(values) == _BufferSum(index, size)(values)


_PAIRWISE_EXACT = _pairwise_sum_is_numpys()


def predict(params: ModelParams | list[ModelParams], corpus: Corpus) -> np.ndarray:
    """Argmax class per example; ties go to the lowest class index. S models
    of one shape, as a list or a stack (see ``_stack``), give an (S, N)
    array from one product."""
    one = isinstance(params, ModelParams) and params.biases[0].ndim == 1
    if one or isinstance(params, list):
        params = _stack([params] if one else params)
    labels = _forward_matrix(params, corpus.feature_matrix()).argmax(axis=-1)
    return labels[0] if one else labels


def evaluate(params: ModelParams | list[ModelParams], corpus: Corpus) -> float | list[float]:
    """Accuracy on ``corpus``; S models, as for ``predict``, give a list."""
    if corpus.size == 0:
        raise ValueError("cannot evaluate on an empty corpus")
    correct = predict(params, corpus) == corpus.labels()
    if correct.ndim == 2:
        return [float(np.mean(c)) for c in correct]
    return float(np.mean(correct))


class _ActiveRows:
    """Training on the rows of ``weights[0]`` whose feature columns the train
    matrix uses; the other rows are frozen.

    A frozen row has zero gradient and zero velocity at every step, so only
    decoupled weight decay moves it: one ``*= (1 - lr * wd)`` per step. Those
    factors are owed and applied, one multiply each, by ``sync``, which also
    scatters the trained rows into the full-width ``full``, a stack of models
    (see ``_stack``). ``params`` is the compact stack: its ``weights[0]``
    holds each model's ``rows``, and it shares every other array with
    ``full``. ``X`` is the train matrix with its columns renumbered to match;
    its rows keep their entries in order, so products with it equal the
    full-width ones bit for bit. ``square_sum`` sums the squares of one
    model's compact ``weights[0]`` gradient as numpy sums the full-width one,
    and ``decayed`` counts the decays ``sync`` has applied.
    """

    def __init__(self, X, full: ModelParams, rows: np.ndarray):
        self.full = full
        W = full.weights[0]
        dim, width = W.shape[0] // len(full.biases[0]), W.shape[1]
        self.rows = rows
        self.stacked_rows = (np.arange(0, W.shape[0], dim)[:, None] + rows).reshape(-1)
        cols = np.unique(X.indices, return_inverse=True)[1].astype(X.indices.dtype)
        self.X = _CSR(X.indptr, cols, X.data, len(rows))
        self.params = ModelParams(weights=[W[self.stacked_rows], *full.weights[1:]],
                                  biases=full.biases, hidden_size=full.hidden_size)
        index = (rows[:, None] * width + np.arange(width)).reshape(-1)
        self.square_sum = (_PairwiseSum if _PAIRWISE_EXACT else _BufferSum)(index, dim * width)
        self.owed = 0  # decay steps not yet applied to the frozen rows
        self.decayed = 0  # decay steps applied to the frozen rows

    def sync(self, decay: float) -> None:
        W = self.full.weights[0]
        for _ in range(self.owed):
            W *= decay
        self.decayed += self.owed
        self.owed = 0
        W[self.stacked_rows] = self.params.weights[0]


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
    [result] = next(train_seeds(corpus, val_corpus, [config], [sampler], hidden_size,
                                collect_probes))
    return result


def lockstep_group(feature_dim: int) -> int:
    """The most seeds ``train_seeds`` trains as one stack: a stack's weights
    are no wider than one model's at the default ``hash_dim``, and the
    column indices ``_CSR.take`` shifts per seed stay below
    ``max(2^18, feature_dim)``, within the train matrix's index dtype."""
    return max(1, DEFAULT_HASH_DIM // max(feature_dim, 1))


def train_seeds(
    corpus: Corpus,
    val_corpus: Corpus | None,
    configs: list[TrainConfig],
    samplers: list[Sampler],
    hidden_size: int = 0,
    collect_probes: bool = True,
) -> Iterator[list[tuple[ModelParams, RunLog, Probes | None]]]:
    """``train`` for each (config, sampler) pair, in lockstep: yields one
    list per stack of seeds trained together, in seed order, each seed's
    result bit for bit what ``train`` alone returns.

    The configs may differ only in ``seed``, and the samplers must report
    one epoch length. Seeds train in stacks of ``lockstep_group`` seeds
    (see ``_stack``): a step gathers the stack's batches into one
    block-diagonal batch and makes one product pair, one softmax, one clip
    scale and one update for all of them, and an evaluation makes one
    product. A stack trains when its list is asked for, so a caller that
    drops each list before asking for the next holds one stack at a time.
    """
    if not configs or len(configs) != len(samplers):
        raise ValueError(f"{len(configs)} configs for {len(samplers)} samplers")
    if any(dataclasses.replace(c, seed=0) != dataclasses.replace(configs[0], seed=0)
           for c in configs):
        raise ValueError("configs trained in lockstep may differ only in seed")
    lengths = sorted({sampler.epoch_length() for sampler in samplers})
    if len(lengths) > 1:
        raise ValueError(f"samplers trained in lockstep report epoch lengths {lengths}")
    if lengths[0] <= 0:
        raise ValueError("sampler reports a non-positive epoch length")
    size = lockstep_group(corpus.feature_dim)
    return (_train_stack(corpus, val_corpus, configs[start:start + size],
                         samplers[start:start + size], lengths[0], hidden_size, collect_probes)
            for start in range(0, len(configs), size))


def _train_stack(corpus: Corpus, val_corpus: Corpus | None, configs: list[TrainConfig],
                 samplers: list[Sampler], epoch_len: int, hidden_size: int,
                 collect_probes: bool) -> list[tuple[ModelParams, RunLog, Probes | None]]:
    """Train one stack of ``train_seeds``; returns each seed's result."""
    X = corpus.feature_matrix()
    y = corpus.labels()
    config, S = configs[0], len(configs)

    params = _stack([init_params(corpus.feature_dim, corpus.num_classes, hidden_size, c.seed)
                     for c in configs])
    # Rows of weights[0] whose columns the train split never uses stay frozen
    # when they are most rows: each step then saves work on every frozen row
    # but scatters the used ones. On a 2-core x86-64 host the compact step
    # beat the full-width one at 23% of columns used, tied at 41% and lost by
    # 9-17% at 65% and above, so it runs only when at most a quarter is used.
    # The used columns come from sorting the matrix's indices, not from a
    # count per column, so W stays the only array as wide as the columns.
    used = np.sort(X.indices)
    used = used[np.diff(used, prepend=-1) != 0]
    active = _ActiveRows(X, params, used) if 4 * len(used) <= X.shape[1] else None
    step_params, step_X, square_sum = ((params, _CSR.of(X), None) if active is None
                                       else (active.params, active.X, active.square_sum))
    models = _unstack(step_params)  # views: every update is in place
    vel_w = [np.zeros_like(w) for w in step_params.weights]
    vel_b = [np.zeros_like(b) for b in step_params.biases]
    decay = 1.0 - config.learning_rate * config.weight_decay
    eval_offsets = set(_eval_offsets(epoch_len, config.eval_per_epoch))

    records: list[list[tuple[int, str, str, float]]] = [[] for _ in range(S)]
    probes: list[Probes | None] = [None] * S
    if collect_probes:
        shape = (config.epochs, corpus.size)
        probes = [Probes(ids=corpus.ids(), gold_prob=np.empty(shape),
                         correct=np.empty(shape, dtype=bool)) for _ in range(S)]
    # Each seed's best checkpoint is a copy of its model in step_params (the
    # compact rows when some are frozen) and the decays its frozen rows had
    # taken.
    best_params: list[ModelParams | None] = [None] * S
    best_decayed = [0] * S
    best_acc = [-math.inf] * S
    best_step = [0] * S
    step = 0  # batches served so far; sampler sees the pre-batch count

    momentum = 0.9
    for epoch in range(1, config.epochs + 1):
        for offset in range(1, epoch_len + 1):
            batches = [sampler.next_batch(step) for sampler in samplers]
            sizes = [len(b) for b in batches]
            if 0 in sizes:
                raise RuntimeError(
                    f"sampler exhausted mid-epoch at step {step} (contract violation)"
                )
            rows = np.concatenate(batches)
            losses, (wgrads, bgrads) = loss_and_grad(step_params, step_X.take(rows, sizes),
                                                     y[rows], sizes=sizes)
            losses = losses.tolist()
            for loss in losses:
                if not math.isfinite(loss):
                    raise FloatingPointError(
                        f"non-finite training loss {loss} at step {step + 1}"
                    )
            clip_gradients(wgrads, bgrads, config.grad_clip, square_sum, seeds=S)
            for v, g in zip(vel_w + vel_b, wgrads + bgrads):
                v *= momentum
                v += g
            for p, v in zip(step_params.weights + step_params.biases, vel_w + vel_b):
                p -= config.learning_rate * v
            if config.weight_decay > 0.0:
                for w in step_params.weights:
                    w *= decay
                if active is not None:
                    active.owed += 1
            step += 1
            for seed_records, loss in zip(records, losses):
                seed_records.append((step, "train", "loss", loss))

            if val_corpus is not None and offset in eval_offsets:
                if active is not None:
                    active.sync(decay)
                for s, acc in enumerate(evaluate(params, val_corpus)):
                    records[s].append((step, "validation", "accuracy", acc))
                    if acc > best_acc[s]:
                        best_acc[s], best_step[s] = acc, step
                        best_params[s] = models[s].copy()
                        best_decayed[s] = active.decayed if active is not None else 0

        if collect_probes:
            probs = _forward_matrix(step_params, step_X)
            for seed_probes, seed_probs in zip(probes, probs):
                seed_probes.gold_prob[epoch - 1] = seed_probs[np.arange(corpus.size), y]
                seed_probes.correct[epoch - 1] = seed_probs.argmax(axis=1) == y

    if val_corpus is None:
        if active is not None:
            active.sync(decay)
        best_params = _unstack(params)
        best_step = [step] * S
        best_acc = [math.nan] * S
    elif active is not None:
        for s, (full, best) in enumerate(zip(_unstack(params), best_params)):
            W = full.weights[0]
            if active.decayed > best_decayed[s]:  # rebuild the frozen rows at the best step
                _redraw_first_weights(W, configs[s].seed, decay, best_decayed[s])
            W[active.rows] = best.weights[0]
            best_params[s] = ModelParams(weights=[W, *best.weights[1:]], biases=best.biases,
                                         hidden_size=params.hidden_size)
    return [(best_params[s], RunLog(records=records[s], best_step=best_step[s],
                                    best_val_metric=best_acc[s]), probes[s])
            for s in range(S)]


# --- on-disk formats -------------------------------------------------------

_BEST_MARKER = "best_accuracy"
_RUNLOG_SCHEMA = {"step": int, "split": str, "metric": str, "value": float}
_PROBE_SCHEMA = {"epoch": int, "example_id": str, "gold_prob": float, "correct": bool}


def write_runlog(log: RunLog, path: str | Path) -> None:
    """JSONL of {step, split, metric, value} records; a final marker record
    carries the best checkpoint (metric "best_accuracy")."""
    steps, splits, metrics, values = zip(
        *log.records, (log.best_step, "validation", _BEST_MARKER, log.best_val_metric))
    write_columns(path, {"step": np.array(steps, dtype=np.int64), "split": list(splits),
                         "metric": list(metrics),
                         "value": np.array(values, dtype=np.float64)})


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
    epochs, n = probes.gold_prob.shape
    write_columns(path, {"epoch": np.repeat(np.arange(1, epochs + 1), n),
                         "example_id": list(probes.ids) * epochs,
                         "gold_prob": probes.gold_prob.ravel(),
                         "correct": probes.correct.ravel()})


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
