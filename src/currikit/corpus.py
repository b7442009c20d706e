"""Data model and dataset plumbing.

Tokenization, feature hashing, JSONL corpus I/O and synthetic dataset
generation for the train / validation / test_id / test_ood splits.
"""

from __future__ import annotations

import json
import math
import re
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, count
from pathlib import Path

import numpy as np
from scipy import sparse

from .artifacts import check, read_json, write_json, write_jsonl
from .curricula import cumulative

DEFAULT_HASH_DIM = 2 ** 18

SPLIT_NAMES = ("train", "validation", "test_id", "test_ood", "test_transfer")

NOISY_SUFFIX = "#noisy"

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")
_raw_decode = json.JSONDecoder().raw_decode  # json.loads less its checks

# FNV-1a, 64-bit: the documented string hash behind feature indices.
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF
_SEGMENT_SALTS = (b"a:", b"b:")


def tokenize(text: str) -> list[str]:
    """Lowercase and split on whitespace/punctuation; punctuation marks
    come out as standalone tokens."""
    return _TOKEN_RE.findall(text.lower())


def fnv1a_64(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def fnv1a_64_batch(keys: list[bytes]) -> np.ndarray:
    """``fnv1a_64`` of every key at once, as a uint64 array: one xor-multiply
    per byte column of the keys padded into a uint8 matrix. Keys run longest
    first, so the keys still running at column j are a prefix of the rows.
    Every operand is uint64 (numpy wraps it mod 2**64; mixing in a Python or
    int64 integer would promote to float64)."""
    lengths = np.fromiter(map(len, keys), dtype=np.int64, count=len(keys))
    order = np.argsort(-lengths, kind="stable")
    lengths = lengths[order]
    width = int(lengths[0]) if len(keys) else 0
    padded = np.zeros((len(keys), width), dtype=np.uint8)
    padded[np.arange(width) < lengths[:, None]] = np.frombuffer(
        b"".join([keys[i] for i in order]), dtype=np.uint8)
    hashes = np.full(len(keys), _FNV_OFFSET, dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    for j, live in enumerate(np.searchsorted(-lengths, -np.arange(width))):
        hashes[:live] ^= padded[:live, j]
        hashes[:live] *= prime
    out = np.empty_like(hashes)
    out[order] = hashes
    return out


def featurize(
    tokens_a: list[str],
    tokens_b: list[str] | None = None,
    dim: int = DEFAULT_HASH_DIM,
) -> dict[int, float]:
    """Hash bag-of-token counts into [0, dim) and L2-normalize.

    The two segments are hashed with distinct salts so a token occurring in
    both segments lands in different hash families. Colliding indices
    accumulate their counts. ``dim`` must be a power of two. This is the
    per-record reference for the rows ``load_jsonl`` builds a split at a time.
    """
    _check_hash_dim(dim)
    counts: dict[int, float] = {}
    for salt, toks in zip(_SEGMENT_SALTS, (tokens_a, tokens_b or [])):
        for tok in toks:
            idx = fnv1a_64(salt + tok.encode("utf-8")) & (dim - 1)
            counts[idx] = counts.get(idx, 0.0) + 1.0
    if not counts:
        return {}
    norm = math.sqrt(sum(c * c for c in counts.values()))
    return {idx: c / norm for idx, c in counts.items()}


def _check_hash_dim(dim: int) -> None:
    if dim <= 0 or dim & (dim - 1):
        raise ValueError(f"hashing dim must be a power of two, got {dim}")


def _hashed_rows(vocab: list[str], token_ids, token_offsets, dim: int):
    """CSR (data, indices, indptr) whose row i is ``featurize`` of row i's two
    token segments, built for the whole split at once. Each used (segment,
    token id) slot is hashed once; the (row, column) counts come from one
    sort. The counts are small integers, so their squares sum exactly in any
    order and every value has the bits ``featurize`` gives it."""
    _check_hash_dim(dim)
    n = (len(token_offsets) - 1) // 2
    segment = np.repeat(np.arange(2 * n), np.diff(token_offsets))  # of each token
    slot = 2 * token_ids.astype(np.int64) + (segment & 1)  # (token id, segment a or b)
    used = np.flatnonzero(np.bincount(slot))
    salted = [_SEGMENT_SALTS[s & 1] + vocab[s >> 1].encode("utf-8") for s in used.tolist()]
    # Rank the distinct columns, so the (row, column) key stays below
    # rows x tokens whatever ``dim`` is.
    distinct, rank = np.unique(fnv1a_64_batch(salted) & np.uint64(dim - 1),
                               return_inverse=True)
    slot_rank = np.zeros(2 * len(vocab), dtype=np.int64)
    slot_rank[used] = rank
    keys, counts = np.unique((segment >> 1) * len(distinct) + slot_rank[slot],
                             return_counts=True)
    row = keys // len(distinct)
    counts = counts.astype(np.float64)
    norms = np.sqrt(np.bincount(row, weights=counts * counts, minlength=n))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=n), out=indptr[1:])
    return counts / norms[row], distinct.astype(np.int64)[keys % len(distinct)], indptr


class Corpus:
    """One split by column: row i of the ids, the read-only labels, the CSR
    feature matrix and the (text_a, text_b) texts is example i; text_b may be
    None. The tokens are ids into ``vocab`` (int32): row i's segment a is
    ``token_ids[off[2i]:off[2i + 1]]`` and its segment b runs on to
    ``off[2i + 2]``, where ``off`` is ``token_offsets`` (int64, 2N + 1)."""

    def __init__(self, ids: list[str], labels, matrix: sparse.csr_matrix,
                 texts: list[tuple[str, str | None]], vocab: list[str],
                 token_ids: np.ndarray, token_offsets: np.ndarray,
                 num_classes: int, split_name: str, label_names: list[str]):
        if split_name not in SPLIT_NAMES:
            raise ValueError(
                f"split_name must be one of {SPLIT_NAMES}, got {split_name!r}"
            )
        self._ids = list(ids)
        self._labels = np.array(labels, dtype=np.int64)
        self._labels.flags.writeable = False
        self._matrix = matrix
        self.texts = texts
        self.vocab = vocab
        self.token_ids = token_ids
        self.token_offsets = token_offsets
        self.num_classes = num_classes
        self.split_name = split_name
        self.label_names = label_names

    @property
    def size(self) -> int:
        return len(self._ids)

    @property
    def feature_dim(self) -> int:
        return self._matrix.shape[1]

    def ids(self) -> list[str]:
        return list(self._ids)

    def labels(self) -> np.ndarray:
        return self._labels

    def feature_matrix(self) -> sparse.csr_matrix:
        """CSR matrix of shape (size, feature_dim), built at load."""
        return self._matrix


@dataclass
class SynthSpec:
    """Knobs for the synthetic Gaussian-cluster classification data."""

    num_classes: int = 3
    train_size: int = 2000
    val_size: int = 500
    test_size: int = 500
    feature_dim: int = 32
    class_separation: float = 3.0
    label_noise_fraction: float = 0.0
    ood_shift: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name in ("class_separation", "label_noise_fraction", "ood_shift"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        for name in ("train_size", "val_size", "test_size"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.feature_dim <= 0:
            raise ValueError("feature_dim must be positive")
        if self.class_separation <= 0:
            raise ValueError("class_separation must be > 0")
        if not 0.0 <= self.label_noise_fraction < 0.5:
            raise ValueError("label_noise_fraction must be in [0, 0.5)")
        if self.ood_shift < 0:
            raise ValueError("ood_shift must be >= 0")


def _record_features(raw, path: Path, lineno: int) -> dict[int, float]:
    """A record's "features" object as {index: value}; indices must be
    non-negative integers and values finite numbers. Errors name
    ``path:lineno``."""
    if not isinstance(raw, dict):
        raise ValueError(f"{path}:{lineno}: field 'features' must be an object")
    features: dict[int, float] = {}
    for key, value in raw.items():
        try:
            idx, val = int(key), float(value)
        except (TypeError, ValueError, OverflowError):
            idx, val = -1, math.nan
        if idx < 0 or not math.isfinite(val):
            raise ValueError(f"{path}:{lineno}: feature {key!r}: {value!r} needs a "
                             "non-negative integer index and a finite value")
        features[idx] = val
    return features


def load_jsonl(
    path: str | Path,
    split_name: str = "train",
    dim: int = DEFAULT_HASH_DIM,
    label_map: dict[str, int] | None = None,
    feature_dim: int | None = None,
) -> Corpus:
    """Read a corpus from a JSONL file (one object per line: id, text_a,
    optional text_b, label, optional features).

    Without ``label_map``, labels are indexed in first-appearance order.
    With a fixed map (sidecar), any label outside it is a hard error.
    When the records carry a "features" field, every record must carry it;
    otherwise the texts of the whole split are hashed into ``dim`` columns
    at once, row for row as ``featurize`` would. A fixed ``feature_dim``
    (the train split's, for an eval split) is the matrix width; without it,
    features records set the width to their largest index + 1. Every index
    must lie below that width, or below ``dim``. A malformed record raises
    ValueError naming ``path:line``; a hashed index past a fixed
    ``feature_dim`` names its first such line once every record is read.
    """
    path = Path(path)
    fixed_map = label_map is not None
    lmap: dict[str, int] = dict(label_map) if label_map else {}
    ids, labels, texts, segments = [], [], [], []  # Corpus columns; token lists a, b
    lines = []  # the line number of each row
    indptr, indices, data = [0], [], []  # the CSR buffers, for "features" records
    seen_ids: set[str] = set()
    has_features: bool | None = None
    bound = dim if feature_dim is None else feature_dim

    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec, end = _raw_decode(line)
            except json.JSONDecodeError:
                end = -1
            if end != len(line):  # not one JSON document: json.loads names why
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{path}:{lineno}: invalid JSON ({exc})") from None
            if not isinstance(rec, dict):
                raise ValueError(f"{path}:{lineno}: not a JSON object")
            for fld in ("id", "text_a", "label"):
                if fld not in rec or rec[fld] is None:
                    raise ValueError(f"{path}:{lineno}: missing field {fld!r}")
            for fld in ("id", "text_a", "text_b", "label"):
                if isinstance(rec.get(fld), (list, dict)):
                    raise ValueError(f"{path}:{lineno}: field {fld!r} must be a string or "
                                     f"a number, got {rec[fld]!r}")
            eid = str(rec["id"])
            if eid in seen_ids:
                raise ValueError(f"{path}:{lineno}: duplicate example id {eid!r}")
            seen_ids.add(eid)

            label_str = str(rec["label"])
            if label_str not in lmap:
                if fixed_map:
                    raise ValueError(
                        f"{path}:{lineno}: unknown label {label_str!r} for "
                        f"split {split_name!r} (not in the fixed label map)"
                    )
                lmap[label_str] = len(lmap)

            text_a = str(rec["text_a"])
            text_b = None if rec.get("text_b") is None else str(rec["text_b"])

            rec_features = rec.get("features")
            if has_features is None:
                has_features = rec_features is not None
            elif has_features != (rec_features is not None):
                raise ValueError(
                    f"{path}:{lineno}: mixed records with and without a 'features' field"
                )
            if has_features:
                features = _record_features(rec_features, path, lineno)
                keys = sorted(features)
                if keys and keys[-1] >= bound:
                    raise ValueError(f"{path}:{lineno}: feature index {keys[-1]} is not "
                                     f"below the feature dimension {bound}")
                indices.extend(keys)
                data.extend(map(features.get, keys))
                indptr.append(len(indices))

            ids.append(eid)
            labels.append(lmap[label_str])
            texts.append((text_a, text_b))
            segments += (tokenize(text_a), tokenize(text_b) if text_b else [])
            lines.append(lineno)

    index = defaultdict(count().__next__)  # token -> id, numbered as first met
    token_ids = np.fromiter(map(index.__getitem__, chain.from_iterable(segments)),
                            dtype=np.int32)
    token_offsets = np.cumsum([0, *map(len, segments)], dtype=np.int64)
    vocab = list(index)
    if has_features:
        if feature_dim is None:
            feature_dim = max(indices, default=-1) + 1
    else:
        data, indices, indptr = _hashed_rows(vocab, token_ids, token_offsets, dim)
        if feature_dim is None:
            feature_dim = dim
        elif (past := np.flatnonzero(indices >= feature_dim)).size:
            # name the first row holding one, by its largest index
            row = np.searchsorted(indptr, past[0], side="right") - 1
            raise ValueError(f"{path}:{lines[row]}: feature index "
                             f"{indices[indptr[row + 1] - 1]} is not below "
                             f"the feature dimension {feature_dim}")
    matrix = sparse.csr_matrix(
        (np.asarray(data, dtype=np.float64),
         np.asarray(indices, dtype=np.int64),
         np.asarray(indptr, dtype=np.int64)),
        shape=(len(ids), max(feature_dim, 1)),
    )
    return Corpus(ids, labels, matrix, texts, vocab, token_ids, token_offsets,
                  len(lmap), split_name, sorted(lmap, key=lmap.get))


def save_jsonl(corpus: Corpus, path: str | Path, include_features: bool = False) -> None:
    """Write a corpus back to JSONL. ``include_features`` preserves feature
    vectors that are not derivable from the text (synthetic corpora)."""
    X = corpus.feature_matrix()
    write_jsonl(path, (
        {"id": eid, "text_a": text_a, "text_b": text_b,
         "label": corpus.label_names[label],
         **({"features": dict(zip(map(str, X.indices[lo:hi].tolist()),
                                  X.data[lo:hi].tolist()))}
            if include_features else {})}
        for eid, (text_a, text_b), label, lo, hi
        in zip(corpus.ids(), corpus.texts, corpus.labels(), X.indptr, X.indptr[1:])
    ))


def save_label_map(corpus: Corpus, path: str | Path) -> None:
    write_json(path, {name: i for i, name in enumerate(corpus.label_names)})


def load_label_map(path: str | Path) -> dict[str, int]:
    """The sidecar written by save_label_map: an object mapping each label
    to a distinct class index in 0..n-1."""
    label_map = read_json(path, {})
    check(label_map, dict.fromkeys(label_map, int), path)
    if sorted(label_map.values()) != list(range(len(label_map))):
        raise ValueError(f"{path}: label indices must be 0..{len(label_map) - 1}, "
                         f"each used once; got {sorted(label_map.values())}")
    return label_map


# --- synthetic data -------------------------------------------------------

_SYNTH_VOCAB = 120
_SYNTH_WORDS = np.array([f"w{w:03d}" for w in range(_SYNTH_VOCAB)], dtype=object)
_ZIPF = 1.0 / np.arange(1, _SYNTH_VOCAB + 1)  # word weight 1/rank
_SYNTH_CDF = cumulative(_ZIPF / _ZIPF.sum())


def generate_synthetic(spec: SynthSpec) -> tuple[Corpus, Corpus, Corpus, Corpus]:
    """Gaussian cluster per class, projected to unit-norm sparse features.

    Returns (train, validation, test_id, test_ood). The OOD split draws
    from class means displaced by ``ood_shift``. ``label_noise_fraction``
    of train examples get a wrong label and a "#noisy" id suffix. Fully
    determined by ``spec.seed``.
    """
    rng = np.random.default_rng(spec.seed)
    C, dim = spec.num_classes, spec.feature_dim

    dirs = rng.normal(size=(C, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    means = spec.class_separation * dirs
    ood_dirs = rng.normal(size=(C, dim))
    ood_dirs /= np.linalg.norm(ood_dirs, axis=1, keepdims=True)
    ood_means = means + spec.ood_shift * ood_dirs

    label_names = [f"c{i}" for i in range(C)]
    vocab = _SYNTH_WORDS.tolist()  # the four splits' vocabulary

    def draw_split(prefix, n, centers):
        """Ids, labels, unit-norm feature rows, word indices and word offsets
        of n examples. Only the draws run per example, in stream order."""
        labels = np.arange(n) % C
        points = np.empty((n, dim))
        uniforms = []
        for point in points:
            rng.standard_normal(out=point)
            uniforms.append(rng.random(int(rng.integers(4, 16))))
        points += centers[labels]
        # np.linalg.norm's sum, one dot per row: a batched sum groups the
        # terms differently and changes bits. Zero-norm rows stay zero.
        norms = np.sqrt([point.dot(point) for point in points])[:, None]
        rows = np.divide(points, norms, out=np.zeros_like(points), where=norms != 0)
        offsets = np.cumsum([0, *map(len, uniforms)], dtype=np.int64)
        # weighted_draw's Zipf-ish words, rolled per class to differ in usage.
        words = (_SYNTH_CDF.searchsorted(np.concatenate(uniforms), side="right")
                 + 7 * np.repeat(labels, np.diff(offsets))) % _SYNTH_VOCAB
        ids = [f"{prefix}-{i:06d}" for i in range(n)]
        return ids, labels, rows, words, offsets

    def build(split_name, ids, labels, rows, words, offsets):
        # Every word is one lowercase \w+ token, so the word indices are the
        # tokenization of their join; each segment b is empty.
        names = _SYNTH_WORDS[words].tolist()
        bounds = offsets.tolist()
        return Corpus(ids, labels, sparse.csr_matrix(rows),
                      [(" ".join(names[a:b]), None) for a, b in zip(bounds, bounds[1:])],
                      vocab, words.astype(np.int32), np.repeat(offsets, 2)[1:],
                      C, split_name, list(label_names))

    train = draw_split("train", spec.train_size, means)
    val = draw_split("val", spec.val_size, means)
    test_id = draw_split("testid", spec.test_size, means)
    test_ood = draw_split("testood", spec.test_size, ood_means)

    num_noisy = int(math.floor(spec.label_noise_fraction * spec.train_size))
    if num_noisy > 0:
        ids, labels = train[:2]
        flip_idx = rng.choice(spec.train_size, size=num_noisy, replace=False)
        for i in sorted(int(j) for j in flip_idx):
            wrong = [c for c in range(C) if c != labels[i]]
            labels[i] = wrong[int(rng.integers(len(wrong)))]
            ids[i] += NOISY_SUFFIX
    return (build("train", *train), build("validation", *val),
            build("test_id", *test_id), build("test_ood", *test_ood))
