"""Data model and dataset plumbing.

Tokenization, feature hashing, JSONL corpus I/O and synthetic dataset
generation for the train / validation / test_id / test_ood splits.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse

from .artifacts import read_json, write_json, write_jsonl

DEFAULT_HASH_DIM = 2 ** 18

SPLIT_NAMES = ("train", "validation", "test_id", "test_ood", "test_transfer")

NOISY_SUFFIX = "#noisy"

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")

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


def featurize(
    tokens_a: list[str],
    tokens_b: list[str] | None = None,
    dim: int = DEFAULT_HASH_DIM,
) -> dict[int, float]:
    """Hash bag-of-token counts into [0, dim) and L2-normalize.

    The two segments are hashed with distinct salts so a token occurring in
    both segments lands in different hash families. Colliding indices
    accumulate their counts. ``dim`` must be a power of two.
    """
    if dim <= 0 or dim & (dim - 1):
        raise ValueError(f"hashing dim must be a power of two, got {dim}")
    counts: dict[int, float] = {}
    for salt, toks in zip(_SEGMENT_SALTS, (tokens_a, tokens_b or [])):
        for tok in toks:
            idx = fnv1a_64(salt + tok.encode("utf-8")) & (dim - 1)
            counts[idx] = counts.get(idx, 0.0) + 1.0
    if not counts:
        return {}
    norm = math.sqrt(sum(c * c for c in counts.values()))
    return {idx: c / norm for idx, c in counts.items()}


class Corpus:
    """One split by column: row i of the ids, the read-only labels, the CSR
    feature matrix, the (text_a, text_b) texts and their (tokens_a, tokens_b)
    tokenizations is example i. text_b may be None; tokens_b is then empty."""

    def __init__(self, ids: list[str], labels, matrix: sparse.csr_matrix,
                 texts: list[tuple[str, str | None]],
                 tokens: list[tuple[list[str], list[str]]],
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
        self.tokens = tokens
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


def _record_features(raw, where: str) -> dict[int, float]:
    """A record's "features" object as {index: value}; indices must be
    non-negative integers and values finite numbers."""
    if not isinstance(raw, dict):
        raise ValueError(f"{where}: field 'features' must be an object")
    features: dict[int, float] = {}
    for key, value in raw.items():
        try:
            idx, val = int(key), float(value)
        except (TypeError, ValueError, OverflowError):
            idx, val = -1, math.nan
        if idx < 0 or not math.isfinite(val):
            raise ValueError(f"{where}: feature {key!r}: {value!r} needs a "
                             "non-negative integer index and a finite value")
        features[idx] = val
    return features


def load_jsonl(
    path: str | Path,
    split_name: str = "train",
    dim: int = DEFAULT_HASH_DIM,
    label_map: dict[str, int] | None = None,
) -> Corpus:
    """Read a corpus from a JSONL file (one object per line: id, text_a,
    optional text_b, label, optional features).

    Without ``label_map``, labels are indexed in first-appearance order.
    With a fixed map (sidecar), any label outside it is a hard error.
    When the records carry a "features" field, every record must carry it
    and the feature dimension is inferred from the largest index; otherwise
    ``featurize`` hashes the texts. A malformed record raises ValueError
    naming ``path:line``.
    """
    path = Path(path)
    fixed_map = label_map is not None
    lmap: dict[str, int] = dict(label_map) if label_map else {}
    ids, labels, texts, tokens = [], [], [], []  # the Corpus columns
    indptr, indices, data = [0], [], []  # the feature matrix's CSR buffers
    seen_ids: set[str] = set()
    has_features: bool | None = None

    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{where}: invalid JSON ({exc})") from None
            if not isinstance(rec, dict):
                raise ValueError(f"{where}: not a JSON object")
            for fld in ("id", "text_a", "label"):
                if fld not in rec or rec[fld] is None:
                    raise ValueError(f"{where}: missing field {fld!r}")
            eid = str(rec["id"])
            if eid in seen_ids:
                raise ValueError(f"{where}: duplicate example id {eid!r}")
            seen_ids.add(eid)

            label_str = str(rec["label"])
            if label_str not in lmap:
                if fixed_map:
                    raise ValueError(
                        f"{where}: unknown label {label_str!r} for "
                        f"split {split_name!r} (not in the fixed label map)"
                    )
                lmap[label_str] = len(lmap)

            text_a = str(rec["text_a"])
            text_b = None if rec.get("text_b") is None else str(rec["text_b"])
            tokens_a, tokens_b = tokenize(text_a), tokenize(text_b) if text_b else []

            rec_features = rec.get("features")
            if has_features is None:
                has_features = rec_features is not None
            elif has_features != (rec_features is not None):
                raise ValueError(
                    f"{where}: mixed records with and without a 'features' field"
                )
            features = (featurize(tokens_a, tokens_b, dim) if rec_features is None
                        else _record_features(rec_features, where))
            keys = sorted(features)
            indices.extend(keys)
            data.extend(map(features.get, keys))
            indptr.append(len(indices))

            ids.append(eid)
            labels.append(lmap[label_str])
            texts.append((text_a, text_b))
            tokens.append((tokens_a, tokens_b))

    feature_dim = (max(indices, default=-1) + 1) if has_features else dim
    matrix = sparse.csr_matrix(
        (np.array(data, dtype=np.float64),
         np.array(indices, dtype=np.int64),
         np.array(indptr, dtype=np.int64)),
        shape=(len(ids), max(feature_dim, 1)),
    )
    return Corpus(ids=ids, labels=labels, matrix=matrix, texts=texts, tokens=tokens,
                  num_classes=len(lmap), split_name=split_name,
                  label_names=sorted(lmap, key=lmap.get))


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
    return {str(k): int(v) for k, v in read_json(path).items()}


# --- synthetic data -------------------------------------------------------

_SYNTH_VOCAB = 120


def _synth_text(rng: np.random.Generator, label: int) -> str:
    # Zipf-ish word draw, rolled per class so classes differ in word usage.
    length = int(rng.integers(4, 16))
    ranks = np.arange(1, _SYNTH_VOCAB + 1, dtype=np.float64)
    weights = 1.0 / ranks
    weights /= weights.sum()
    word_ids = (rng.choice(_SYNTH_VOCAB, size=length, p=weights) + 7 * label) % _SYNTH_VOCAB
    return " ".join(f"w{int(w):03d}" for w in word_ids)


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

    def draw_split(prefix, n, centers):
        """Ids, labels, unit-norm feature rows and texts of n examples."""
        rows = np.zeros((n, dim))
        texts = []
        for i in range(n):
            label = i % C
            point = centers[label] + rng.normal(size=dim)
            texts.append(_synth_text(rng, label))
            norm = np.linalg.norm(point)
            if norm:
                rows[i] = point / norm
        ids = [f"{prefix}-{i:06d}" for i in range(n)]
        return ids, np.arange(n) % C, rows, texts

    def build(split_name, ids, labels, rows, texts):
        return Corpus(ids, labels, sparse.csr_matrix(rows), [(t, None) for t in texts],
                      [(tokenize(t), []) for t in texts], C, split_name, list(label_names))

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
