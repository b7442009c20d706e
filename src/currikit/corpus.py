"""Data model and dataset plumbing.

Tokenization, feature hashing, JSONL corpus I/O and synthetic dataset
generation for the train / validation / test_id / test_ood splits.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
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


@dataclass
class Example:
    """One labeled instance; ``tokens`` is the tokenization of text_a
    followed by text_b (when present)."""

    id: str
    text_a: str
    text_b: str | None
    tokens: list[str]
    features: dict[int, float]
    label: int

    @property
    def is_noisy(self) -> bool:
        return self.id.endswith(NOISY_SUFFIX)


@dataclass
class Corpus:
    examples: list[Example]
    num_classes: int
    split_name: str
    feature_dim: int
    label_names: list[str]
    _matrix: sparse.csr_matrix | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.split_name not in SPLIT_NAMES:
            raise ValueError(
                f"split_name must be one of {SPLIT_NAMES}, got {self.split_name!r}"
            )

    @property
    def size(self) -> int:
        return len(self.examples)

    def ids(self) -> list[str]:
        return [ex.id for ex in self.examples]

    def labels(self) -> np.ndarray:
        return np.array([ex.label for ex in self.examples], dtype=np.int64)

    def feature_matrix(self) -> sparse.csr_matrix:
        """CSR matrix of shape (size, feature_dim); built once and cached."""
        if self._matrix is None:
            indptr = [0]
            indices: list[int] = []
            data: list[float] = []
            for ex in self.examples:
                for idx in sorted(ex.features):
                    indices.append(idx)
                    data.append(ex.features[idx])
                indptr.append(len(indices))
            self._matrix = sparse.csr_matrix(
                (np.array(data, dtype=np.float64),
                 np.array(indices, dtype=np.int64),
                 np.array(indptr, dtype=np.int64)),
                shape=(len(self.examples), self.feature_dim),
            )
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


def _build_example(eid, text_a, text_b, label, dim, features=None):
    tokens_a = tokenize(text_a)
    tokens_b = tokenize(text_b) if text_b else None
    tokens = tokens_a + (tokens_b or [])
    if features is None:
        features = featurize(tokens_a, tokens_b, dim)
    return Example(
        id=eid, text_a=text_a, text_b=text_b, tokens=tokens,
        features=features, label=label,
    )


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
    and the feature dimension is inferred from the largest index.
    """
    path = Path(path)
    fixed_map = label_map is not None
    lmap: dict[str, int] = dict(label_map) if label_map else {}
    examples: list[Example] = []
    seen_ids: set[str] = set()
    has_features: bool | None = None
    max_feature_idx = -1

    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON ({exc})") from None
            for fld in ("id", "text_a", "label"):
                if fld not in rec or rec[fld] is None:
                    raise ValueError(f"{path}:{lineno}: missing field {fld!r}")
            eid = str(rec["id"])
            if eid in seen_ids:
                raise ValueError(f"duplicate example id {eid!r} in {path}")
            seen_ids.add(eid)

            label_str = str(rec["label"])
            if label_str not in lmap:
                if fixed_map:
                    raise ValueError(
                        f"{path}:{lineno}: unknown label {label_str!r} for "
                        f"split {split_name!r} (not in the fixed label map)"
                    )
                lmap[label_str] = len(lmap)

            rec_features = rec.get("features")
            if has_features is None:
                has_features = rec_features is not None
            elif has_features != (rec_features is not None):
                raise ValueError(
                    f"{path}:{lineno}: mixed records with and without "
                    "a 'features' field"
                )
            features = None
            if rec_features is not None:
                features = {int(k): float(v) for k, v in rec_features.items()}
                if features:
                    max_feature_idx = max(max_feature_idx, max(features))

            examples.append(
                _build_example(
                    eid, str(rec["text_a"]), rec.get("text_b"),
                    lmap[label_str], dim, features,
                )
            )

    feature_dim = (max_feature_idx + 1) if has_features else dim
    feature_dim = max(feature_dim, 1)
    return Corpus(
        examples=examples,
        num_classes=len(lmap),
        split_name=split_name,
        feature_dim=feature_dim,
        label_names=[name for name, _ in sorted(lmap.items(), key=lambda kv: kv[1])],
    )


def save_jsonl(corpus: Corpus, path: str | Path, include_features: bool = False) -> None:
    """Write a corpus back to JSONL. ``include_features`` preserves feature
    vectors that are not derivable from the text (synthetic corpora)."""
    write_jsonl(path, (
        {"id": ex.id, "text_a": ex.text_a, "text_b": ex.text_b,
         "label": corpus.label_names[ex.label],
         **({"features": {str(k): ex.features[k] for k in sorted(ex.features)}}
            if include_features else {})}
        for ex in corpus.examples
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


def _normalized_features(vec: np.ndarray) -> dict[int, float]:
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        return {}
    vec = vec / norm
    return {i: float(vec[i]) for i in range(vec.shape[0])}


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

    def draw_split(prefix, split_name, n, centers):
        examples = []
        for i in range(n):
            label = i % C
            point = centers[label] + rng.normal(size=dim)
            text = _synth_text(rng, label)
            examples.append(
                _build_example(
                    f"{prefix}-{i:06d}", text, None, label, dim,
                    _normalized_features(point),
                )
            )
        return Corpus(
            examples=examples, num_classes=C, split_name=split_name,
            feature_dim=dim, label_names=list(label_names),
        )

    train = draw_split("train", "train", spec.train_size, means)
    val = draw_split("val", "validation", spec.val_size, means)
    test_id = draw_split("testid", "test_id", spec.test_size, means)
    test_ood = draw_split("testood", "test_ood", spec.test_size, ood_means)

    num_noisy = int(math.floor(spec.label_noise_fraction * spec.train_size))
    if num_noisy > 0:
        flip_idx = rng.choice(spec.train_size, size=num_noisy, replace=False)
        for i in sorted(int(j) for j in flip_idx):
            ex = train.examples[i]
            wrong = [c for c in range(C) if c != ex.label]
            ex.label = int(wrong[int(rng.integers(len(wrong)))])
            ex.id = ex.id + NOISY_SUFFIX
    return train, val, test_id, test_ood
