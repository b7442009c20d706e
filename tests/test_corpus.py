import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from currikit.corpus import (
    NOISY_SUFFIX,
    SynthSpec,
    featurize,
    generate_synthetic,
    load_jsonl,
    save_jsonl,
    save_label_map,
    load_label_map,
    tokenize,
)


def csr_equal(a, b):
    """Same CSR arrays: values, column indices and row pointers."""
    return all(np.array_equal(getattr(a, name), getattr(b, name))
               for name in ("data", "indices", "indptr"))


class TestTokenize:
    def test_empty(self):
        assert tokenize("") == []

    def test_sentence(self):
        assert tokenize("The cat sat.") == ["the", "cat", "sat", "."]

    def test_hyphen(self):
        assert tokenize("A-B") == ["a", "-", "b"]

    def test_punctuation_standalone(self):
        assert tokenize("hello, world!") == ["hello", ",", "world", "!"]

    @given(st.text(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_deterministic_and_stable_under_rejoin(self, text):
        toks = tokenize(text)
        assert tokenize(text) == toks
        # re-tokenizing the space-joined tokens is a fixed point
        assert tokenize(" ".join(toks)) == toks


class TestFeaturize:
    def test_empty_tokens(self):
        assert featurize([], None, 1024) == {}

    def test_deterministic(self):
        a = featurize(["x", "y", "z"], ["w"], 2 ** 18)
        b = featurize(["x", "y", "z"], ["w"], 2 ** 18)
        assert a == b

    def test_counts_then_normalize(self):
        feats = featurize(["a", "a", "b"], None, 2 ** 18)
        assert len(feats) == 2
        weights = sorted(feats.values(), reverse=True)
        # pre-normalization counts 2 and 1
        assert weights[0] == pytest.approx(2 / math.sqrt(5))
        assert weights[1] == pytest.approx(1 / math.sqrt(5))

    def test_unit_norm(self):
        feats = featurize(["p", "q", "q", "r", "s"], ["p", "t"], 2 ** 18)
        assert sum(v * v for v in feats.values()) == pytest.approx(1.0, abs=1e-9)

    def test_segments_use_distinct_hash_families(self):
        only_a = featurize(["token"], None, 2 ** 18)
        only_b = featurize([], ["token"], 2 ** 18)
        assert set(only_a) != set(only_b)

    def test_dim_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            featurize(["a"], None, 100)


class TestLoadJsonl:
    def _write(self, path, records):
        with path.open("w") as fh:
            for rec in records:
                fh.write(json.dumps(rec) + "\n")

    def test_three_lines(self, tmp_path):
        path = tmp_path / "c.jsonl"
        self._write(path, [
            {"id": "x1", "text_a": "a b", "label": "pos"},
            {"id": "x2", "text_a": "c", "text_b": "d", "label": "neg"},
            {"id": "x3", "text_a": "e", "label": "pos"},
        ])
        corpus = load_jsonl(path, "train")
        assert corpus.size == 3
        assert corpus.tokens[1] == (["c"], ["d"])
        assert corpus.texts == [("a b", None), ("c", "d"), ("e", None)]

    def test_duplicate_id_named(self, tmp_path):
        path = tmp_path / "c.jsonl"
        self._write(path, [
            {"id": "x1", "text_a": "a", "label": "p"},
            {"id": "x1", "text_a": "b", "label": "p"},
        ])
        with pytest.raises(ValueError, match=r"c\.jsonl:2: duplicate example id 'x1'"):
            load_jsonl(path, "train")

    def test_missing_field_has_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        self._write(path, [
            {"id": "x1", "text_a": "a", "label": "p"},
            {"id": "x2", "label": "p"},
        ])
        with pytest.raises(ValueError, match=r":2"):
            load_jsonl(path, "train")

    def test_non_string_texts_are_stringified(self, tmp_path):
        path = tmp_path / "c.jsonl"
        self._write(path, [{"id": 1, "text_a": 5, "text_b": 7, "label": "p"}])
        corpus = load_jsonl(path, "train")
        assert corpus.ids() == ["1"]
        assert corpus.texts == [("5", "7")]
        assert corpus.tokens == [(["5"], ["7"])]

    def test_features_field_fills_csr_rows(self, tmp_path):
        path = tmp_path / "c.jsonl"
        self._write(path, [
            {"id": "x1", "text_a": "a", "label": "p", "features": {"5": 0.5, "2": -1.0}},
            {"id": "x2", "text_a": "b", "label": "p", "features": {}},
            {"id": "x3", "text_a": "c", "label": "p", "features": {"0": 2.0}},
        ])
        X = load_jsonl(path, "train").feature_matrix()
        assert X.shape == (3, 6)
        assert X.indptr.tolist() == [0, 2, 2, 3]
        assert X.indices.tolist() == [2, 5, 0]
        assert X.data.tolist() == [-1.0, 0.5, 2.0]

    def test_hashed_rows_are_featurize(self, tmp_path):
        path = tmp_path / "c.jsonl"
        pairs = [("The cat sat.", None), ("a b a", "b c"), ("", "")]
        self._write(path, [{"id": f"x{i}", "text_a": a, "text_b": b, "label": "p"}
                           for i, (a, b) in enumerate(pairs)])
        corpus = load_jsonl(path, "train", dim=1024)
        X = corpus.feature_matrix()
        assert X.shape == (3, 1024)
        for row, (a, b) in enumerate(pairs):
            feats = featurize(tokenize(a), tokenize(b or ""), 1024)
            lo, hi = X.indptr[row], X.indptr[row + 1]
            assert X.indices[lo:hi].tolist() == sorted(feats)
            assert X.data[lo:hi].tolist() == [feats[k] for k in sorted(feats)]

    def test_labels_are_read_only(self, tmp_path):
        path = tmp_path / "c.jsonl"
        self._write(path, [{"id": "x1", "text_a": "a", "label": "p"}])
        synthetic, *_ = generate_synthetic(SynthSpec(train_size=6, val_size=3, test_size=3))
        for corpus in (load_jsonl(path, "train"), synthetic):
            with pytest.raises(ValueError, match="read-only"):
                corpus.labels()[0] = 1

    def test_first_appearance_label_order(self, tmp_path):
        path = tmp_path / "c.jsonl"
        self._write(path, [
            {"id": "x1", "text_a": "a", "label": "b"},
            {"id": "x2", "text_a": "b", "label": "a"},
            {"id": "x3", "text_a": "c", "label": "b"},
        ])
        corpus = load_jsonl(path, "train")
        assert corpus.label_names == ["b", "a"]
        assert corpus.labels().tolist() == [0, 1, 0]

    def test_unknown_label_with_fixed_map(self, tmp_path):
        path = tmp_path / "c.jsonl"
        self._write(path, [{"id": "x1", "text_a": "a", "label": "weird"}])
        with pytest.raises(ValueError, match="weird"):
            load_jsonl(path, "test_id", label_map={"p": 0, "n": 1})

    def test_label_map_round_trip(self, tmp_path):
        path = tmp_path / "c.jsonl"
        self._write(path, [
            {"id": "x1", "text_a": "a", "label": "b"},
            {"id": "x2", "text_a": "b", "label": "a"},
        ])
        corpus = load_jsonl(path, "train")
        save_label_map(corpus, tmp_path / "labels.json")
        assert load_label_map(tmp_path / "labels.json") == {"b": 0, "a": 1}


class TestSynthetic:
    def spec(self, **kw):
        base = dict(num_classes=3, train_size=300, val_size=60, test_size=60,
                    feature_dim=16, class_separation=3.0,
                    label_noise_fraction=0.0, ood_shift=1.0, seed=5)
        base.update(kw)
        return SynthSpec(**base)

    def test_no_noise_no_flags(self):
        train, *_ = generate_synthetic(self.spec())
        assert not any(eid.endswith(NOISY_SUFFIX) for eid in train.ids())

    def test_exact_noise_count(self):
        train, *_ = generate_synthetic(
            self.spec(train_size=1000, label_noise_fraction=0.1)
        )
        assert sum(eid.endswith(NOISY_SUFFIX) for eid in train.ids()) == 100

    def test_determinism_bytewise(self, tmp_path):
        for name in ("a", "b"):
            train, *_ = generate_synthetic(self.spec(label_noise_fraction=0.2))
            save_jsonl(train, tmp_path / f"{name}.jsonl", include_features=True)
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_seeds_differ(self):
        t1, *_ = generate_synthetic(self.spec(seed=1))
        t2, *_ = generate_synthetic(self.spec(seed=2))
        assert not csr_equal(t1.feature_matrix(), t2.feature_matrix())

    def test_unit_norm_features(self):
        for corpus in generate_synthetic(self.spec()):
            X = corpus.feature_matrix()
            for lo, hi in zip(X.indptr, X.indptr[1:]):
                norm = sum(v * v for v in X.data[lo:hi])
                assert norm == pytest.approx(1.0, abs=1e-9)

    def test_split_names_and_sizes(self):
        train, val, tid, tood = generate_synthetic(self.spec())
        assert (train.split_name, val.split_name) == ("train", "validation")
        assert (tid.split_name, tood.split_name) == ("test_id", "test_ood")
        assert (train.size, val.size, tid.size, tood.size) == (300, 60, 60, 60)

    def test_round_trip_ids_labels_tokens(self, tmp_path):
        train, *_ = generate_synthetic(self.spec(label_noise_fraction=0.1))
        path = tmp_path / "train.jsonl"
        save_jsonl(train, path, include_features=True)
        back = load_jsonl(path, "train")
        assert back.ids() == train.ids()
        assert back.labels().tolist() == train.labels().tolist()
        assert back.tokens == train.tokens
        assert csr_equal(back.feature_matrix(), train.feature_matrix())

    def test_noise_fraction_bound(self):
        with pytest.raises(ValueError):
            self.spec(label_noise_fraction=0.5)

    def test_feature_dim_invariant(self):
        train, *_ = generate_synthetic(self.spec())
        X = train.feature_matrix()
        assert np.diff(X.indptr).min() > 0
        assert X.indices.max() < train.feature_dim
