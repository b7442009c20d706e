import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from currikit.corpus import (
    _TOKEN_RE,
    NOISY_SUFFIX,
    SynthSpec,
    featurize,
    fnv1a_64,
    fnv1a_64_batch,
    generate_synthetic,
    load_jsonl,
    save_jsonl,
    save_label_map,
    load_label_map,
    tokenize,
)
from token_pairs import token_pairs


# test_hashed_matrix_golden's digest, computed when each record was featurized
# on its own.
GOLDEN_SHA256 = "461d3ef3d57d5dd06c5f11b9d4f9f7b97a3a2acaad3e582fee5e58b7da11ab11"


def reference_generate_synthetic(spec):
    """``generate_synthetic`` as first written, one ``Generator.choice`` and
    one ``tokenize`` per text: (ids, labels, matrix, texts, tokens,
    label_names) per split."""
    rng = np.random.default_rng(spec.seed)
    C, dim = spec.num_classes, spec.feature_dim
    dirs = rng.normal(size=(C, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    means = spec.class_separation * dirs
    ood_dirs = rng.normal(size=(C, dim))
    ood_dirs /= np.linalg.norm(ood_dirs, axis=1, keepdims=True)
    ood_means = means + spec.ood_shift * ood_dirs

    def text(label):
        length = int(rng.integers(4, 16))
        weights = 1.0 / np.arange(1, 121, dtype=np.float64)
        weights /= weights.sum()
        word_ids = (rng.choice(120, size=length, p=weights) + 7 * label) % 120
        return " ".join(f"w{int(w):03d}" for w in word_ids)

    def draw_split(prefix, n, centers):
        rows, texts = np.zeros((n, dim)), []
        for i in range(n):
            point = centers[i % C] + rng.normal(size=dim)
            texts.append(text(i % C))
            norm = np.linalg.norm(point)
            if norm:
                rows[i] = point / norm
        return [f"{prefix}-{i:06d}" for i in range(n)], np.arange(n) % C, rows, texts

    splits = [draw_split("train", spec.train_size, means),
              draw_split("val", spec.val_size, means),
              draw_split("testid", spec.test_size, means),
              draw_split("testood", spec.test_size, ood_means)]
    num_noisy = int(math.floor(spec.label_noise_fraction * spec.train_size))
    if num_noisy > 0:
        ids, labels = splits[0][:2]
        for i in sorted(int(j) for j in rng.choice(spec.train_size, size=num_noisy,
                                                   replace=False)):
            wrong = [c for c in range(C) if c != labels[i]]
            labels[i] = wrong[int(rng.integers(len(wrong)))]
            ids[i] += NOISY_SUFFIX
    return [(ids, labels, sparse.csr_matrix(rows), [(t, None) for t in texts],
             [(tokenize(t), []) for t in texts], [f"c{i}" for i in range(C)])
            for ids, labels, rows, texts in splits]


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

    @pytest.mark.parametrize("text, tokens", [
        ("snake_case _", ["snake_case", "_"]),  # "_" is \w but not alphanumeric
        ("a\xa0b", ["a", "b"]),  # NBSP is whitespace to both
        ("a\u2028b\u3000c", ["a", "b", "c"]),
        ("x\xb2 \xbd \u216b", ["x\xb2", "\xbd", "\u217b"]),  # numeric, not decimal
        ("\u0663 \u0661\u0662", ["\u0663", "\u0661\u0662"]),  # Arabic-Indic digits
        ("e\u0301te\u0301", ["e", "\u0301", "te", "\u0301"]),  # combining marks
        ("\u0130stanbul", ["i", "\u0307", "stanbul"]),  # lowers to i + a combining dot
        ("\u039f\u0394\u039f\u03a3 \u03a3", ["\u03bf\u03b4\u03bf\u03c2", "\u03c3"]),
        ("", []),
        (" \t\n\xa0\u2028\u3000 ", []),
    ])
    def test_unicode_edges(self, text, tokens):
        assert tokenize(text) == tokens == _TOKEN_RE.findall(text.lower())

    @given(st.one_of(st.text(), st.text(st.sampled_from(
        "aZ9_ \t\n\xa0\u2028\u3000\xb2\xbd\u0663\u0301\u0130\u03a3\u01c5\ufb01.-'"))))
    @settings(max_examples=500, deadline=None)
    def test_is_the_regex(self, text):
        """Any faster split must keep this: the regex over the lowered text."""
        assert tokenize(text) == _TOKEN_RE.findall(text.lower())

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


def test_batch_hash_is_fnv1a_64():
    tokens = ["a", "z", "7", ".", "\x00", "é", "東京", "naïve", "😀",
              "w" * 40, "long" * 12, "ünïcödé" * 8, ""]
    keys = [salt + tok.encode("utf-8") for salt in (b"a:", b"b:") for tok in tokens]
    hashes = fnv1a_64_batch(keys)
    assert hashes.dtype == np.uint64
    assert hashes.tolist() == [fnv1a_64(key) for key in keys]
    assert fnv1a_64_batch([]).tolist() == []


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
        assert token_pairs(corpus)[1] == (["c"], ["d"])
        assert corpus.texts == [("a b", None), ("c", "d"), ("e", None)]

    def test_duplicate_id_named(self, tmp_path):
        path = tmp_path / "c.jsonl"
        self._write(path, [
            {"id": "x1", "text_a": "a", "label": "p"},
            {"id": "x1", "text_a": "b", "label": "p"},
        ])
        with pytest.raises(ValueError, match=r"c\.jsonl:2: duplicate example id 'x1'"):
            load_jsonl(path, "train")

    @pytest.mark.parametrize("line", [
        "{bad", '{"id": "x2"} {"id": "x3"}', '{"id": "x2"}]', "\ufeff{}", "[1] 2", "nul",
        '{"id": NaN', '{"id": "\\ud800"'])
    def test_invalid_json_names_what_json_loads_names(self, tmp_path, line):
        """The line parse gives json.loads' error text, the parsed prefix of
        a line with more after it and a byte-order mark included."""
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "x1", "text_a": "a", "label": "p"}\n' + line + "\n",
                        encoding="utf-8")
        with pytest.raises(json.JSONDecodeError) as want:
            json.loads(line)
        with pytest.raises(ValueError) as got:
            load_jsonl(path, "train")
        assert str(got.value) == f"{path}:2: invalid JSON ({want.value})"

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
        assert token_pairs(corpus) == [(["5"], ["7"])]

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
        # empty rows, text_b alone, and tokens repeated within and across segments
        pairs = [("The cat sat.", None), ("a b a", "b c"), ("", ""), ("", "b only"),
                 ("x x y", "y x x"), ("z", None)]
        self._write(path, [{"id": f"x{i}", "text_a": a, "text_b": b, "label": "p"}
                           for i, (a, b) in enumerate(pairs)])
        for dim in (1024, 2):
            X = load_jsonl(path, "train", dim=dim).feature_matrix()
            assert X.shape == (len(pairs), dim)
            for row, (a, b) in enumerate(pairs):
                feats = featurize(tokenize(a), tokenize(b or ""), dim)
                lo, hi = X.indptr[row], X.indptr[row + 1]
                assert X.indices[lo:hi].tolist() == sorted(feats)
                assert X.data[lo:hi].tobytes() == np.array(
                    [feats[k] for k in sorted(feats)], dtype=np.float64).tobytes()

    def test_each_distinct_token_hashed_once_per_load(self, tmp_path, monkeypatch):
        from currikit import corpus as corpus_module

        hashed = []
        batch = corpus_module.fnv1a_64_batch
        monkeypatch.setattr(corpus_module, "fnv1a_64_batch",
                            lambda keys: hashed.extend(keys) or batch(keys))
        path = tmp_path / "c.jsonl"
        self._write(path, [{"id": "x1", "text_a": "a b a", "text_b": "a", "label": "p"},
                           {"id": "x2", "text_a": "b c", "text_b": "c a", "label": "p"}])
        once = sorted([b"a:a", b"a:b", b"a:c", b"b:a", b"b:c"])
        X = load_jsonl(path, "train", dim=1024).feature_matrix()
        assert sorted(hashed) == once
        hashed.clear()  # the token slots last one load: the next one hashes again
        assert csr_equal(load_jsonl(path, "train", dim=1024).feature_matrix(), X)
        assert sorted(hashed) == once

    def test_hashed_matrix_golden(self, tmp_path):
        """A fixed 20-record file gives the CSR bytes it gave before the
        split-at-once hash (sha256 of data, indices and indptr)."""
        words = ["Alpha", "beta", "δέλτα", "naïve", "x", "!", "don't", "b" * 45,
                 "\x00", "12", "the", "über-cool", "a", "?", "東京"]
        records = []
        for i in range(20):
            text_a = " ".join(words[(i * j + i) % len(words)] for j in range(i % 7))
            rec = {"id": f"g{i}", "text_a": text_a, "label": ("pos", "neg")[i % 2]}
            if i % 3:
                rec["text_b"] = " ".join(words[(j * 5 + i) % len(words)]
                                         for j in range(i % 4))
            records.append(rec)
        path = tmp_path / "golden.jsonl"
        self._write(path, records)
        X = load_jsonl(path, "train").feature_matrix()
        digest = hashlib.sha256(X.data.tobytes() + X.indices.tobytes()
                                + X.indptr.tobytes()).hexdigest()
        assert digest == GOLDEN_SHA256

    def test_hashed_index_past_fixed_width_names_first_line(self, tmp_path):
        # an eval split of text under a train split of 4 "features" columns
        path = tmp_path / "c.jsonl"
        path.write_text("\n".join([
            json.dumps({"id": "x1", "text_a": "", "label": "p"}), "",
            json.dumps({"id": "x2", "text_a": "b c", "text_b": "d", "label": "p"}),
            json.dumps({"id": "x3", "text_a": "e", "label": "p"})]) + "\n")
        largest = max(featurize(["b", "c"], ["d"], 2 ** 18))
        with pytest.raises(ValueError, match=f"c\\.jsonl:3: feature index {largest} "
                                             "is not below the feature dimension 4"):
            load_jsonl(path, "validation", feature_dim=4)

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
        assert token_pairs(back) == token_pairs(train)
        assert csr_equal(back.feature_matrix(), train.feature_matrix())

    def test_noise_fraction_bound(self):
        with pytest.raises(ValueError):
            self.spec(label_noise_fraction=0.5)

    @pytest.mark.parametrize("field", ["class_separation", "label_noise_fraction",
                                       "ood_shift"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_number_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            self.spec(**{field: value})

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(num_classes=st.integers(2, 6), train_size=st.integers(1, 60),
           val_size=st.integers(1, 20), test_size=st.integers(1, 20),
           feature_dim=st.integers(1, 40),
           class_separation=st.floats(0.1, 5.0),
           label_noise_fraction=st.floats(0.0, 0.49),
           ood_shift=st.sampled_from([0.0, 1.0, 2.5]), seed=st.integers(0, 2 ** 32))
    def test_same_bytes_as_reference(self, **fields):
        spec = SynthSpec(**fields)
        for corpus, (ids, labels, matrix, texts, tokens, label_names) in zip(
                generate_synthetic(spec), reference_generate_synthetic(spec)):
            assert corpus.ids() == ids
            assert corpus.labels().tobytes() == labels.astype(np.int64).tobytes()
            assert corpus.texts == texts
            assert token_pairs(corpus) == tokens
            assert corpus.label_names == label_names
            X = corpus.feature_matrix()
            for name in ("data", "indices", "indptr"):
                got, want = getattr(X, name), getattr(matrix, name)
                assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes()), name
            assert X.shape == matrix.shape

    def test_feature_dim_invariant(self):
        train, *_ = generate_synthetic(self.spec())
        X = train.feature_matrix()
        assert np.diff(X.indptr).min() > 0
        assert X.indices.max() < train.feature_dim
