import json
import math
import tempfile
from collections import Counter
from dataclasses import replace
from itertools import chain
from pathlib import Path

import numpy as np
import pytest

from currikit import difficulty
from currikit.corpus import SynthSpec, generate_synthetic, load_jsonl
from currikit.curricula import RandomSampler, build_competence_plan
from currikit.difficulty import (
    CrossReviewConfig,
    cross_review,
    from_td,
    length_metric,
    partition_subsets,
    perplexity_metric,
    rarity_metric,
    read_scores,
    read_scores_header,
    write_scores,
)
from currikit.dynamics import TDStats, read_td_stats, write_td_stats
from currikit.trainer import TrainConfig, predict, train
from token_pairs import token_pairs


def text_corpus(texts, labels=None, num_classes=2, split="train"):
    """Corpus loaded from (text_a, text_b) pairs, or bare text_a strings,
    with hashed features; example i has id x{i}, so its scores are row i."""
    records = []
    for i, item in enumerate(texts):
        text_a, text_b = item if isinstance(item, tuple) else (item, None)
        records.append({"id": f"x{i}", "text_a": text_a, "text_b": text_b,
                        "label": f"c{labels[i] if labels else 0}"})
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"
        path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        return load_jsonl(path, split, dim=1024,
                          label_map={f"c{i}": i for i in range(num_classes)})


class TestFromTD:
    # rows: a, b
    stats = TDStats(ids=["a", "b"], confidence=np.array([0.9, 0.1]),
                    correctness=np.array([3, 3]), variability=np.array([0.0, 0.4]))

    def test_confidence_orientation(self):
        scores = from_td(self.stats, "confidence")
        assert scores.higher_is_easier
        # a is the more confident example
        assert scores.scores[0] > scores.scores[1]

    def test_correctness_tie(self):
        scores = from_td(self.stats, "correctness")
        assert scores.scores[0] == scores.scores[1] == 3.0

    def test_variability_orientation(self):
        scores = from_td(self.stats, "variability")
        assert not scores.higher_is_easier
        # b has the higher uncertainty
        assert scores.scores[1] > scores.scores[0]

    def test_missing_example(self, tmp_path):
        write_td_stats(self.stats, tmp_path / "td_stats.jsonl")
        with pytest.raises(ValueError, match="'c'"):
            read_td_stats(tmp_path / "td_stats.jsonl", ids=["a", "b", "c"])

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            from_td(self.stats, "loss")


class TestPartition:
    def test_near_equal_99_by_3(self):
        folds = partition_subsets(99, 3, seed=0)
        assert [len(f) for f in folds] == [33, 33, 33]

    def test_remainder_to_lowest_indices(self):
        folds = partition_subsets(10, 4, seed=0)
        assert [len(f) for f in folds] == [3, 3, 2, 2]

    def test_is_a_partition(self):
        folds = partition_subsets(57, 5, seed=3)
        assert sorted(np.concatenate(folds)) == list(range(57))

    def test_seeded(self):
        one, again, other = (np.concatenate(partition_subsets(30, 3, seed=s))
                             for s in (1, 1, 2))
        assert np.array_equal(one, again)
        assert not np.array_equal(one, other)


@pytest.fixture(scope="module")
def easy_synth():
    spec = SynthSpec(num_classes=2, train_size=120, val_size=40, test_size=40,
                     feature_dim=16, class_separation=5.0,
                     label_noise_fraction=0.0, ood_shift=0.5, seed=21)
    return generate_synthetic(spec)[0]


class TestCrossReview:
    def config(self, n):
        return CrossReviewConfig(
            num_subsets=n, seed=9,
            train=TrainConfig(epochs=2, batch_size=8, learning_rate=1.0, seed=1),
        )

    def test_two_folds_scores_binary(self, easy_synth):
        # each example is voted on by the one teacher that did not train on it
        scores = cross_review(easy_synth, self.config(2))
        assert set(scores.scores.tolist()) <= {0.0, 1.0}
        assert len(partition_subsets(easy_synth.size, 2, seed=9)) == 2

    def test_separable_data_mostly_max_votes(self, easy_synth):
        scores = cross_review(easy_synth, self.config(3))
        max_votes = sum(1 for v in scores.scores.tolist() if v == 2.0)
        assert max_votes / easy_synth.size >= 0.90

    def test_totality_and_orientation(self, easy_synth):
        scores = cross_review(easy_synth, self.config(3))
        assert scores.ids == easy_synth.ids() and len(scores.scores) == easy_synth.size
        assert scores.higher_is_easier

    def test_no_fold_scores_itself(self, easy_synth):
        # structural leakage check: score bound is N-1, and the fold
        # partition covers the corpus exactly once
        config = self.config(4)
        scores = cross_review(easy_synth, config)
        folds = partition_subsets(easy_synth.size, 4, seed=9)
        assert sorted(np.concatenate(folds)) == list(range(easy_synth.size))
        assert max(scores.scores.tolist()) <= 3.0
        # reference loop: fold k's teacher votes only on rows outside fold k
        votes = [0.0] * easy_synth.size
        for k, fold in enumerate(folds):
            cfg = replace(config.train, seed=config.train.seed + k)
            sampler = RandomSampler(np.sort(fold), cfg.batch_size, seed=cfg.seed)
            params, _, _ = train(easy_synth, None, cfg, sampler, collect_probes=False)
            pred = predict(params, easy_synth)
            for row, label in enumerate(easy_synth.labels()):
                if row not in fold and pred[row] == label:
                    votes[row] += 1
        assert scores.scores.tolist() == votes

    def test_subset_smaller_than_batch(self, easy_synth):
        cfg = CrossReviewConfig(
            num_subsets=20, seed=0,
            train=TrainConfig(epochs=1, batch_size=32, learning_rate=1.0, seed=1),
        )
        with pytest.raises(ValueError, match="num_subsets"):
            cross_review(easy_synth, cfg)


class TestLength:
    def test_empty_text(self):
        corpus = text_corpus([""])
        assert length_metric(corpus).scores[0] == 0.0

    def test_single_segment(self):
        corpus = text_corpus(["the cat sat ."])
        scores = length_metric(corpus)
        assert scores.scores[0] == 4.0
        assert not scores.higher_is_easier

    def test_pair_sums_segments(self):
        corpus = text_corpus([("a b c", "d e f g h")])
        assert length_metric(corpus).scores[0] == 8.0


class TestRarity:
    def test_direct_evaluation(self):
        # train tokens: the, the, cat, dog -> f(the)=0.5, f(cat)=f(dog)=0.25
        train = text_corpus(["the the cat dog"])
        target = text_corpus(["the cat"])
        score = rarity_metric(target, train_corpus=train).scores[0]
        assert score == pytest.approx(-(math.log(0.5) + math.log(0.25)), abs=1e-9)
        assert score == pytest.approx(2.0794, abs=1e-4)

    def test_empty_input(self):
        corpus = text_corpus(["a b", ""])
        assert rarity_metric(corpus).scores[1] == 0.0

    def test_duplication_increases_score(self):
        corpus = text_corpus(["a b", "a a b"])
        scores = rarity_metric(corpus).scores
        assert scores[1] > scores[0]

    def test_unseen_token_fallback(self):
        train = text_corpus(["a a b"])  # total=3, V=2
        target = text_corpus(["z"])
        score = rarity_metric(target, train_corpus=train).scores[0]
        assert score == pytest.approx(-math.log(1 / 6), abs=1e-12)

    def test_nonnegative_and_additive_over_segments(self):
        train = text_corpus(["u v w u v"])
        joint = text_corpus([("u v", "w")])
        seg_a = text_corpus(["u v"])
        seg_b = text_corpus(["w"])
        s_joint = rarity_metric(joint, train_corpus=train).scores[0]
        s_a = rarity_metric(seg_a, train_corpus=train).scores[0]
        s_b = rarity_metric(seg_b, train_corpus=train).scores[0]
        assert s_joint >= 0
        assert s_joint == pytest.approx(s_a + s_b, abs=1e-12)


class TestPerplexity:
    def test_single_type_low_k(self):
        train = text_corpus(["a a a a"])
        scores = perplexity_metric(train, order=1, add_k=1e-9)
        assert scores.scores[0] == pytest.approx(1.0, abs=1e-6)

    def test_unigram_add_one(self):
        # counts {a:3, b:1}, V=2; P(a) = (3+1)/(4+2) = 2/3 -> ppl 1.5
        train = text_corpus(["a a a b"])
        target = text_corpus(["a"])
        score = perplexity_metric(target, order=1, add_k=1.0,
                                  train_corpus=train).scores[0]
        assert score == pytest.approx(1.5, abs=1e-12)

    def test_uniform_unigram_equals_vocab_size(self):
        train = text_corpus(["a b c d a b c d"])  # 4 types, uniform
        target = text_corpus(["a b", "d"])
        scores = perplexity_metric(target, order=1, add_k=0.5, train_corpus=train)
        assert scores.scores[1] == pytest.approx(4.0, abs=1e-9)

    def test_two_segments_sum(self):
        train = text_corpus(["a b a b"])
        pair = text_corpus([("a", "b")])
        single_a = text_corpus(["a"])
        single_b = text_corpus(["b"])
        ppl = lambda c: perplexity_metric(c, order=2, add_k=1.0,
                                          train_corpus=train).scores[0]
        assert ppl(pair) == pytest.approx(ppl(single_a) + ppl(single_b), abs=1e-9)

    def test_bigram_uses_context(self):
        # "a b" always; after a, b is near-certain under a bigram
        train = text_corpus(["a b a b a b a b"])
        target = text_corpus(["a b"])
        bi = perplexity_metric(target, order=2, add_k=0.01, train_corpus=train)
        uni = perplexity_metric(target, order=1, add_k=0.01, train_corpus=train)
        assert bi.scores[0] < uni.scores[0] * 1.5

    def test_invalid_order(self):
        with pytest.raises(ValueError, match="order"):
            perplexity_metric(text_corpus(["a"]), order=3)


def loop_rarity(corpus, train):
    """Reference: one math.log per token occurrence, as rarity_metric was."""
    counts = Counter(tok for pair in token_pairs(train) for seg in pair for tok in seg)
    total = sum(counts.values())
    unseen = 1.0 / (total + len(counts) + 1)
    scores = []
    for tokens_a, tokens_b in token_pairs(corpus):
        s = 0.0
        for tok in chain(tokens_a, tokens_b):
            s -= math.log(counts[tok] / total if counts[tok] else unseen)
        scores.append(s)
    return np.array(scores)


def loop_perplexity(corpus, train, order, add_k):
    """Reference: per-token counting and one math.log per token occurrence,
    as NGramModel was."""
    unigram, bigram, context = Counter(), Counter(), Counter()
    for segment in chain.from_iterable(token_pairs(train)):
        unigram.update(segment)
        prev = "<s>"
        for tok in segment:
            bigram[(prev, tok)] += 1
            context[prev] += 1
            prev = tok
    total, v = sum(unigram.values()), len(unigram)

    def ppl(segment):
        if not segment:
            return 0.0
        nll, prev = 0.0, "<s>"
        for tok in segment:
            if order == 1:
                num, den = unigram[tok] + add_k, total + add_k * v
            else:
                num, den = bigram[(prev, tok)] + add_k, context[prev] + add_k * v
            nll -= math.log(num / den)
            prev = tok
        return math.exp(nll / len(segment))

    return np.array([ppl(a) + ppl(b) for a, b in token_pairs(corpus)])


def random_texts(rng, n, vocab, empty_b=None):
    """n (text_a, text_b) pairs of 0-11 and 0-3 words from ``vocab``; an empty
    text_b becomes ``empty_b``."""
    return [(" ".join(rng.choice(vocab, size=int(rng.integers(0, 12)))),
             " ".join(rng.choice(vocab, size=int(rng.integers(0, 4)))) or empty_b)
            for _ in range(n)]


class TestHeuristicsSameBits:
    """Heuristics take one math.log per distinct token or token pair and
    still equal the per-occurrence loops bit for bit."""

    @pytest.fixture(scope="class")
    def corpora(self):
        rng = np.random.default_rng(6)
        words = [f"w{i}" for i in range(40)]
        # the target split holds tokens and pairs the train split never does
        return (text_corpus(random_texts(rng, 80, words[:30])),
                text_corpus(random_texts(rng, 30, words)))

    def test_rarity(self, corpora):
        train, target = corpora
        for corpus in (train, target):
            got = rarity_metric(corpus, train_corpus=train).scores
            assert got.tobytes() == loop_rarity(corpus, train).tobytes()

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("add_k", [1.0, 0.3])
    def test_perplexity(self, corpora, order, add_k):
        train, target = corpora
        for corpus in (train, target):
            got = perplexity_metric(corpus, order=order, add_k=add_k, train_corpus=train)
            want = loop_perplexity(corpus, train, order, add_k)
            assert got.scores.tobytes() == want.tobytes()

    @pytest.mark.parametrize("order", [1, 2])
    def test_one_log_per_distinct_key(self, monkeypatch, corpora, order):
        train, target = corpora
        logs = []
        monkeypatch.setattr(difficulty, "math", type("M", (), {
            "log": staticmethod(lambda x: logs.append(x) or math.log(x)),
            "exp": staticmethod(math.exp)}))
        perplexity_metric(target, order=order, train_corpus=train)
        keys = set()
        for segment in chain.from_iterable(token_pairs(train) + token_pairs(target)):
            keys.update(segment if order == 1 else zip(chain(["<s>"], segment), segment))
        assert len(logs) == len(keys)
        logs.clear()
        rarity_metric(target, train_corpus=train)
        train_tokens = {tok for pair in token_pairs(train) for seg in pair for tok in seg}
        assert len(logs) == len(train_tokens) + 1  # and one for every unseen token


class TestHeuristicsSameBitsOtherCorpora(TestHeuristicsSameBits):
    """The same checks on a JSONL corpus through the tokenizer's regex, on a
    synthetic train split smaller than its vocabulary, and on that split
    scored against a JSONL split."""

    @pytest.fixture(scope="class", params=["mixed", "small-synthetic",
                                           "synthetic-and-jsonl"])
    def corpora(self, request):
        rng = np.random.default_rng(6)
        if request.param == "mixed":
            # punctuation, "_", non-ASCII text, empty segments, text_b "" and
            # absent; separate vocabularies, eval tokens unseen in train
            mixed = ["the", "cat", "don't", "snake_case", "\u00fcber", "\u6771\u4eac",
                     "x\u00b2", "!", "...", "\u0130", "\u039f\u0394\u039f\u03a3", "a-b"]
            return (text_corpus(random_texts(rng, 60, mixed[:7], empty_b="")),
                    text_corpus(random_texts(rng, 40, mixed), split="validation"))
        # a synthetic train split of 3 rows uses few of its 120 vocabulary
        # words, so V must count the words it uses, not its vocabulary
        train, *_, test_ood = generate_synthetic(SynthSpec(
            num_classes=2, train_size=3, val_size=2, test_size=40, seed=3))
        used = {tok for pair in token_pairs(train) for seg in pair for tok in seg}
        assert len(used) < len(train.vocab) == 120
        if request.param == "small-synthetic":
            return train, test_ood  # one shared vocabulary
        every_third = [f"w{i:03d}" for i in range(0, 120, 3)]
        return train, text_corpus(random_texts(rng, 30, every_third))


class TestScoresFormat:
    def test_orientation_round_trip_ordering(self):
        from currikit.difficulty import DifficultyScores

        scores = DifficultyScores(
            metric_name="m", higher_is_easier=True,
            ids=["a", "b", "c"], scores=np.array([3.0, 1.0, 2.0]),
        )
        flipped = DifficultyScores(metric_name="m", higher_is_easier=False,
                                   ids=scores.ids, scores=scores.scores)
        easiest, flipped_easiest = (
            build_competence_plan(s, c0=1.0, duration=1).ordering for s in (scores, flipped)
        )
        assert easiest.tolist() == [0, 2, 1]
        assert easiest.tolist() == flipped_easiest[::-1].tolist()

    def test_file_round_trip(self, tmp_path):
        from currikit.difficulty import DifficultyScores

        scores = DifficultyScores(
            metric_name="cross_review", higher_is_easier=True,
            ids=["a", "b"], scores=np.array([2.0, 0.0]),
        )
        path = tmp_path / "scores.jsonl"
        write_scores(scores, path, extra_header={"num_subsets": 3})
        back = read_scores(path)
        assert (back.metric_name, back.ids, back.higher_is_easier, back.variability) == (
            scores.metric_name, scores.ids, scores.higher_is_easier, scores.variability)
        assert back.scores.dtype == np.float64
        assert back.scores.tobytes() == scores.scores.tobytes()
        assert read_scores_header(path)["num_subsets"] == 3

    def test_header_without_orientation_named(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"metric_name": "length"}\n{"example_id": "a", "score": 1.0}\n')
        with pytest.raises(ValueError, match="scores.jsonl:1: missing field 'higher_is_easier'"):
            read_scores(path)

    def test_metrics_are_total(self, easy_synth):
        for metric in (length_metric(easy_synth), rarity_metric(easy_synth),
                       perplexity_metric(easy_synth)):
            assert metric.ids == easy_synth.ids() and len(metric.scores) == easy_synth.size
            assert all(math.isfinite(v) for v in metric.scores.tolist())
