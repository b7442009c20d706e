"""Tests of the benchmark's own machinery: python3 -m pytest perfbench"""

import sys
from pathlib import Path

import spans
import textcorpus
from spans import Span, Tracer

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def test_self_time_is_span_minus_direct_children():
    tree = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("leaf", 2.0, 3.0, 1),
        Span("a", 5.0, 9.0, 0),
        Span("leaf", 5.5, 6.0, 3),
        Span("leaf", 6.0, 7.5, 3),
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 2.0, 0.5, 1.5]
    agg = spans.totals(tree)
    assert agg["a"] == {"calls": 2, "total_s": 7.0, "self_s": 4.0}
    assert agg["leaf"] == {"calls": 3, "total_s": 3.0, "self_s": 3.0}
    # Self times partition the root span exactly.
    assert sum(row["self_s"] for row in agg.values()) == agg["root"]["total_s"]


def test_tracer_nests_spans_and_counts():
    class Owner:
        @staticmethod
        def inner(x):
            return x + 1

    tracer = Tracer(maxima=frozenset({"peak"}))
    inner = tracer.wrap("inner", Owner.inner, lambda a, k, r: {"calls": 1, "peak": r})
    outer = tracer.wrap("outer", lambda: inner(1) + inner(5))
    assert outer() == 8
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("outer", -1), ("inner", 0), ("inner", 0)]
    assert tracer.counters == {"calls": 2, "peak": 6}


def test_install_patches_every_binding_and_uninstall_restores():
    from currikit import cli, difficulty, trainer

    original = trainer.train
    tracer = Tracer()
    tracer.install([("trainer.train", trainer, "train", None)])
    try:
        assert trainer.train is not original
        assert difficulty.train is trainer.train  # bound by name in difficulty
        assert trainer.train.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert trainer.train is original and difficulty.train is original
    assert cli.trainer.train is original


def test_text_corpus_bytes_follow_the_seed(tmp_path):
    def corpus_bytes(seed, name):
        paths = textcorpus.write(seed, tmp_path / name, train_size=60, eval_size=20)
        return {split: path.read_bytes() for split, path in paths.items()}

    first = corpus_bytes(7, "a")
    assert corpus_bytes(7, "b") == first
    assert all(corpus_bytes(8, "c")[split] != first[split] for split in first)
    assert any(b'"text_b"' in data for data in first.values())
