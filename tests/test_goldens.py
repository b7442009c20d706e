"""Byte goldens for the scoring layer: plan summaries and served batches of
the curriculum samplers, and the bytes of the scores, dynamics-stats,
outcomes, probes, run-log and data-map writers, all built from fixed inputs.

The inputs go through the same edges a student run uses (a dynamics-stats
or scores file read back for a train id order) so that these digests pin
behavior, not one in-memory representation. No pinned value goes through
a numpy transcendental ufunc (``np.log``/``np.exp`` may differ in the last
bit across CPUs): the variability-weighted annealing order does, so only
its plan is pinned, not its batches.
"""

import hashlib
import json

import numpy as np
import pytest

from currikit import analysis, cli, difficulty, dynamics, trainer
from currikit.corpus import load_jsonl
from currikit.curricula import plan_summary
from currikit.trainer import Probes

# Train order, deliberately not sorted; "a" and "a\x00" differ only by a
# trailing NUL, which a numpy string array would drop.
TRAIN_IDS = ["m3", "b7", "a\x00", "z1", "c4", "a", "k9", "b10", "q2", "e5",
             "y8", "d6", "n0", "f11", "x13", "g12", "w14", "h15", "v16", "i17"]

# Scores with ties: correctness and votes take few values, confidence and
# variability repeat.
CONFIDENCE = [0.5, 0.25, 0.5, 0.875, 0.125, 0.5, 0.25, 0.75, 0.875, 0.5,
              0.375, 0.625, 0.25, 0.75, 0.5, 0.125, 0.875, 0.625, 0.375, 0.5]
CORRECTNESS = [2, 1, 2, 3, 0, 2, 1, 3, 3, 2, 1, 2, 1, 3, 2, 0, 3, 2, 1, 2]
VARIABILITY = [0.125, 0.25, 0.125, 0.0, 0.5, 0.0625, 0.25, 0.125, 0.0, 0.125,
               0.375, 0.25, 0.25, 0.0625, 0.125, 0.5, 0.0, 0.25, 0.375, 0.125]
VOTES = [2, 1, 3, 3, 0, 2, 1, 3, 2, 2, 1, 0, 1, 3, 2, 0, 3, 2, 1, 2]
LENGTHS = [7, 3, 7, 12, 5, 7, 3, 9, 12, 7, 4, 6, 3, 9, 7, 5, 12, 6, 4, 7]

# File records are written in a different order from TRAIN_IDS, plus one
# record for an id the train split does not hold.
FILE_ORDER = [5, 2, 19, 0, 11, 7, 3, 16, 9, 1, 14, 6, 18, 4, 10, 13, 8, 15, 12, 17]

ANNEALING_EPOCHS = 3
CONFIG = {"curriculum": {"c0": 0.1, "duration": 30}}
BATCH_SIZE = 4


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_lines(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return path


@pytest.fixture
def stats_file(tmp_path):
    records = [{"example_id": TRAIN_IDS[i], "confidence": CONFIDENCE[i],
                "correctness": CORRECTNESS[i], "variability": VARIABILITY[i]}
               for i in FILE_ORDER]
    records.insert(4, {"example_id": "extra", "confidence": 0.5, "correctness": 1,
                       "variability": 0.25})
    return write_lines(tmp_path / "td_stats.jsonl", records)


def scores_file(tmp_path, name, header, values):
    records = [{"example_id": TRAIN_IDS[i], "score": float(values[i])}
               for i in FILE_ORDER]
    records.insert(7, {"example_id": "extra", "score": 1.0})
    return write_lines(tmp_path / f"scores_{name}.jsonl", [header, *records])


@pytest.fixture
def cr_file(tmp_path):
    return scores_file(tmp_path, "cross_review",
                       {"metric_name": "cross_review", "higher_is_easier": True,
                        "num_subsets": 4}, VOTES)


@pytest.fixture
def length_file(tmp_path):
    return scores_file(tmp_path, "length",
                       {"metric_name": "length", "higher_is_easier": False}, LENGTHS)


def sampler_and_plan(path, scheduler):
    scores = cli._read_scores(path, scheduler, list(TRAIN_IDS))
    epochs = ANNEALING_EPOCHS if "anneal" in scheduler else None
    steps_per_epoch = -(-len(TRAIN_IDS) // BATCH_SIZE)
    return cli._build_sampler(scheduler, scores, epochs, CONFIG, 7, None, BATCH_SIZE,
                              5 * steps_per_epoch)


def summary_digest(plan) -> str:
    return sha(json.dumps(plan_summary(plan), sort_keys=True).encode("utf-8"))


def batches_digest(sampler, count=50) -> str:
    batches = [np.asarray(sampler.next_batch(step), dtype="<i8")
               for step in range(1, count + 1)]
    return sha(np.concatenate(batches).tobytes())


PLAN_GOLDENS = {
    "cr_anneal":
        "748dcdab8e6f84deed31d550a6d8fc786681e60d4254f6a7bb55fbe6a227e7cb",
    "corr_anneal":
        "d42a5be0537790420aec282974d634e3b759dfce9ceb45851eb76d246870758f",
    "corr+var_anneal":
        "0c497f228464c56dcdf7b3bd7919120423a3ff6940adf89d1e39eedf3add15dd",
    "conf_comp":
        "2762ee35408dd996cb795444cc1f068df27d5dbb70a84dec1fc58cfd499ff4f3",
    "conf+var_comp":
        "9960418d0da1ef04d7b7bbeac3875bfd5fbda363b7990557eb7a3c35d50f98b5",
    "length":
        "4f67298f46caba88c6853a3db2ba8b4756ad261284eeff702b6ad074608cc17f",
}

BATCH_GOLDENS = {
    "cr_anneal":
        "c606d62e8564ccac7f94fa08f70f4ee68865588d9fdca8972385902a09eb7c3d",
    "corr_anneal":
        "80c26ef26b9de542eb03aaf1683616a47a434a0aef2d8d154d3d9a6e3b1f86a6",
    "conf_comp":
        "b7222171e500da59a49e957aa2899249aacb49efba04f7284f90df23d4e8ad19",
    "conf+var_comp":
        "542fd25f3b3abc2594e8454e3f30745bbe3dea1f512d38b6e7b58fb6bb65fb60",
    "length":
        "75c76025b6b03a4a4a980e1ba6b6b35e5c2cca9026b17cf99afe33c76b940ebc",
}


def source(scheduler, stats_file, cr_file, length_file):
    return {"cr_anneal": cr_file, "length": length_file}.get(scheduler, stats_file)


@pytest.mark.parametrize("scheduler", sorted(PLAN_GOLDENS))
def test_plan_summary_golden(scheduler, stats_file, cr_file, length_file):
    _, plan = sampler_and_plan(source(scheduler, stats_file, cr_file, length_file),
                               scheduler)
    assert summary_digest(plan) == PLAN_GOLDENS[scheduler]


@pytest.mark.parametrize("scheduler", sorted(BATCH_GOLDENS))
def test_served_batches_golden(scheduler, stats_file, cr_file, length_file):
    sampler, _ = sampler_and_plan(source(scheduler, stats_file, cr_file, length_file),
                                  scheduler)
    assert batches_digest(sampler) == BATCH_GOLDENS[scheduler]


def probes() -> Probes:
    # Four epochs of dyadic probabilities; the last column is constant.
    rng = np.random.default_rng(11)
    gold = rng.integers(0, 65, size=(4, len(TRAIN_IDS))) / 64.0
    gold[:, -1] = 0.5
    return Probes(ids=list(TRAIN_IDS), gold_prob=gold, correct=gold > 0.5)


WRITER_GOLDENS = {
    "td_stats":
        "8bc1cbc6c5ca17a04e2aebc28fd982bf7ee404b5f6bbf92af207463380a8c55a",
    "scores_confidence":
        "df346cdbf523dbfe9076eeac81b677e8325d9d7d8324a7c1bd782646cbbd7e30",
    "scores_cross_review":
        "a6efa7ce4a565bf3a3f7e7e7a46fa4fa2353ff36fdc897a4d12336e974218a0b",
    "datamap_csv":
        "3b1f3c955d6888a62cfade10ceb113114d7614c508e93edc342c3fc0018fb468",
    "datamap_svg":
        "822abef663a0ea12ce0cecf97c0310964d32d976229aec8a1835d1285e30652e",
    "outcomes":
        "fc3e250988933a6c660eca7d92c6483dfd1df609307ca67674b964fe4a48bbcc",
    "probes":
        "1d9057ce4e4be9f62a28404ec0a9a718c47b001886f73fe03162282fd8767b40",
    "runlog":
        "e166a684ac39f33e2592420fe568653c175fda5c56132fb9619d87d90b227943",
}


def runlog() -> trainer.RunLog:
    # Losses from 1e-6 to 1e17 (exact power-of-two scaling, so the bytes do
    # not depend on a libm pow), an accuracy per third step, and the NaN
    # marker of a training without a validation split.
    losses = np.ldexp(np.random.default_rng(5).random(12), np.arange(-20, 64, 7))
    records = []
    for step, loss in enumerate(losses.tolist(), start=1):
        records.append((step, "train", "loss", loss))
        if step % 3 == 0:
            records.append((step, "validation", "accuracy", step / 16))
    return trainer.RunLog(records=records, best_step=12, best_val_metric=float("nan"))


def test_writer_bytes_golden(tmp_path, cr_file):
    stats = dynamics.compute_all(probes())
    dynamics.write_td_stats(stats, tmp_path / "out" / "td_stats.jsonl")
    difficulty.write_scores(difficulty.from_td(stats, "confidence"),
                            tmp_path / "out" / "scores_confidence.jsonl")
    difficulty.write_scores(difficulty.read_scores(cr_file),
                            tmp_path / "out" / "scores_cross_review.jsonl",
                            extra_header={"num_subsets": 4})
    analysis.datamap_export(dynamics.read_td_stats(tmp_path / "out" / "td_stats.jsonl"),
                            tmp_path / "out")
    cli._write_outcomes(tmp_path / "out" / "outcomes_test_id.jsonl", list(TRAIN_IDS),
                        probes().correct[-1])
    trainer.write_probes(probes(), tmp_path / "out" / "probes.jsonl")
    trainer.write_runlog(runlog(), tmp_path / "out" / "runlog.jsonl")
    files = {"td_stats": "td_stats.jsonl", "scores_confidence": "scores_confidence.jsonl",
             "scores_cross_review": "scores_cross_review.jsonl",
             "datamap_csv": "datamap.csv", "datamap_svg": "datamap.svg",
             "outcomes": "outcomes_test_id.jsonl", "probes": "probes.jsonl",
             "runlog": "runlog.jsonl"}
    digests = {k: sha((tmp_path / "out" / f).read_bytes()) for k, f in files.items()}
    assert digests == WRITER_GOLDENS


# Heuristic scores of a fixed hand-written corpus (punctuation, "_", non-ASCII
# text, empty segments, an eval split with tokens the train split lacks),
# loaded as the text teacher loads it. The scores go through libm's log and
# exp only (math.log, math.exp), never a numpy ufunc.
HEURISTIC_GOLDENS = {
    "rarity_train":
        "58aac64ceac760b1ba5970ff782baa447638092a6db6e3722ca8ad33b5900c17",
    "ppl_train":
        "1013ffedd6b519349f5f8c87dd8c473ea553540b940cf805be5104a8e15dc07d",
    "rarity_eval":
        "16730d9b807a5bdf711b1ae172d7e0cb2db97bb544887a3160cbd1133ba76664",
    "ppl_eval":
        "1a3a3ba2ec07743b85fe3953c1cfe2df92564d756a8f927506ae93644f49d230",
}

WORDS = ["Alpha", "beta", "\u03b4\u03ad\u03bb\u03c4\u03b1", "na\u00efve", "x", "!",
         "don't", "snake_case", "12", "the", "\u00fcber-cool", "a", "?",
         "\u6771\u4eac", "\u0130stanbul", "\u039f\u0394\u039f\u03a3", "x\u00b2", "..."]


def heuristic_corpus(path, split, rows, words, label_map=None):
    records = []
    for i in range(rows):
        rec = {"id": f"{split}{i}", "label": ("p", "n")[i % 2],
               "text_a": " ".join(words[(i * j + i) % len(words)] for j in range(i % 6))}
        if i % 3 == 1:
            rec["text_b"] = " ".join(words[(j * 5 + i) % len(words)] for j in range(i % 4))
        records.append(rec)
    return load_jsonl(write_lines(path, records), split, dim=1024, label_map=label_map)


def test_heuristic_scores_golden(tmp_path):
    train = heuristic_corpus(tmp_path / "train.jsonl", "train", 24, WORDS[:11])
    evals = heuristic_corpus(tmp_path / "eval.jsonl", "validation", 30, WORDS,
                             label_map={"p": 0, "n": 1})
    scores = {
        "rarity_train": difficulty.rarity_metric(train),
        "ppl_train": difficulty.perplexity_metric(train),
        "rarity_eval": difficulty.rarity_metric(evals, train_corpus=train),
        "ppl_eval": difficulty.perplexity_metric(evals, order=1, add_k=0.5,
                                                 train_corpus=train),
    }
    digests = {}
    for name, metric in scores.items():
        difficulty.write_scores(metric, tmp_path / f"{name}.jsonl")
        digests[name] = sha((tmp_path / f"{name}.jsonl").read_bytes())
    assert digests == HEURISTIC_GOLDENS
