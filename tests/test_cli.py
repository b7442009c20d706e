import contextlib
import hashlib
import io
import json
import math
import shutil
from pathlib import Path

import pytest

from currikit import analysis, cli, difficulty, trainer
from currikit.cli import (
    SCHEDULERS,
    ValidationError,
    cmd_compare,
    cmd_student,
    cmd_sweep,
    cmd_teacher,
    load_config,
    main,
    resolve_corpora,
    validate_config,
)
from currikit.corpus import DEFAULT_HASH_DIM, SynthSpec, load_jsonl
from currikit.difficulty import read_scores, read_scores_header
from currikit.dynamics import read_td_stats, write_td_stats
from currikit.trainer import TrainConfig

MISSING = object()  # a field deleted from a record rather than given a value
SNAPSHOT = {"config.json", "inputs.json"}  # written before a command reads its inputs

BASE_CONFIG = {
    "synth": {
        "num_classes": 3, "train_size": 120, "val_size": 60, "test_size": 60,
        "feature_dim": 16, "class_separation": 4.0,
        "label_noise_fraction": 0.05, "ood_shift": 1.0, "seed": 99,
    },
    "train": {"epochs": 2, "batch_size": 16, "learning_rate": 1.0,
              "eval_per_epoch": 4},
    "seeds": [1, 2],
    "cross_review": {"num_subsets": 3, "seed": 5},
}


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "config.json"
    path.write_text(json.dumps(BASE_CONFIG, indent=2))
    return path


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, config_path):
    """A run directory with the dynamics teacher already trained."""
    out = tmp_path_factory.mktemp("run")
    config = load_config(config_path)
    cmd_teacher(config, out, metric="dynamics")
    return out


def build_student_dir(path, correct_fraction):
    """A hand-built completed student directory over 60 test_id examples
    and seeds 1-3: the first correct_fraction of them answered correctly."""
    for seed in (1, 2, 3):
        seed_dir = path / f"seed_{seed}"
        seed_dir.mkdir(parents=True)
        with (seed_dir / "outcomes_test_id.jsonl").open("w") as fh:
            for i in range(60):
                ok = i < int(60 * correct_fraction)
                fh.write(json.dumps({"example_id": f"t{i}", "correct": ok}) + "\n")
    accs = {str(s): correct_fraction for s in (1, 2, 3)}
    (path / "summary.json").write_text(json.dumps({
        "scheduler": "x", "seeds": [1, 2, 3], "splits": ["test_id"],
        "accuracy": {"test_id": {"mean": correct_fraction, "std": 0.0,
                                 "per_seed": accs}},
        "best_steps": {"1": 10, "2": 10, "3": 10},
        "total_steps": {"1": 16, "2": 16, "3": 16},
    }))


def refuse_training(*args, **kwargs):
    raise AssertionError("a complete cell was trained or its corpus built again")


def recording_train_seeds(stacks):
    """``trainer.train_seeds`` that appends the seeds of each call to ``stacks``."""
    train_seeds = trainer.train_seeds

    def recording(corpus, val_corpus, configs, *args, **kwargs):
        stacks.append([c.seed for c in configs])
        return train_seeds(corpus, val_corpus, configs, *args, **kwargs)
    return recording


def negated_scores(scores, path):
    """A copy at ``path`` of the scores file ``scores``, every score negated:
    the reverse order. Returns ``path``."""
    header, *records = map(json.loads, scores.read_text().splitlines())
    path.write_text("".join(json.dumps(r) + "\n" for r in
                            [header, *({**r, "score": -r["score"]} for r in records)]))
    return path


def mtimes(root):
    """The mtime of every file under ``root``."""
    return {p: p.stat().st_mtime_ns for p in root.rglob("*") if p.is_file()}


def write_data_config(tmp_path, train_lines, validation_lines, **data):
    """A config over train.jsonl and validation.jsonl holding the given
    lines, with any extra ``data`` fields; returns its path."""
    train, validation = tmp_path / "train.jsonl", tmp_path / "validation.jsonl"
    train.write_text("\n".join(train_lines) + "\n")
    validation.write_text("\n".join(validation_lines) + "\n")
    config = {"data": {"train": str(train), "validation": str(validation), **data},
              "train": BASE_CONFIG["train"], "seeds": [1]}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    return cfg


def feature_records(n, width):
    """n corpus lines with features, record i using column i % width."""
    return [json.dumps({"id": f"r{i}", "text_a": f"t{i}", "label": f"c{i % 2}",
                        "features": {str(i % width): 1.0}}) for i in range(n)]


class TestSynthCommand:
    def test_writes_all_splits_and_label_map(self, tmp_path, config_path):
        out = tmp_path / "run"
        assert main(["synth", "--config", str(config_path), "--out", str(out)]) == 0
        for split in ("train", "validation", "test_id", "test_ood"):
            assert (out / "data" / f"{split}.jsonl").exists()
        labels = json.loads((out / "data" / "label_map.json").read_text())
        assert labels == {"c0": 0, "c1": 1, "c2": 2}
        corpus = load_jsonl(out / "data" / "train.jsonl", "train",
                            label_map=labels)
        assert corpus.size == 120

    def test_snapshot_written(self, tmp_path, config_path):
        out = tmp_path / "run"
        main(["synth", "--config", str(config_path), "--out", str(out)])
        snap = json.loads((out / "config.json").read_text())
        assert snap["synth"]["seed"] == 99


class TestTeacherCommand:
    def test_dynamics_artifacts(self, run_dir):
        teacher = run_dir / "teacher"
        assert (teacher / "td_stats.jsonl").exists()
        assert (teacher / "probes.jsonl").exists()
        assert (teacher / "runlog.jsonl").exists()
        meta = json.loads((teacher / "meta.json").read_text())
        assert meta["epochs"] == 2
        stats = read_td_stats(teacher / "td_stats.jsonl")
        assert len(stats.ids) == 120
        assert all(0 <= c <= 2 for c in stats.correctness.tolist())

    def test_determinism_byte_identical(self, tmp_path, config_path):
        config = load_config(config_path)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            cmd_teacher(config, out, metric="dynamics")
            outs.append(out)
        for fname in ("td_stats.jsonl", "probes.jsonl", "runlog.jsonl"):
            a = (outs[0] / "teacher" / fname).read_bytes()
            b = (outs[1] / "teacher" / fname).read_bytes()
            assert a == b, fname

    def test_teacher_epochs_override(self, tmp_path, config_path):
        config = load_config(config_path)
        out = tmp_path / "short"
        path = cmd_teacher(config, out, metric="dynamics", teacher_epochs=1)
        stats = read_td_stats(path)
        assert all(c <= 1 for c in stats.correctness.tolist())
        probes = (out / "teacher" / "probes.jsonl").read_text().splitlines()
        assert len(probes) == 120  # one epoch only

    def test_cross_review_scores(self, tmp_path, config_path):
        config = load_config(config_path)
        out = tmp_path / "cr"
        path = cmd_teacher(config, out, metric="cross-review")
        header = read_scores_header(path)
        assert header["num_subsets"] == 3
        scores = read_scores(path)
        assert set(scores.scores.tolist()) <= {0.0, 1.0, 2.0}
        assert len(scores.scores) == 120

    @pytest.mark.parametrize("metric", ["length", "rarity", "ppl"])
    def test_heuristic_scores(self, tmp_path, config_path, metric):
        config = load_config(config_path)
        out = tmp_path / metric
        path = cmd_teacher(config, out, metric=metric)
        scores = read_scores(path)
        assert len(scores.scores) == 120
        assert not scores.higher_is_easier


class TestStudentCommand:
    def test_random_student(self, run_dir, config_path):
        config = load_config(config_path)
        summary = cmd_student(config, run_dir, "random")
        assert summary["seeds"] == [1, 2]
        assert set(summary["splits"]) == {"validation", "test_id", "test_ood"}
        for seed in (1, 2):
            seed_dir = run_dir / "students" / "random" / f"seed_{seed}"
            assert (seed_dir / "runlog.jsonl").exists()
            assert (seed_dir / "metrics.json").exists()
            assert (seed_dir / "outcomes_test_id.jsonl").exists()
            plan = json.loads((seed_dir / "plan.json").read_text())
            assert plan["scheduler"] == "random"

    def test_learning_curve_from_runlog_files(self, tmp_path, config_path, monkeypatch):
        """The curve over the two seeds' runlog.jsonl, read back, equals the
        curve over the run logs the student trained."""
        trained, write = [], trainer.write_runlog
        monkeypatch.setattr(trainer, "write_runlog",
                            lambda log, path: trained.append(log) or write(log, path))
        cmd_student(load_config(config_path), tmp_path, "random")
        read = [trainer.read_runlog(tmp_path / "students" / "random" / f"seed_{seed}"
                                    / "runlog.jsonl") for seed in (1, 2)]
        curve = analysis.learning_curve(trained)
        assert len(trained) == 2 and len(curve) == 8
        assert analysis.learning_curve(read) == curve

    def test_random_warns_on_scores(self, run_dir, config_path, capsys, monkeypatch):
        """The warning comes from the arguments, so a student whose cells
        are all complete, and trains nothing, still prints it."""
        config = load_config(config_path)
        cmd_student(config, run_dir, "random")
        monkeypatch.setattr(trainer, "train_seeds", refuse_training)
        cmd_student(config, run_dir, "random",
                    scores_path=run_dir / "teacher" / "td_stats.jsonl")
        assert "ignores the scores file" in capsys.readouterr().err

    @pytest.mark.parametrize("given", [False, True], ids=["run-teacher", "scores-flag"])
    def test_resumed_student_trains_and_writes_nothing(self, swept, config_path,
                                                       monkeypatch, capsys, given):
        """Rerun on a completed run directory, with or without --scores
        naming the run's own stats file, a student builds no corpus, trains
        nothing and rewrites no file."""
        monkeypatch.setattr(trainer, "train_seeds", refuse_training)
        monkeypatch.setattr(cli, "resolve_corpora", refuse_training)
        before = mtimes(swept)
        scores = swept / "teacher" / "td_stats.jsonl" if given else None
        summary = cmd_student(load_config(config_path), swept, "conf+var_comp", scores)
        assert summary == json.loads(
            (swept / "students" / "conf+var_comp" / "summary.json").read_text())
        assert mtimes(swept) == before
        capsys.readouterr()

    def test_metrics_without_scores_digest_is_missing(self, tmp_path, config_path,
                                                      monkeypatch):
        """A metrics.json written before cells recorded their scores file
        (no scores_sha256) marks its cell missing: that cell alone retrains,
        to the same bytes plus the digest."""
        config = load_config(config_path)
        cmd_student(config, tmp_path, "random")
        cell = tmp_path / "students" / "random" / "seed_2" / "metrics.json"
        whole = cell.read_bytes()
        old = json.loads(whole)
        assert old.pop("scores_sha256") is None
        cell.write_text(json.dumps(old, indent=2) + "\n")
        monkeypatch.setattr(trainer, "train_seeds", recording_train_seeds(stacks := []))
        cmd_student(config, tmp_path, "random")
        assert stacks == [[2]]
        assert cell.read_bytes() == whole

    def test_summary_killed_before_written_is_rebuilt(self, tmp_path, config_path,
                                                      monkeypatch):
        """A student whose cells all trained from another scores file, killed
        as it writes summary.json, leaves no summary of the old cells: the
        rerun trains nothing and writes the new cells' summary."""
        config = load_config(config_path)
        alt = negated_scores(cmd_teacher(config, tmp_path / "out", metric="length"),
                             tmp_path / "alt.jsonl")
        summary = Path("students") / "length" / "summary.json"
        cmd_student(config, tmp_path / "ref", "length", scores_path=alt)
        cmd_student(config, tmp_path / "out", "length")
        assert ((tmp_path / "out" / summary).read_bytes()
                != (tmp_path / "ref" / summary).read_bytes())
        write_json = cli.artifacts.write_json

        def killing(path, payload):
            if Path(path).name == "summary.json":
                raise KeyboardInterrupt
            write_json(path, payload)
        monkeypatch.setattr(cli.artifacts, "write_json", killing)
        with pytest.raises(KeyboardInterrupt):
            cmd_student(config, tmp_path / "out", "length", scores_path=alt)
        monkeypatch.setattr(cli.artifacts, "write_json", write_json)
        monkeypatch.setattr(trainer, "train_seeds", refuse_training)
        cmd_student(config, tmp_path / "out", "length", scores_path=alt)
        assert ((tmp_path / "out" / summary).read_bytes()
                == (tmp_path / "ref" / summary).read_bytes())

    def test_annealing_epochs_from_the_scores_files_teacher(self, tmp_path, config_path):
        """corr_anneal's carry-over 1/(E+1) takes E from the meta.json beside
        the stats file it reads, not from the run directory's own teacher;
        a stats file without one falls back to its largest correctness."""
        config = load_config(config_path)
        stats = cmd_teacher(config, tmp_path / "a", metric="dynamics")  # 2 epochs
        cmd_teacher(config, tmp_path / "b", metric="dynamics", teacher_epochs=1)
        bare = tmp_path / "bare" / "td_stats.jsonl"
        bare.parent.mkdir()
        bare.write_bytes(stats.read_bytes())
        for scores, denominator in ((stats, 3), (bare, 1 + int(max(
                read_td_stats(stats).correctness)))):
            cmd_student(config, tmp_path / "b", "corr_anneal", scores_path=scores)
            plan = json.loads((tmp_path / "b" / "students" / "corr_anneal" / "seed_1"
                               / "plan.json").read_text())
            assert plan["carryover_denominator"] == denominator, scores

    def test_corr_anneal_student(self, run_dir, config_path):
        config = load_config(config_path)
        summary = cmd_student(config, run_dir, "corr_anneal")
        plan = json.loads(
            (run_dir / "students" / "corr_anneal" / "seed_1" / "plan.json").read_text()
        )
        assert plan["scheduler"] == "annealing"
        assert plan["carryover_denominator"] == 3  # teacher epochs 2
        assert sum(plan["bucket_sizes"]) == 120
        assert summary["total_steps"] == {"1": 16, "2": 16}

    def test_conf_comp_student_duration_default(self, run_dir, config_path):
        config = load_config(config_path)
        cmd_student(config, run_dir, "conf_comp")
        plan = json.loads(
            (run_dir / "students" / "conf_comp" / "seed_1" / "plan.json").read_text()
        )
        assert plan["scheduler"] == "competence"
        assert plan["duration"] == round(0.9 * 16)
        assert plan["c0"] == 0.01

    def test_conf_var_comp_student(self, run_dir, config_path):
        config = load_config(config_path)
        cmd_student(config, run_dir, "conf+var_comp")
        plan = json.loads(
            (run_dir / "students" / "conf+var_comp" / "seed_1" / "plan.json").read_text()
        )
        assert plan["variability_weighted"] is True

    def test_conf_var_comp_rejects_integer_scores_file(self, tmp_path, config_path):
        config = load_config(config_path)
        out = tmp_path / "compat"
        cr_path = cmd_teacher(config, out, metric="cross-review")
        with pytest.raises(ValidationError, match="variability"):
            cmd_student(config, out, "conf+var_comp", scores_path=cr_path)

    def test_cr_anneal_rejects_dynamics_stats(self, run_dir, config_path):
        config = load_config(config_path)
        with pytest.raises(ValidationError, match="cross-review"):
            cmd_student(config, run_dir, "cr_anneal",
                        scores_path=run_dir / "teacher" / "td_stats.jsonl")

    def test_heuristic_scheduler_rejects_dynamics_stats(self, run_dir, config_path):
        config = load_config(config_path)
        with pytest.raises(ValidationError, match="length"):
            cmd_student(config, run_dir, "length",
                        scores_path=run_dir / "teacher" / "td_stats.jsonl")

    @pytest.mark.parametrize("scheduler, metric", [("cr_anneal", "cross-review"),
                                                   ("length", "length")])
    def test_scores_header_read_once(self, tmp_path, config_path, monkeypatch,
                                     scheduler, metric):
        """A student reads the first line of its scores file once: the header
        goes from the stats-or-scores sniff to the reader and to the
        annealing carry-over."""
        config = load_config(config_path)
        path = cmd_teacher(config, tmp_path, metric=metric)
        starts = []
        # (module, reader, position of its skip argument after the path)
        for module, name, at in ((cli.artifacts, "read_jsonl", 1),
                                 (difficulty, "read_jsonl", 1),
                                 (difficulty, "read_columns", 2)):
            real = getattr(module, name)

            def counted(file, *args, real=real, at=at, **kwargs):
                skip = kwargs.get("skip", args[at] if len(args) > at else 0)
                starts.append((Path(file), skip))
                return real(file, *args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        cmd_student(config, tmp_path, scheduler)
        assert starts.count((path, 0)) == 1
        assert (path, 1) in starts

    def test_student_without_teacher_fails(self, tmp_path, config_path):
        config = load_config(config_path)
        with pytest.raises(ValidationError, match="teacher"):
            cmd_student(config, tmp_path / "empty", "corr_anneal")

    def test_equal_step_budget_across_schedulers(self, run_dir, config_path):
        totals = set()
        for sched in ("random", "corr_anneal", "conf_comp"):
            summary = json.loads(
                (run_dir / "students" / sched / "summary.json").read_text()
            )
            totals.update(summary["total_steps"].values())
        assert len(totals) == 1

    def test_duration_from_baseline_run(self, run_dir, tmp_path, config_path):
        config = json.loads(json.dumps(BASE_CONFIG))
        config["curriculum"] = {
            "baseline_dir": str(run_dir / "students" / "random"),
        }
        out = tmp_path / "baselined"
        cmd_teacher(config, out, metric="dynamics")
        cmd_student(config, out, "conf_comp")
        random_summary = json.loads(
            (run_dir / "students" / "random" / "summary.json").read_text()
        )
        for seed in (1, 2):
            plan = json.loads(
                (out / "students" / "conf_comp" / f"seed_{seed}" / "plan.json")
                .read_text()
            )
            expected = max(1, round(0.9 * random_summary["best_steps"][str(seed)]))
            assert plan["duration"] == expected

    @pytest.mark.parametrize("scheduler, hidden_size, seeds, stacks", [
        ("random", 0, [1, 2], {2}), ("conf_comp", 0, [1, 2], {2}),
        ("random", 4, [1, 2], {2}), ("conf_comp", 4, [1, 2], {2}),
        ("conf_comp", 0, [1, 2, 3], {2, 1}),
    ], ids=["random", "conf_comp", "random-hidden", "conf_comp-hidden", "stacks-of-2-and-1"])
    def test_lockstep_seeds_write_single_seed_bytes(self, tmp_path, monkeypatch, scheduler,
                                                    hidden_size, seeds, stacks):
        """A student trains its seeds in lockstep and writes each seed_*/
        byte for byte as a run of that seed alone does. conf_comp takes
        per-seed durations from a baseline run, so the seeds leave their
        competence phase at different steps and some lockstep batches differ
        in length; with a hidden layer those batches run its per-seed
        products. With room for two seeds a stack, three seeds train as a
        stack of two and a stack of one."""
        baseline = tmp_path / "baseline"
        config = json.loads(json.dumps(BASE_CONFIG))
        config.update(teacher_seed=1, seeds=seeds, model={"hidden_size": hidden_size})
        cmd_student(config, baseline, "random")
        config["curriculum"] = {"baseline_dir": str(baseline / "students" / "random")}
        assert len(set(json.loads((baseline / "students" / "random" / "summary.json")
                                  .read_text())["best_steps"].values())) == len(seeds)

        forms = []  # (seeds, distinct batch lengths) of each student stack's batches

        def run(seeds, out):
            cmd_teacher({**config, "seeds": seeds}, out, metric="dynamics")
            forms.clear()
            cmd_student({**config, "seeds": seeds}, out, scheduler)
            return out / "students" / scheduler

        seed_rows = trainer._SeedRows
        monkeypatch.setattr(trainer, "_SeedRows", lambda sizes: forms.append(
            (len(sizes), len(set(sizes)))) or seed_rows(sizes))
        monkeypatch.setattr(trainer, "DEFAULT_HASH_DIM",
                            2 * BASE_CONFIG["synth"]["feature_dim"] + 1)
        both = run(seeds, tmp_path / "both")
        assert {n for n, _ in forms} == stacks
        assert max(lengths for _, lengths in forms) == (2 if scheduler == "conf_comp" else 1)
        for seed in seeds:
            alone = run([seed], tmp_path / f"seed{seed}")
            files = sorted(p.name for p in (both / f"seed_{seed}").iterdir())
            assert files == sorted(p.name for p in (alone / f"seed_{seed}").iterdir())
            assert {"runlog.jsonl", "plan.json", "metrics.json",
                    "outcomes_test_id.jsonl"} <= set(files)
            for name in files:
                assert ((both / f"seed_{seed}" / name).read_bytes()
                        == (alone / f"seed_{seed}" / name).read_bytes()), name

    def test_linear_competence_form(self, tmp_path):
        config = json.loads(json.dumps(BASE_CONFIG))
        config["curriculum"] = {"competence_form": "linear"}
        out = tmp_path / "linear"
        cmd_teacher(config, out, metric="dynamics")
        cmd_student(config, out, "conf_comp")
        plan = json.loads(
            (out / "students" / "conf_comp" / "seed_1" / "plan.json").read_text()
        )
        assert plan["form"] == "linear"

    def test_hidden_layer_model(self, tmp_path):
        config = json.loads(json.dumps(BASE_CONFIG))
        config["model"] = {"hidden_size": 4}
        out = tmp_path / "hidden"
        cmd_teacher(config, out, metric="dynamics")
        summary = cmd_student(config, out, "random")
        assert summary["accuracy"]["validation"]["mean"] > 0.5


class TestCompareCommand:
    @pytest.mark.parametrize("p, shown", [
        (1.0, "1"), (0.0312, "0.0312"), (4.9e-5, "4.9e-05"), (1.2345e-6, "1.23e-06"),
        (5e-324, "4.94e-324"),
    ])
    def test_p_values_print_three_significant_figures(self, p, shown):
        """No p-value above zero prints as zero, in the compare table or the
        sweep table."""
        acc = {"mean": 0.5, "std": 0.0}
        report = {"a": {"scheduler": "x", "path": "a"}, "b": {"scheduler": "y", "path": "b"},
                  "time_ratio": {"mean": 1.0, "min": 1.0},
                  "splits": {"test_id": {"acc_a": acc, "acc_b": acc, "p_value": p}}}
        assert cli._compare_table(report).splitlines()[-1].split()[3] == shown
        matrix = {"schedulers": ["random", "x"], "rows": [
            {"scheduler": "random", "accuracy": {"test_id": acc}},
            {"scheduler": "x", "accuracy": {"test_id": acc},
             "vs_random": {"time_ratio": {"mean": 1.0}, "p_values": {"test_id": p}}}]}
        assert cli._sweep_table(matrix).splitlines()[-1].split()[1:] == [shown, "1.00"]

    def test_compare_to_self(self, run_dir, config_path, capsys):
        report = cmd_compare(run_dir / "students" / "random",
                             run_dir / "students" / "random")
        for split_report in report["splits"].values():
            assert split_report["p_value"] == 1.0
        assert report["time_ratio"]["mean"] == 1.0
        assert report["time_ratio"]["min"] == 1.0
        table = capsys.readouterr().out
        for col in ("split", "acc_a", "acc_b", "p", "ratio_mean", "ratio_min"):
            assert col in table

    def test_compare_two_runs_with_output(self, run_dir, tmp_path, capsys):
        report = cmd_compare(run_dir / "students" / "corr_anneal",
                             run_dir / "students" / "random",
                             out_prefix=tmp_path / "cmp")
        assert (tmp_path / "cmp.json").exists()
        assert (tmp_path / "cmp.txt").exists()
        written = json.loads((tmp_path / "cmp.json").read_text())
        assert written["splits"].keys() == report["splits"].keys()
        for split_report in report["splits"].values():
            assert 0.0 < split_report["p_value"] <= 1.0
        capsys.readouterr()

    def test_degraded_run_is_detected(self, tmp_path, capsys):
        # two hand-built student directories: B gets most test answers wrong
        build_student_dir(tmp_path / "good", 0.95)
        build_student_dir(tmp_path / "bad", 0.55)
        report = cmd_compare(tmp_path / "good", tmp_path / "bad")
        assert report["splits"]["test_id"]["p_value"] <= 0.05
        capsys.readouterr()

    @staticmethod
    def rewrite_outcomes(path, edit):
        """Apply ``edit`` to the list of lines of an outcomes file."""
        path.write_text("".join(edit(path.read_text().splitlines(True))))

    def test_reordered_outcomes_give_the_same_report(self, tmp_path, capsys):
        build_student_dir(tmp_path / "a", 0.9)
        build_student_dir(tmp_path / "b", 0.5)
        expected = cmd_compare(tmp_path / "a", tmp_path / "b")
        for seed in (1, 2, 3):  # b in another order than a, for every seed
            self.rewrite_outcomes(tmp_path / "b" / f"seed_{seed}" / "outcomes_test_id.jsonl",
                                  lambda lines: lines[::-1])
        assert cmd_compare(tmp_path / "a", tmp_path / "b") == expected
        # one of a's seeds in another order than its first seed
        self.rewrite_outcomes(tmp_path / "a" / "seed_2" / "outcomes_test_id.jsonl",
                              lambda lines: lines[7:] + lines[:7])
        assert cmd_compare(tmp_path / "a", tmp_path / "b") == expected
        capsys.readouterr()

    def test_outcome_id_sets_differ_named(self, tmp_path, capsys):
        build_student_dir(tmp_path / "a", 0.9)
        build_student_dir(tmp_path / "b", 0.5)
        for seed in (1, 2, 3):
            self.rewrite_outcomes(tmp_path / "b" / f"seed_{seed}" / "outcomes_test_id.jsonl",
                                  lambda lines: [line.replace('"t59"', '"u59"')
                                                 for line in lines])
        out = tmp_path / "o" / "cmp"
        assert main(["compare", "--a", str(tmp_path / "a"), "--b", str(tmp_path / "b"),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert (f"test_id: outcome example ids differ between {tmp_path / 'a'} "
                f"and {tmp_path / 'b'}") in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("edit", [
        lambda lines: [line.replace('"t59"', '"u59"') for line in lines],
        lambda lines: lines[:-1],
        lambda lines: lines + ['{"example_id": "u60", "correct": true}\n'],
    ], ids=["other-id", "one-fewer", "one-more"])
    def test_seed_outcome_ids_differ_named(self, tmp_path, capsys, edit):
        build_student_dir(tmp_path / "a", 0.9)
        build_student_dir(tmp_path / "b", 0.5)
        seed_2 = tmp_path / "b" / "seed_2" / "outcomes_test_id.jsonl"
        self.rewrite_outcomes(seed_2, edit)
        assert main(["compare", "--a", str(tmp_path / "a"), "--b", str(tmp_path / "b")]) == 1
        seed_1 = tmp_path / "b" / "seed_1" / "outcomes_test_id.jsonl"
        assert (f"{seed_2}: example ids differ from those of {seed_1}"
                in capsys.readouterr().err)

    def test_mismatched_seeds_rejected(self, run_dir, tmp_path):
        other = tmp_path / "other"
        other.mkdir()
        (other / "summary.json").write_text(json.dumps({
            "scheduler": "x", "seeds": [7], "splits": ["test_id"],
            "accuracy": {}, "best_steps": {"7": 5}, "total_steps": {"7": 16},
        }))
        with pytest.raises(ValidationError, match="seed"):
            cmd_compare(run_dir / "students" / "random", other)


class TestSweepCommand:
    def test_sweep_runs_and_orders_rows(self, tmp_path, config_path, capsys):
        config = load_config(config_path)
        out = tmp_path / "sweep"
        matrix = cmd_sweep(config, out, ["random", "corr_anneal"])
        assert [r["scheduler"] for r in matrix["rows"]] == ["random", "corr_anneal"]
        assert (out / "sweep_summary.json").exists()
        assert (out / "sweep_summary.txt").exists()
        assert (out / "compare" / "corr_anneal_vs_random.json").exists()
        # 2 schedulers x 2 seeds of student runs
        runlogs = list(out.glob("students/*/seed_*/runlog.jsonl"))
        assert len(runlogs) == 4
        capsys.readouterr()

    def test_sweep_is_resumable(self, tmp_path, config_path, capsys):
        config = load_config(config_path)
        out = tmp_path / "sweep"
        cmd_sweep(config, out, ["random"])
        marker = out / "students" / "random" / "summary.json"
        before = marker.stat().st_mtime_ns
        cmd_sweep(config, out, ["random"])
        assert marker.stat().st_mtime_ns == before
        capsys.readouterr()

    def test_sweep_matches_one_student_per_scheduler(self, tmp_path, config_path, capsys,
                                                     monkeypatch):
        """A sweep trains its six cells as one stack of three schedulers; every
        file under students/ has the bytes of a student command per scheduler."""
        config = load_config(config_path)
        schedulers = ["random", "conf_comp", "rarity"]
        stacks = []
        train_stack = trainer._train_stack

        def recording(corpus, val_corpus, configs, *args):
            stacks.append(len(configs))
            return train_stack(corpus, val_corpus, configs, *args)
        monkeypatch.setattr(trainer, "_train_stack", recording)
        sweep, solo = tmp_path / "sweep", tmp_path / "solo"
        cmd_sweep(config, sweep, schedulers)
        assert max(stacks) == len(schedulers) * len(config["seeds"])
        for metric in ("dynamics", "rarity"):
            cmd_teacher(config, solo, metric=metric)
        for scheduler in schedulers:
            cmd_student(config, solo, scheduler)
        capsys.readouterr()
        files = sorted(p.relative_to(solo) for p in solo.rglob("students/**/*") if p.is_file())
        assert files == sorted(p.relative_to(sweep) for p in sweep.rglob("students/**/*")
                               if p.is_file())
        for rel in files:
            assert (sweep / rel).read_bytes() == (solo / rel).read_bytes(), rel

    def test_kill_between_stacks_retrains_only_missing_cells(self, tmp_path, capsys,
                                                            monkeypatch):
        """With room for two cells a stack, random,conf_comp over three seeds
        trains as (r1, r2), (r3, c1), (c2, c3). Killed as c3 writes its
        metrics.json, the rerun trains c3 alone, leaves every other cell's
        files as they were and ends byte for byte as a sweep never killed."""
        config = {**json.loads(json.dumps(BASE_CONFIG)), "seeds": [1, 2, 3]}
        monkeypatch.setattr(trainer, "DEFAULT_HASH_DIM",
                            2 * BASE_CONFIG["synth"]["feature_dim"] + 1)
        out = Path("run")  # relative: the compare reports hold the student paths

        def sweep(name):
            (tmp_path / name).mkdir(exist_ok=True)
            monkeypatch.chdir(tmp_path / name)
            cmd_sweep(config, out, ["random", "conf_comp"])
            return {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}

        whole = sweep("whole")
        victim = out / "students" / "conf_comp" / "seed_3"
        write_json = cli.artifacts.write_json

        def killing(path, payload):
            if Path(path) == victim / "metrics.json":
                raise KeyboardInterrupt
            write_json(path, payload)
        monkeypatch.setattr(cli.artifacts, "write_json", killing)
        with pytest.raises(KeyboardInterrupt):
            sweep("killed")
        monkeypatch.setattr(cli.artifacts, "write_json", write_json)
        kept = {p: p.stat().st_mtime_ns for p in out.glob("students/*/seed_*/*")
                if p.parent != victim}
        assert {p.parent for p in kept} == {out / "students" / s / f"seed_{seed}"
                                            for s in ("random", "conf_comp")
                                            for seed in (1, 2, 3)} - {victim}
        monkeypatch.setattr(trainer, "train_seeds", recording_train_seeds(stacks := []))
        assert sweep("killed") == whole
        capsys.readouterr()
        assert stacks == [[3]]
        assert {p: p.stat().st_mtime_ns for p in kept} == kept

    def test_cells_from_another_scores_file_retrain(self, tmp_path, config_path, capsys,
                                                    monkeypatch):
        """length cells a student planned from --scores (lengths negated)
        are not the sweep's: the sweep retrains them, and only them, to a
        fresh sweep's plan.json."""
        config = load_config(config_path)
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        alt = negated_scores(cmd_teacher(config, out, metric="length"), tmp_path / "alt.jsonl")
        cmd_student(config, out, "length", scores_path=alt)
        cmd_sweep(config, fresh, ["random", "length"])
        monkeypatch.setattr(trainer, "train_seeds", recording_train_seeds(stacks := []))
        cmd_sweep(config, out, ["random", "length"])
        capsys.readouterr()
        for seed in (1, 2):
            rel = Path("students") / "length" / f"seed_{seed}"
            assert ((out / rel / "plan.json").read_bytes()
                    == (fresh / rel / "plan.json").read_bytes())
            assert ((out / rel / "metrics.json").read_bytes()
                    == (fresh / rel / "metrics.json").read_bytes())
        assert stacks == [[1, 2, 1, 2]]  # random's two cells, then length's
        stacks.clear()
        cmd_student(config, out, "length", scores_path=alt)  # and back again
        assert stacks == [[1, 2]]
        capsys.readouterr()

    def test_rewritten_teacher_retrains_its_cells(self, tmp_path, config_path, capsys,
                                                  monkeypatch):
        """After teacher --teacher-epochs 1 rewrites td_stats.jsonl, the sweep
        retrains the cells planned from it and leaves the others as they
        were."""
        config = load_config(config_path)
        cmd_sweep(config, tmp_path, ["random", "conf_comp", "length"])
        stats = cmd_teacher(config, tmp_path, metric="dynamics", teacher_epochs=1)
        kept = {p: t for p, t in mtimes(tmp_path / "students").items()
                if "conf_comp" not in p.parts}
        monkeypatch.setattr(trainer, "train_seeds", recording_train_seeds(stacks := []))
        cmd_sweep(config, tmp_path, ["random", "conf_comp", "length"])
        capsys.readouterr()
        assert stacks == [[1, 2]]
        assert {p: t for p, t in mtimes(tmp_path / "students").items() if p in kept} == kept
        digest = hashlib.sha256(stats.read_bytes()).hexdigest()
        for seed in (1, 2):
            metrics = json.loads((tmp_path / "students" / "conf_comp" / f"seed_{seed}"
                                  / "metrics.json").read_text())
            assert metrics["scores_sha256"] == digest

    def test_every_cell_planned_before_any_trains(self, tmp_path, config_path, capsys):
        """A scores file that fails to read stops the sweep before the
        random cells, listed first, train."""
        out = tmp_path / "o"
        scores = cmd_teacher(load_config(config_path), out, metric="length")
        lines = scores.read_text().splitlines(True)
        scores.write_text("".join(lines[:2]) + lines[2][:15] + "\n" + "".join(lines[3:]))
        assert main(["sweep", "--config", str(config_path), "--out", str(out),
                     "--schedulers", "random,length"]) == 1
        assert f"{scores}:3:" in capsys.readouterr().err
        assert not (out / "students").exists()

    def test_sweep_resolves_corpora_once(self, tmp_path, config_path, capsys,
                                         monkeypatch):
        calls = []

        def counting(config):
            calls.append(config)
            return resolve_corpora(config)

        monkeypatch.setattr(cli, "resolve_corpora", counting)
        cmd_sweep(load_config(config_path), tmp_path / "sweep", list(SCHEDULERS))
        capsys.readouterr()
        assert len(calls) == 1

    def test_failed_teacher_write_is_not_resumed(self, tmp_path, config_path, capsys,
                                                 monkeypatch):
        real = cli.dynamics.compute_all

        def unserializable_101st(probes):
            stats = real(probes)
            stats.confidence = stats.confidence.astype(object)
            stats.confidence[100] = object()
            return stats

        monkeypatch.setattr(cli.dynamics, "compute_all", unserializable_101st)
        config = load_config(config_path)
        out = tmp_path / "sweep"
        with pytest.raises(TypeError):
            cmd_sweep(config, out, ["random", "corr_anneal"])
        assert not (out / "teacher" / "td_stats.jsonl").exists()
        assert not list(out.rglob(".*.tmp"))
        monkeypatch.undo()
        cmd_sweep(config, out, ["random", "corr_anneal"])
        capsys.readouterr()
        assert len(read_td_stats(out / "teacher" / "td_stats.jsonl").ids) == 120


@pytest.fixture(scope="module")
def sweep_run(tmp_path_factory, config_path):
    """A completed 9-scheduler sweep: its directory, its stdout and the
    matrix it returned."""
    out = tmp_path_factory.mktemp("swept")
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        matrix = cmd_sweep(load_config(config_path), out, list(SCHEDULERS))
    return out, stdout.getvalue(), matrix


@pytest.fixture(scope="module")
def swept(sweep_run):
    """The directory of a completed 9-scheduler sweep."""
    return sweep_run[0]


def tree(root):
    """The bytes of every file under ``root``, by path relative to it."""
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def refuse_compare(*args, **kwargs):
    raise AssertionError("a resumed sweep compared again")


def counting_ar(monkeypatch):
    """A list to which each ``approx_randomization`` call appends an entry."""
    calls, real = [], analysis.approx_randomization

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(analysis, "approx_randomization", counting)
    return calls


class TestResumedSweep:
    def test_builds_no_corpus(self, swept, config_path, capsys, monkeypatch):
        def refuse(config):
            raise AssertionError("resolve_corpora called on a completed sweep")

        monkeypatch.setattr(cli, "resolve_corpora", refuse)
        cmd_sweep(load_config(config_path), swept, list(SCHEDULERS))
        capsys.readouterr()

    def test_compares_nothing(self, swept, config_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_pooled_outcomes", refuse_compare)
        monkeypatch.setattr(analysis, "approx_randomization", refuse_compare)
        cmd_sweep(load_config(config_path), swept, list(SCHEDULERS))
        capsys.readouterr()

    def test_writes_nothing(self, swept, config_path, capsys):
        before = mtimes(swept)
        cmd_sweep(load_config(config_path), swept, list(SCHEDULERS))
        capsys.readouterr()
        assert mtimes(swept) == before

    def test_prints_and_returns_what_the_building_sweep_did(self, sweep_run, config_path,
                                                            capsys):
        swept, stdout, matrix = sweep_run
        assert stdout.count("A = ") == 16
        assert cmd_sweep(load_config(config_path), swept, list(SCHEDULERS)) == matrix
        assert capsys.readouterr().out == stdout

    def test_reads_outcomes_once_per_student_and_split(self, swept, config_path,
                                                       capsys, monkeypatch, tmp_path):
        """On a copy whose sweep_summary.json is gone, so the reports are rebuilt."""
        run = tmp_path / "run"
        shutil.copytree(swept, run)
        (run / "sweep_summary.json").unlink()
        calls = []
        real = cli._pooled_outcomes

        def counting(path, seeds, split):
            calls.append((path.name, split))
            return real(path, seeds, split)

        monkeypatch.setattr(cli, "_pooled_outcomes", counting)
        cmd_sweep(load_config(config_path), run, list(SCHEDULERS))
        capsys.readouterr()
        assert len(calls) == len(set(calls)) == len(SCHEDULERS) * 3 == 27

    def test_compare_reports_match_standalone_compare(self, swept, config_path,
                                                      tmp_path, capsys):
        cmd_sweep(load_config(config_path), swept, list(SCHEDULERS))
        reports = sorted((swept / "compare").glob("*.json"))
        assert len(reports) == 16
        for path in reports:
            a, b = path.stem.split("_vs_")
            cmd_compare(swept / "students" / a, swept / "students" / b,
                        out_prefix=tmp_path / path.stem)
            assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name
        capsys.readouterr()

    def test_moved_run_directory_rebuilds_tables_naming_it(self, swept, config_path,
                                                           tmp_path, capsys):
        """The stored tables name the student directories as the sweep that
        built them spelled them; under another --out they are rebuilt."""
        run = tmp_path / "moved"
        shutil.copytree(swept, run)
        cmd_sweep(load_config(config_path), run, list(SCHEDULERS))
        capsys.readouterr()
        for path in (run / "compare").glob("*.txt"):
            a, b = path.stem.split("_vs_")
            assert path.read_text().splitlines()[:2] == [
                f"A = {a} ({run / 'students' / a})", f"B = {b} ({run / 'students' / b})"]

    def test_summary_table_shows_p_values_and_time_ratios(self, swept):
        matrix = json.loads((swept / "sweep_summary.json").read_text())
        lines = (swept / "sweep_summary.txt").read_text().splitlines()
        splits = ["test_id", "test_ood", "validation"]
        for b in ("random", "cr_anneal"):
            start = next(i for i, line in enumerate(lines)
                         if line.startswith(f"vs {b} "))
            block = {line.split()[0]: line.split()[1:]
                     for line in lines[start + 2: start + 2 + len(SCHEDULERS)]}
            for row in matrix["rows"]:
                vs = row.get(f"vs_{b}")
                expected = ["-"] * 4 if vs is None else [
                    *(f"{vs['p_values'][s]:.3g}" for s in splits),
                    f"{vs['time_ratio']['mean']:.2f}"]
                assert block[row["scheduler"]] == expected, (b, row["scheduler"])


class TestSweepMarker:
    """sweep_summary.json marks a sweep's reports complete: whatever could
    make them stale removes it, and a sweep without a valid one rebuilds
    every report. Each sweep runs on the relative path run/, so that its
    reports name the same student directories wherever it runs."""

    SCHEDULERS = ["random", "length", "rarity"]

    @pytest.fixture()
    def sweep(self, tmp_path, config_path, monkeypatch, capsys):
        """Sweep ``schedulers`` into ``tmp_path/name/run``; returns that
        directory's files and the sweep's stdout."""
        config = load_config(config_path)

        def sweep(name, schedulers=self.SCHEDULERS):
            (tmp_path / name).mkdir(exist_ok=True)
            monkeypatch.chdir(tmp_path / name)
            capsys.readouterr()
            cmd_sweep(config, Path("run"), schedulers)
            return tree(Path("run")), capsys.readouterr().out
        return sweep

    def test_student_on_other_scores_removes_it(self, tmp_path, config_path, sweep,
                                                monkeypatch):
        """The marker goes when student --scores retrains the length cells;
        after a student on the run's own teacher, the next sweep rebuilds
        every report to the first sweep's bytes."""
        config = load_config(config_path)
        first, stdout = sweep("run")
        run = Path("run")
        alt = negated_scores(run / "teacher" / "scores_length.jsonl", tmp_path / "alt.jsonl")
        cmd_student(config, run, "length", scores_path=alt)
        assert not list(run.glob("sweep_summary.*"))
        cmd_student(config, run, "length")
        assert not list(run.glob("sweep_summary.*"))
        calls = counting_ar(monkeypatch)
        assert sweep("run") == (first, stdout)
        assert len(calls) == 2 * 3  # length and rarity vs random, 3 splits each

    @pytest.mark.parametrize("writer, name", [("write_json", "sweep_summary.json"),
                                              ("write_text", "sweep_summary.txt")])
    def test_failed_summary_write_leaves_no_marker(self, sweep, monkeypatch, writer, name):
        """A sweep with another order replaces a valid marker's reports; its
        sweep_summary.json or .txt write raises, so no marker is left for
        either order to trust, and the rerun writes a fresh sweep's bytes."""
        sweep("run")
        order = ["rarity", "random", "length"]
        write = getattr(cli.artifacts, writer)

        def failing(path, payload):
            if Path(path).name == name:
                raise OSError("disk full")
            write(path, payload)
        monkeypatch.setattr(cli.artifacts, writer, failing)
        with pytest.raises(OSError):
            sweep("run", order)
        assert not Path("run", "sweep_summary.json").exists()
        assert not list(Path("run").rglob(".*.tmp"))
        monkeypatch.setattr(cli.artifacts, writer, write)
        assert sweep("run", order) == sweep("fresh", order)

    @pytest.mark.parametrize("schedulers", [["rarity", "random", "length"],
                                            ["random", "rarity"], ["length"]],
                             ids=["reordered", "shorter", "no-baseline"])
    def test_other_scheduler_list_rebuilds(self, sweep, schedulers):
        """Every file a fresh sweep of the other list writes has its bytes,
        and the sweeps print the same."""
        sweep("run")
        files, stdout = sweep("run", schedulers)
        fresh, fresh_stdout = sweep("fresh", schedulers)
        assert {rel: files[rel] for rel in fresh} == fresh
        assert stdout == fresh_stdout

    @pytest.mark.parametrize("report", ["compare/length_vs_random.txt",
                                        "compare/length_vs_random.json", "sweep_summary.txt"])
    def test_deleted_report_is_rebuilt(self, sweep, monkeypatch, report):
        first = sweep("run")
        Path("run", report).unlink()
        calls = counting_ar(monkeypatch)
        assert sweep("run") == first
        assert calls

    @pytest.mark.parametrize("text", [
        "[]\n", "{\"schedulers\": \"random\", \"rows\": []}\n",
        "{\"schedulers\": [\"random\"]}\n", "{\"schedulers\": [\"random\"], \"rows\": {}}\n",
        "{\"schedulers\": [\"random\"],\n",
    ], ids=["array", "schedulers-string", "no-rows", "rows-object", "truncated"])
    def test_malformed_marker_exits_1_naming_it(self, tmp_path, config_path, capsys, text):
        out = tmp_path / "run"
        argv = ["sweep", "--config", str(config_path), "--out", str(out),
                "--schedulers", "random"]
        assert main(argv) == 0
        marker = out / "sweep_summary.json"
        marker.write_text(text)
        capsys.readouterr()
        assert main(argv) == 1
        assert f"{marker}:" in capsys.readouterr().err


class TestCliEntryPoint:
    def test_exit_zero_on_success(self, tmp_path, config_path):
        assert main(["synth", "--config", str(config_path),
                     "--out", str(tmp_path / "ok")]) == 0

    def test_missing_validation_names_field(self, tmp_path, capsys):
        bad = dict(BASE_CONFIG)
        bad.pop("synth")
        bad["data"] = {"train": "x.jsonl"}
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(bad))
        code = main(["teacher", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "validation" in capsys.readouterr().err

    def test_unknown_scheduler_is_usage_error(self, config_path, tmp_path, capsys):
        code = main(["student", "--config", str(config_path),
                     "--out", str(tmp_path / "o"), "--scheduler", "mystery"])
        assert code == 1
        capsys.readouterr()

    @pytest.mark.parametrize("section, field, value", [
        ("curriculum", "competence_form", "cubic"),
        ("curriculum", "duration", -5),
        ("curriculum", "c0", "0.1"),
        ("cross_review", "num_subsets", 1),
        ("train", "epochs", "2"),
        ("curriculum", "add_k", "1"),
        ("train", "epochs", 2.5),
        ("train", "batch_size", 2.5),
        ("train", "eval_per_epoch", 2.5),
        ("model", "hidden_size", True),
        ("train", "learning_rate", math.nan),
        ("train", "learning_rate", math.inf),
        ("train", "weight_decay", math.inf),
        ("train", "grad_clip", math.nan),
        ("curriculum", "c0", math.nan),
        ("curriculum", "add_k", -math.inf),
        ("synth", "class_separation", math.inf),
        ("synth", "label_noise_fraction", math.nan),
        ("synth", "ood_shift", math.nan),
    ])
    def test_bad_field_rejected_before_any_artifact(self, tmp_path, capsys,
                                                    section, field, value):
        bad = json.loads(json.dumps(BASE_CONFIG))
        bad.setdefault(section, {})[field] = value
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(bad))
        out = tmp_path / "o"
        code = main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--schedulers", "random,conf_comp,cr_anneal"])
        assert code == 1
        assert section in capsys.readouterr().err
        assert not list(out.rglob("*.jsonl"))

    @pytest.mark.parametrize("update, message", [
        ({"model": []}, "config: field 'model' must be an object, got []"),
        ({"curriculum": 5}, "config: field 'curriculum' must be an object, got 5"),
        ({"cross_review": "x"}, "config: field 'cross_review' must be an object, got 'x'"),
        ({"teacher_seed": 1.5}, "config: field 'teacher_seed' must be an integer, got 1.5"),
        ({"seeds": [True, 2]}, "config: field 'seeds[0]' must be an integer, got True"),
        ({"synth": MISSING, "data": {"train": "t.jsonl", "validation": "v.jsonl",
                                     "hash_dim": 3}},
         "data.hash_dim must be a positive power of two, got 3"),
        ({"synth": MISSING, "data": {"train": "t.jsonl", "validation": "v.jsonl",
                                     "hash_dim": 0}},
         "data.hash_dim must be a positive power of two, got 0"),
        ({"synth": MISSING, "data": {"train": "t.jsonl", "validation": "v.jsonl",
                                     "hash_dim": 1024.0}},
         "data: field 'hash_dim' must be an integer, got 1024.0"),
        ({"synth": MISSING, "data": {"train": "t.jsonl", "validation": "v.jsonl",
                                     "hash_dim": 2 ** 63}},
         "data.hash_dim must be at most 2^62, got 9223372036854775808"),
        ({"train": {**BASE_CONFIG["train"], "learning_rate": math.nan}},
         "train: field 'learning_rate' must be a finite number, got nan"),
        ({"curriculum": {"add_k": math.inf}},
         "curriculum: field 'add_k' must be a finite number, got inf"),
        ({"train": {**BASE_CONFIG["train"], "seed": 5}}, "train: unknown field 'seed'"),
        ({"curriculum": {"duration": 0}},
         "curriculum: duration must be a positive step count"),
        ({"synth": {**BASE_CONFIG["synth"], "classes": 3}},
         "synth: unknown field 'classes'"),
        ({"synth": MISSING, "data": {"train": "t.jsonl", "validation": "v.jsonl",
                                     "test_id": ""}},
         "data: field 'test_id' must be a nonempty path"),
        ({"curriculum": {"baseline_dir": ""}},
         "curriculum: field 'baseline_dir' must be a nonempty path"),
        ({"seeds": [1, -1]}, "config: field 'seeds[1]' must be >= 0, got -1"),
        ({"teacher_seed": -3}, "config: field 'teacher_seed' must be >= 0, got -3"),
        ({"synth": {**BASE_CONFIG["synth"], "seed": -1}},
         "synth: field 'seed' must be >= 0, got -1"),
        ({"cross_review": {"seed": -2}}, "cross_review: field 'seed' must be >= 0, got -2"),
    ], ids=["model-array", "curriculum-number", "cross_review-string",
            "teacher_seed-float", "seeds-bool", "hash_dim-3", "hash_dim-0",
            "hash_dim-float", "hash_dim-2^63", "learning_rate-nan", "add_k-inf",
            "train-seed", "duration-0", "synth-unknown", "test_id-empty",
            "baseline_dir-empty", "seeds-negative", "teacher_seed-negative",
            "synth.seed-negative", "cross_review.seed-negative"])
    def test_bad_value_rejected_before_any_artifact(self, tmp_path, capsys, update,
                                                    message):
        bad = json.loads(json.dumps(BASE_CONFIG))
        for key, value in update.items():
            if value is MISSING:
                del bad[key]
            else:
                bad[key] = value
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(bad))
        out = tmp_path / "o"
        code = main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--schedulers", "random,conf_comp,cr_anneal"])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag", [
        (["sweep", "--schedulers", "random,conf_comp", "--rounds", "0"], "--rounds"),
        (["sweep", "--schedulers", "random,conf_comp", "--workers", "0"], "--workers"),
        (["sweep", "--schedulers", "random,conf_comp", "--workers", "-2"], "--workers"),
        (["teacher", "--teacher-epochs", "0"], "--teacher-epochs"),
    ], ids=["rounds-0", "workers-0", "workers-negative", "teacher-epochs-0"])
    def test_bad_count_flag_rejected_before_any_artifact(self, tmp_path, capsys,
                                                         config_path, argv, flag):
        out = tmp_path / "o"
        code = main([argv[0], "--config", str(config_path), "--out", str(out), *argv[1:]])
        assert code == 1
        assert not out.exists()
        assert f"argument {flag}: must be an integer >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("schedulers, message", [
        ("random,random,conf_comp", "scheduler 'random' is repeated in sweep list"),
        (",", "empty sweep list"),
        ("random,mystery", "unknown scheduler 'mystery' in sweep list"),
    ], ids=["repeated", "empty", "unknown"])
    def test_bad_scheduler_list_rejected_before_any_artifact(self, tmp_path, capsys,
                                                             config_path, schedulers, message):
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(config_path), "--out", str(out),
                     "--schedulers", schedulers]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("content", ["", "not json\n"], ids=["empty", "not-json"])
    def test_unreadable_scores_file_named(self, run_dir, config_path, tmp_path,
                                          capsys, content):
        scores = tmp_path / "bad_scores.jsonl"
        scores.write_text(content)
        code = main(["student", "--config", str(config_path), "--out", str(run_dir),
                     "--scheduler", "conf_comp", "--scores", str(scores)])
        assert code == 1
        assert str(scores) in capsys.readouterr().err

    def test_truncated_stats_file_named(self, run_dir, config_path, tmp_path, capsys):
        lines = (run_dir / "teacher" / "td_stats.jsonl").read_text().splitlines(True)
        stats = tmp_path / "td_stats.jsonl"
        stats.write_text("".join(lines[:50]) + lines[50][:15])
        code = main(["student", "--config", str(config_path),
                     "--out", str(tmp_path / "o"),
                     "--scheduler", "conf_comp", "--scores", str(stats)])
        assert code == 1
        assert f"{stats}:51:" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, scheduler", [("stats", "conf_comp"),
                                                 ("scores", "length")])
    def test_missing_example_named(self, run_dir, config_path, tmp_path, capsys,
                                   kind, scheduler):
        stats = read_td_stats(run_dir / "teacher" / "td_stats.jsonl")
        victim = stats.ids[7]
        path = tmp_path / f"{kind}.jsonl"
        if kind == "scores":
            records = [{"metric_name": "length", "higher_is_easier": False}] + [
                {"example_id": eid, "score": float(i)} for i, eid in enumerate(stats.ids)]
            path.write_text("".join(json.dumps(rec) + "\n" for rec in records
                                    if rec.get("example_id") != victim))
        else:
            lines = (run_dir / "teacher" / "td_stats.jsonl").read_text().splitlines(True)
            path.write_text("".join(lines[:7] + lines[8:]))
        out = tmp_path / "o"
        assert main(["student", "--config", str(config_path), "--out", str(out),
                     "--scheduler", scheduler, "--scores", str(path)]) == 1
        assert f"{path}: no record for example {victim!r}" in capsys.readouterr().err
        assert not (out / "students").exists()

    @pytest.mark.parametrize("command, kind, scheduler, field, bad", [
        ("student", "scores", "length", "score", float("nan")),
        ("student", "scores", "length", "score", float("inf")),
        ("student", "stats", "conf_comp", "confidence", float("nan")),
        ("student", "stats", "corr_anneal", "variability", float("-inf")),
        ("datamap", "stats", None, "confidence", float("nan")),
        ("correlate", "stats", None, "variability", float("inf")),
    ], ids=["scores-nan", "scores-inf", "stats-nan-confidence", "stats-inf-variability",
            "datamap-stats-nan-confidence", "correlate-stats-inf-variability"])
    def test_non_finite_scores_rejected(self, run_dir, config_path, tmp_path, capsys,
                                        command, kind, scheduler, field, bad):
        stats = read_td_stats(run_dir / "teacher" / "td_stats.jsonl")
        victim = stats.ids[7]
        out = tmp_path / "o"
        path = tmp_path / f"{kind}.jsonl"
        if command == "correlate":  # reads the run directory's own stats
            path = out / "teacher" / "td_stats.jsonl"
        if kind == "scores":
            lines = [{"metric_name": "length", "higher_is_easier": False}] + [
                {"example_id": eid, "score": bad if eid == victim else float(i)}
                for i, eid in enumerate(stats.ids)
            ]
            path.write_text("".join(json.dumps(rec) + "\n" for rec in lines))
        else:
            getattr(stats, field)[7] = bad
            write_td_stats(stats, path)
        argv = {
            "student": ["student", "--config", str(config_path), "--out", str(out),
                        "--scheduler", scheduler, "--scores", str(path)],
            "datamap": ["datamap", "--out", str(out), "--stats", str(path)],
            "correlate": ["correlate", "--config", str(config_path), "--out", str(out)],
        }[command]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert str(path) in err and repr(victim) in err
        assert not (out / "students").exists()
        assert not list(out.glob("datamap.*"))
        assert not (out / "correlations.json").exists()

    @pytest.mark.parametrize("command, field, bad, message", [
        pytest.param("student-stats", "variability", MISSING, "missing field 'variability'",
                     id="student-stats-variability"),
        pytest.param("student-scores", "score", MISSING, "missing field 'score'",
                     id="student-scores-score"),
        pytest.param("datamap", "confidence", MISSING, "missing field 'confidence'",
                     id="datamap-confidence"),
        pytest.param("compare", "correct", MISSING, "missing field 'correct'",
                     id="compare-correct"),
        pytest.param("compare", "correct", "false", "field 'correct' must be a boolean",
                     id="compare-correct-string"),
        pytest.param("student-stats", "confidence", "high",
                     "field 'confidence' must be a number", id="student-stats-confidence-string"),
        pytest.param("datamap", "correctness", "3.5",
                     "field 'correctness' must be an integer", id="datamap-correctness-string"),
        pytest.param("student-scores", "score", "x", "field 'score' must be a number",
                     id="student-scores-score-string"),
        pytest.param("student-stats", "correctness", 1.7,
                     "field 'correctness' must be an integer, got 1.7",
                     id="student-stats-correctness-float"),
        pytest.param("datamap", "correctness", True,
                     "field 'correctness' must be an integer, got True",
                     id="datamap-correctness-bool"),
        pytest.param("student-stats", "confidence", "0.5",
                     "field 'confidence' must be a number, got '0.5'",
                     id="student-stats-confidence-numeric-string"),
        pytest.param("student-stats", "example_id", "train-000000",
                     "duplicate example id 'train-000000'", id="student-stats-duplicate-id"),
        pytest.param("student-scores", "example_id", "train-000000",
                     "duplicate example id 'train-000000'", id="student-scores-duplicate-id"),
        pytest.param("compare", "example_id", "t0", "duplicate example id 't0'",
                     id="compare-duplicate-id"),
        pytest.param("student-stats", "variability", -0.5, "variability -0.5 for example",
                     id="student-stats-negative-variability"),
        pytest.param("student-stats-anneal", "variability", -0.5,
                     "variability -0.5 for example", id="student-anneal-negative-variability"),
        pytest.param("student-stats", "variability", 0.5000000000000001,
                     "variability 0.5000000000000001 for example",
                     id="student-stats-variability-above-half"),
        pytest.param("student-stats-anneal", "confidence", 1.5, "confidence 1.5 for example",
                     id="student-anneal-confidence-above-one"),
        pytest.param("datamap", "confidence", -1e-300, "confidence -1e-300 for example",
                     id="datamap-negative-confidence"),
        pytest.param("datamap", "correctness", -1, "correctness -1 for example",
                     id="datamap-negative-correctness"),
    ])
    def test_missing_field_named_with_line(self, run_dir, config_path, tmp_path,
                                           capsys, command, field, bad, message):
        if command == "compare":
            build_student_dir(tmp_path / "a", 0.9)
            build_student_dir(tmp_path / "b", 0.5)
            path = tmp_path / "b" / "seed_2" / "outcomes_test_id.jsonl"
            records = [json.loads(line) for line in path.read_text().splitlines()]
        elif command == "student-scores":
            path = tmp_path / "scores.jsonl"
            records = [{"metric_name": "length", "higher_is_easier": False}] + [
                {"example_id": eid, "score": float(i)}
                for i, eid in enumerate(
                    read_td_stats(run_dir / "teacher" / "td_stats.jsonl").ids)
            ]
        else:
            path = tmp_path / "td_stats.jsonl"
            records = [json.loads(line) for line in
                       (run_dir / "teacher" / "td_stats.jsonl").read_text().splitlines()]
        if bad is MISSING:
            del records[7][field]
        else:
            records[7][field] = bad
        path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        out = tmp_path / "o"
        argv = {
            "student-stats": ["student", "--config", str(config_path), "--out", str(out),
                              "--scheduler", "conf+var_comp", "--scores", str(path)],
            "student-stats-anneal": ["student", "--config", str(config_path), "--out",
                                     str(out), "--scheduler", "corr+var_anneal",
                                     "--scores", str(path)],
            "student-scores": ["student", "--config", str(config_path), "--out", str(out),
                               "--scheduler", "length", "--scores", str(path)],
            "datamap": ["datamap", "--out", str(out), "--stats", str(path)],
            "compare": ["compare", "--a", str(tmp_path / "a"), "--b", str(tmp_path / "b"),
                        "--out", str(out / "cmp")],
        }[command]
        assert main(argv) == 1
        assert f"{path}:8: {message}" in capsys.readouterr().err
        assert {p.name for p in out.rglob("*")} <= SNAPSHOT

    @pytest.mark.parametrize("kind", ["scores-header", "cross-review-header",
                                      "summary", "summary-best_steps",
                                      "summary-accuracy", "meta"])
    def test_bad_header_or_document_named(self, run_dir, config_path, tmp_path, capsys,
                                          kind):
        ids = read_td_stats(run_dir / "teacher" / "td_stats.jsonl").ids
        out = tmp_path / "o"
        student = ["student", "--config", str(config_path), "--out", str(out)]
        if kind in ("scores-header", "cross-review-header"):
            path = tmp_path / "scores.jsonl"
            header = ({"metric_name": "length", "higher_is_easier": "false"}
                      if kind == "scores-header" else
                      {"metric_name": "cross_review", "higher_is_easier": True,
                       "num_subsets": "3"})
            records = [header] + [{"example_id": eid, "score": float(i % 3)}
                                  for i, eid in enumerate(ids)]
            path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
            scheduler = "length" if kind == "scores-header" else "cr_anneal"
            argv = student + ["--scheduler", scheduler, "--scores", str(path)]
            message = (f"{path}:1: field 'higher_is_easier' must be a boolean, got 'false'"
                       if kind == "scores-header" else
                       f"{path}:1: field 'num_subsets' must be an integer, got '3'")
        elif kind.startswith("summary"):
            build_student_dir(tmp_path / "a", 0.9)
            build_student_dir(tmp_path / "b", 0.5)
            path = tmp_path / "b" / "summary.json"
            summary = json.loads(path.read_text())
            if kind == "summary":
                del summary["seeds"]
                message = f"{path}: missing field 'seeds'"
            elif kind == "summary-best_steps":
                del summary["best_steps"]["2"]
                message = f"{path}: best_steps: missing field '2'"
            else:
                del summary["accuracy"]["test_id"]
                message = f"{path}: accuracy: missing field 'test_id'"
            path.write_text(json.dumps(summary))
            argv = ["compare", "--a", str(tmp_path / "a"), "--b", str(tmp_path / "b"),
                    "--out", str(out / "cmp")]
        else:
            (out / "teacher").mkdir(parents=True)
            stats = out / "teacher" / "td_stats.jsonl"
            stats.write_bytes((run_dir / "teacher" / "td_stats.jsonl").read_bytes())
            path = out / "teacher" / "meta.json"
            path.write_text(json.dumps({"metric": "dynamics", "seed": 1}))
            argv = student + ["--scheduler", "corr_anneal"]
            message = f"{path}: missing field 'epochs'"
        assert main(argv) == 1
        assert message in capsys.readouterr().err
        assert not (out / "students").exists()
        assert not list(out.glob("cmp*"))

    def test_widest_hash_dim_loads(self, tmp_path):
        # 2^62 is the widest width validate_config accepts
        lines = [json.dumps({"id": f"r{i}", "text_a": f"w{i} x", "label": f"c{i % 2}"})
                 for i in range(8)]
        cfg = write_data_config(tmp_path, lines, lines, hash_dim=2 ** 62)
        assert main(["teacher", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--metric", "length"]) == 0
        assert (tmp_path / "o" / "teacher" / "scores_length.jsonl").exists()

    def test_train_split_fixes_feature_dim(self, tmp_path, capsys):
        # validation uses columns 0-2 of the train split's 0-3
        cfg = write_data_config(tmp_path, feature_records(8, 4), feature_records(8, 3))
        assert main(["teacher", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        validation = tmp_path / "validation.jsonl"
        validation.write_text("\n".join(feature_records(8, 5)) + "\n")
        out = tmp_path / "o2"
        assert main(["teacher", "--config", str(cfg), "--out", str(out)]) == 1
        assert (f"{validation}:5: feature index 4 is not below the feature dimension 4"
                in capsys.readouterr().err)
        assert {p.name for p in out.rglob("*")} <= SNAPSHOT

    @pytest.mark.parametrize("label_map, message", [
        ({"c0": 0, "c1": 5}, "label indices must be 0..1, each used once; got [0, 5]"),
        (["c0", "c1"], "not a JSON object"),
        ({"c0": 0, "c1": 0}, "label indices must be 0..1, each used once; got [0, 0]"),
        ({"c0": 0, "c1": "1"}, "field 'c1' must be an integer, got '1'"),
    ], ids=["out-of-range", "list", "merged-labels", "string-index"])
    def test_bad_label_map_named(self, tmp_path, capsys, label_map, message):
        path = tmp_path / "labels.json"
        path.write_text(json.dumps(label_map))
        cfg = write_data_config(tmp_path, feature_records(8, 4), feature_records(8, 4),
                                label_map=str(path))
        out = tmp_path / "o"
        assert main(["teacher", "--config", str(cfg), "--out", str(out)]) == 1
        assert f"{path}: {message}" in capsys.readouterr().err
        assert {p.name for p in out.rglob("*")} <= SNAPSHOT

    @pytest.mark.parametrize("line, message", [
        ('{"id": "r4", "text_a": "t", "label": "c0", "features": {"-3": 1.0}}',
         "feature '-3': 1.0 needs a non-negative integer index"),
        ('{"id": "r4", "text_a": "t", "label": "c0", "features": [1.0]}',
         "field 'features' must be an object"),
        ('{"id": "r4", "text_a": "t", "label": "c0", "features": {"1": "x"}}',
         "feature '1': 'x' needs"),
        ('{"id": "r4", "text_a": "t", "label": "c0", "features": {"1": NaN}}',
         "feature '1': nan needs"),
        ('{"id": "r4", "text_a": "t", "label": "c0", "features": {"1": -Infinity}}',
         "feature '1': -inf needs"),
        ('{"id": "r0", "text_a": "t", "label": "c0", "features": {"1": 1.0}}',
         "duplicate example id 'r0'"),
        ("7", "not a JSON object"),
        ('{"id": "r4", "text_a": "t", "label": "c0", "features": {"1099511627776": 1.0}}',
         "feature index 1099511627776 is not below the feature dimension 262144"),
        ('{"id": "r4", "text_a": "t", "label": ["c0"], "features": {"1": 1.0}}',
         "field 'label' must be a string or a number, got ['c0']"),
        ('{"id": {"n": 4}, "text_a": "t", "label": "c0", "features": {"1": 1.0}}',
         "field 'id' must be a string or a number, got {'n': 4}"),
        ('{"id": "r4", "text_a": ["t"], "label": "c0", "features": {"1": 1.0}}',
         "field 'text_a' must be a string or a number, got ['t']"),
        ('{"id": "r4", "text_a": "t", "text_b": {}, "label": "c0", "features": {"1": 1.0}}',
         "field 'text_b' must be a string or a number, got {}"),
    ], ids=["negative-index", "features-not-object", "non-numeric-value", "nan-value",
            "inf-value", "duplicate-id", "not-object", "index-past-hash-dim",
            "label-array", "id-object", "text_a-array", "text_b-object"])
    def test_malformed_corpus_record_named_with_line(self, tmp_path, capsys, line, message):
        good = feature_records(8, 4)
        cfg = write_data_config(tmp_path, good[:4] + [line] + good[5:], good)
        out = tmp_path / "o"
        assert main(["teacher", "--config", str(cfg), "--out", str(out)]) == 1
        assert f"{tmp_path / 'train.jsonl'}:5: {message}" in capsys.readouterr().err
        assert {p.name for p in out.rglob("*")} <= SNAPSHOT

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_exits_2_with_step(self, tmp_path, capsys):
        config = json.loads(json.dumps(BASE_CONFIG))
        config["train"]["learning_rate"] = 1e308  # weights overflow to inf
        cfg = tmp_path / "huge_lr.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "o"
        assert main(["teacher", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "runtime failure: non-finite training loss nan at step" in err
        assert not (out / "teacher").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["teacher", "--config", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_datamap_command(self, run_dir):
        assert main(["datamap", "--out", str(run_dir)]) == 0
        assert (run_dir / "datamap.csv").exists()
        assert (run_dir / "datamap.svg").exists()

    def test_correlate_command(self, run_dir, config_path):
        assert main(["correlate", "--config", str(config_path),
                     "--out", str(run_dir)]) == 0
        payload = json.loads((run_dir / "correlations.json").read_text())
        assert set(payload["metrics"]) >= {"confidence", "correctness",
                                           "variability", "length", "rarity", "ppl"}
        n = len(payload["metrics"])
        assert len(payload["spearman"]) == n
        assert all(payload["spearman"][i][i] == 1.0 for i in range(n))


class TestCorrelate:
    def test_same_bytes_whether_heuristics_read_or_computed(self, tmp_path, data_config):
        """correlate reads each heuristic teacher's scores file that exists
        and computes the rest; correlations.json does not change."""
        written = {}
        for present in ((), ("rarity",), cli.HEURISTICS):
            out = ["--config", str(data_config), "--out", str(tmp_path / "-".join(present))]
            assert main(["teacher", *out]) == 0
            for metric in present:
                assert main(["teacher", *out, "--metric", metric]) == 0
            assert main(["correlate", *out]) == 0
            written[present] = (tmp_path / "-".join(present) / "correlations.json").read_bytes()
        assert len(set(written.values())) == 1

    def test_constant_metric_named(self, tmp_path, capsys):
        """Every train text has 5 tokens, so the length metric is constant."""
        lines = [json.dumps({"id": f"r{i}", "text_a": f"w{i // 2} a{i % 7} b{i % 3} c d",
                             "label": f"c{i % 2}"}) for i in range(60)]
        cfg = write_data_config(tmp_path, lines, lines[:20])
        config = json.loads(cfg.read_text())
        config["train"] = {"epochs": 3, "batch_size": 8, "learning_rate": 0.5,
                           "eval_per_epoch": 2}  # correctness is not constant
        cfg.write_text(json.dumps(config))
        out = ["--config", str(cfg), "--out", str(tmp_path / "o")]
        assert main(["teacher", *out]) == 0
        assert main(["correlate", *out]) == 1
        assert ("metric 'length' is constant over the 60 shared example ids: "
                "spearman is undefined") in capsys.readouterr().err
        assert not (tmp_path / "o" / "correlations.json").exists()


class TestConfigResolution:
    def test_file_based_corpora_share_label_map(self, tmp_path, config_path):
        out = tmp_path / "files"
        main(["synth", "--config", str(config_path), "--out", str(out)])
        config = {
            "data": {
                "train": str(out / "data" / "train.jsonl"),
                "validation": str(out / "data" / "validation.jsonl"),
                "test_id": str(out / "data" / "test_id.jsonl"),
            },
            "train": BASE_CONFIG["train"],
            "seeds": [1],
        }
        corpora = resolve_corpora(config)
        assert corpora["train"].label_names == corpora["test_id"].label_names
        assert corpora["train"].num_classes == 3
        assert set(corpora) == {"train", "validation", "test_id"}

    def test_defaults_come_from_the_table(self):
        assert cli._train_config({}, seed=11) == TrainConfig(seed=11)
        synth = {name: cli._value({}, "synth", name) for name in cli._FIELDS["synth"]}
        assert SynthSpec(**synth) == SynthSpec()
        assert cli._value({}, "config", "seeds") == [1, 2, 3]
        assert cli._value({}, "data", "hash_dim") == DEFAULT_HASH_DIM
        assert cli._value({}, "curriculum", "duration") is None
        assert cli._value({}, "curriculum", "duration", 7) == 7
        assert cli._value({"curriculum": {"duration": 3}}, "curriculum", "duration", 7) == 3

    def test_float_field_read_as_float(self):
        c0 = cli._value({"curriculum": {"c0": 1}}, "curriculum", "c0")
        assert type(c0) is float and c0 == 1.0
        lr = cli._train_config({"train": {"learning_rate": 2}}, seed=0).learning_rate
        assert type(lr) is float

    def test_int_c0_writes_the_float_plan(self, tmp_path, run_dir):
        plans = []
        for c0 in (1, 1.0):
            config = json.loads(json.dumps(BASE_CONFIG))
            config["curriculum"] = {"c0": c0}
            validate_config(config)
            out = tmp_path / f"c0_{c0!r}"
            (out / "teacher").mkdir(parents=True)
            stats = (run_dir / "teacher" / "td_stats.jsonl").read_bytes()
            (out / "teacher" / "td_stats.jsonl").write_bytes(stats)
            cmd_student(config, out, "conf_comp")
            plans.append((out / "students" / "conf_comp" / "seed_1" / "plan.json")
                         .read_bytes())
        assert plans[0] == plans[1]
        assert json.loads(plans[0])["c0"] == 1.0

    def test_snapshot_conflict_detected(self, tmp_path, config_path):
        config = load_config(config_path)
        out = tmp_path / "conflict"
        cmd_teacher(config, out, metric="length")
        changed = json.loads(json.dumps(config))
        changed["seeds"] = [42]
        with pytest.raises(ValidationError, match="different config"):
            cmd_teacher(changed, out, metric="length")


@pytest.fixture(scope="module")
def data_config(tmp_path_factory, config_path):
    """A data config over the four files that ``synth`` writes."""
    root = tmp_path_factory.mktemp("data")
    assert main(["synth", "--config", str(config_path), "--out", str(root)]) == 0
    config = {"data": {split: str(root / "data" / f"{split}.jsonl")
                       for split in ("train", "validation", "test_id", "test_ood")},
              "train": BASE_CONFIG["train"], "seeds": [1],
              "cross_review": BASE_CONFIG["cross_review"]}
    path = root / "config.json"
    path.write_text(json.dumps(config))
    return path


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestInputDigests:
    """inputs.json holds the sha256 of every file the config names; a later
    command on the same --out with a changed file exits 1 before writing."""

    @staticmethod
    def text_config(tmp_path):
        lines = [json.dumps({"id": f"r{i}", "text_a": " ".join(f"w{j}" for j in range(i % 6 + 1)),
                             "label": f"c{i % 2}"}) for i in range(40)]
        return write_data_config(tmp_path, lines, lines[:10])

    def test_changed_train_file_is_not_resumed(self, tmp_path, capsys):
        """A length teacher, then longer train texts: the length student must
        not train on the old scores."""
        out = tmp_path / "o"
        argv = ["--config", str(self.text_config(tmp_path)), "--out", str(out)]
        assert main(["teacher", *argv, "--metric", "length"]) == 0
        train = tmp_path / "train.jsonl"
        then = sha256(train)
        records = [json.loads(line) for line in train.read_text().splitlines()]
        train.write_text("".join(json.dumps({**rec, "text_a": rec["text_a"] + " more words"})
                                 + "\n" for rec in records))
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert main(["student", *argv, "--scheduler", "length"]) == 1
        assert (f"data.train: {train} changed since {out / 'inputs.json'} was written: "
                f"sha256 {then} then, {sha256(train)} now") in capsys.readouterr().err
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    def test_same_files_resume(self, tmp_path):
        out = tmp_path / "o"
        argv = ["--config", str(self.text_config(tmp_path)), "--out", str(out)]
        assert main(["teacher", *argv, "--metric", "length"]) == 0
        inputs = (out / "inputs.json").read_bytes()
        assert json.loads(inputs) == {"data.train": sha256(tmp_path / "train.jsonl"),
                                      "data.validation": sha256(tmp_path / "validation.jsonl")}
        assert main(["student", *argv, "--scheduler", "length"]) == 0
        assert (out / "inputs.json").read_bytes() == inputs

    def test_synthetic_config_writes_no_digests(self, run_dir):
        assert (run_dir / "config.json").exists()
        assert not (run_dir / "inputs.json").exists()

    def test_baseline_summary_recorded_when_it_appears(self, tmp_path):
        config = json.loads(json.dumps(BASE_CONFIG))
        baseline = tmp_path / "baseline"
        config["curriculum"] = {"baseline_dir": str(baseline)}
        out = tmp_path / "o"
        cmd_teacher(config, out, metric="dynamics")
        inputs = out / "inputs.json"
        assert json.loads(inputs.read_text()) == {"curriculum.baseline_dir": "missing"}
        build_student_dir(baseline, 0.5)
        cmd_student(config, out, "conf_comp")
        then = sha256(baseline / "summary.json")
        assert json.loads(inputs.read_text()) == {"curriculum.baseline_dir": then}
        (baseline / "summary.json").unlink()
        with pytest.raises(ValidationError, match=f"sha256 {then} then, missing now"):
            cmd_student(config, out, "conf_comp")


ALL_SPLITS = ["test_id", "test_ood", "train", "validation"]


class TestSplitsLoaded:
    @pytest.mark.parametrize("argv, splits", [
        (["teacher"], ["train", "validation"]),
        (["teacher", "--metric", "length"], ["train"]),
        (["teacher", "--metric", "rarity"], ["train"]),
        (["teacher", "--metric", "ppl"], ["train"]),
        (["teacher", "--metric", "cross-review"], ["train"]),
        (["correlate"], ["train"]),
        (["student", "--scheduler", "random"], ALL_SPLITS),
        (["sweep", "--schedulers", "random,length", "--rounds", "50"], ALL_SPLITS),
    ], ids=["dynamics", "length", "rarity", "ppl", "cross-review", "correlate",
            "student", "sweep"])
    def test_each_command_loads_only_its_splits(self, tmp_path, data_config, capsys,
                                                monkeypatch, argv, splits):
        out = ["--config", str(data_config), "--out", str(tmp_path / "o")]
        if argv[0] == "correlate":
            assert main(["teacher", *out]) == 0
        loaded = []
        real = cli.load_jsonl
        monkeypatch.setattr(cli, "load_jsonl", lambda path, split_name, **kwargs:
                            loaded.append(split_name) or real(path, split_name, **kwargs))
        assert main([argv[0], *out, *argv[1:]]) == 0, capsys.readouterr().err
        assert sorted(loaded) == splits  # each once: a sweep resolves them once

    def test_correlate_after_heuristic_teachers_loads_no_split(self, tmp_path, data_config,
                                                               capsys, monkeypatch):
        out = ["--config", str(data_config), "--out", str(tmp_path / "o")]
        assert main(["teacher", *out]) == 0
        for metric in cli.HEURISTICS:
            assert main(["teacher", *out, "--metric", metric]) == 0
        loaded = []
        real = cli.load_jsonl
        monkeypatch.setattr(cli, "load_jsonl", lambda path, split_name, **kwargs:
                            loaded.append(split_name) or real(path, split_name, **kwargs))
        assert main(["correlate", *out]) == 0, capsys.readouterr().err
        assert loaded == []

    def _bad_test_ood(self, tmp_path, data_config):
        config = json.loads(data_config.read_text())
        bad = tmp_path / "test_ood.jsonl"
        lines = Path(config["data"]["test_ood"]).read_text().splitlines()
        bad.write_text("\n".join(lines[:2] + ["not json"] + lines[3:]) + "\n")
        config["data"]["test_ood"] = str(bad)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return path, bad

    def test_heuristic_teacher_skips_a_bad_test_split(self, tmp_path, data_config):
        cfg, _ = self._bad_test_ood(tmp_path, data_config)
        assert main(["teacher", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--metric", "length"]) == 0

    def test_student_names_a_bad_test_split(self, tmp_path, data_config, capsys):
        cfg, bad = self._bad_test_ood(tmp_path, data_config)
        out = tmp_path / "o"
        assert main(["student", "--config", str(cfg), "--out", str(out),
                     "--scheduler", "random"]) == 1
        assert f"{bad}:3: invalid JSON" in capsys.readouterr().err
        assert {p.name for p in out.rglob("*")} <= SNAPSHOT
