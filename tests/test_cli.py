import json
import math
from pathlib import Path

import pytest

from currikit import cli
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
)
from currikit.corpus import load_jsonl
from currikit.difficulty import read_scores, read_scores_header
from currikit.dynamics import read_td_stats, write_td_stats

MISSING = object()  # a field deleted from a record rather than given a value

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
        assert len(stats) == 120
        assert all(0 <= s.correctness <= 2 for s in stats.values())

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
        assert all(s.correctness <= 1 for s in stats.values())
        probes = (out / "teacher" / "probes.jsonl").read_text().splitlines()
        assert len(probes) == 120  # one epoch only

    def test_cross_review_scores(self, tmp_path, config_path):
        config = load_config(config_path)
        out = tmp_path / "cr"
        path = cmd_teacher(config, out, metric="cross-review")
        header = read_scores_header(path)
        assert header["num_subsets"] == 3
        scores = read_scores(path)
        assert set(scores.scores.values()) <= {0.0, 1.0, 2.0}
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

    def test_random_warns_on_scores(self, run_dir, config_path, capsys):
        config = load_config(config_path)
        cmd_student(config, run_dir, "random",
                    scores_path=run_dir / "teacher" / "td_stats.jsonl")
        assert "ignores the scores file" in capsys.readouterr().err

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
    def test_compare_to_self(self, run_dir, config_path, capsys):
        report = cmd_compare(run_dir / "students" / "random",
                             run_dir / "students" / "random",
                             rounds=500)
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
                             rounds=500, out_prefix=tmp_path / "cmp")
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
        report = cmd_compare(tmp_path / "good", tmp_path / "bad", rounds=2000)
        assert report["splits"]["test_id"]["p_value"] <= 0.05
        capsys.readouterr()

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
        matrix = cmd_sweep(config, out, ["random", "corr_anneal"], rounds=300)
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
        cmd_sweep(config, out, ["random"], rounds=300)
        marker = out / "students" / "random" / "summary.json"
        before = marker.stat().st_mtime_ns
        cmd_sweep(config, out, ["random"], rounds=300)
        assert marker.stat().st_mtime_ns == before
        capsys.readouterr()

    def test_parallel_sweep_matches_sequential(self, tmp_path, config_path, capsys):
        config = load_config(config_path)
        seq = tmp_path / "seq"
        par = tmp_path / "par"
        cmd_sweep(config, seq, ["random", "conf_comp", "rarity"], rounds=300)
        cmd_sweep(config, par, ["random", "conf_comp", "rarity"], rounds=300,
                  workers=3)
        capsys.readouterr()
        for rel in sorted(p.relative_to(seq) for p in seq.rglob("*.jsonl")):
            assert (seq / rel).read_bytes() == (par / rel).read_bytes(), rel

    def test_sweep_resolves_corpora_once(self, tmp_path, config_path, capsys,
                                         monkeypatch):
        calls = []

        def counting(config):
            calls.append(config)
            return resolve_corpora(config)

        monkeypatch.setattr(cli, "resolve_corpora", counting)
        cmd_sweep(load_config(config_path), tmp_path / "sweep", list(SCHEDULERS),
                  rounds=300)
        capsys.readouterr()
        assert len(calls) == 1

    def test_failed_teacher_write_is_not_resumed(self, tmp_path, config_path, capsys,
                                                 monkeypatch):
        real = cli.dynamics.compute_all

        def unserializable_101st(probes):
            stats = real(probes)
            list(stats.values())[100].confidence = object()
            return stats

        monkeypatch.setattr(cli.dynamics, "compute_all", unserializable_101st)
        config = load_config(config_path)
        out = tmp_path / "sweep"
        with pytest.raises(TypeError):
            cmd_sweep(config, out, ["random", "corr_anneal"], rounds=300)
        assert not (out / "teacher" / "td_stats.jsonl").exists()
        assert not list(out.rglob(".*.tmp"))
        monkeypatch.undo()
        cmd_sweep(config, out, ["random", "corr_anneal"], rounds=300)
        capsys.readouterr()
        assert len(read_td_stats(out / "teacher" / "td_stats.jsonl")) == 120


@pytest.fixture(scope="module")
def swept(tmp_path_factory, config_path):
    """A completed 9-scheduler sweep."""
    out = tmp_path_factory.mktemp("swept")
    cmd_sweep(load_config(config_path), out, list(SCHEDULERS), rounds=300)
    return out


class TestResumedSweep:
    def test_builds_no_corpus(self, swept, config_path, capsys, monkeypatch):
        def refuse(config):
            raise AssertionError("resolve_corpora called on a completed sweep")

        monkeypatch.setattr(cli, "resolve_corpora", refuse)
        cmd_sweep(load_config(config_path), swept, list(SCHEDULERS), rounds=300)
        capsys.readouterr()

    def test_reads_outcomes_once_per_student_and_split(self, swept, config_path,
                                                       capsys, monkeypatch):
        calls = []
        real = cli._pooled_outcomes

        def counting(path, seeds, split):
            calls.append((path.name, split))
            return real(path, seeds, split)

        monkeypatch.setattr(cli, "_pooled_outcomes", counting)
        cmd_sweep(load_config(config_path), swept, list(SCHEDULERS), rounds=300)
        capsys.readouterr()
        assert len(calls) == len(set(calls)) == len(SCHEDULERS) * 3 == 27

    def test_compare_reports_match_standalone_compare(self, swept, config_path,
                                                      tmp_path, capsys):
        cmd_sweep(load_config(config_path), swept, list(SCHEDULERS), rounds=300)
        reports = sorted((swept / "compare").glob("*.json"))
        assert len(reports) == 16
        for path in reports:
            a, b = path.stem.split("_vs_")
            cmd_compare(swept / "students" / a, swept / "students" / b, rounds=300,
                        out_prefix=tmp_path / path.stem)
            assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name
        capsys.readouterr()

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
                    *(f"{vs['p_values'][s]:.4f}" for s in splits),
                    f"{vs['time_ratio']['mean']:.2f}"]
                assert block[row["scheduler"]] == expected, (b, row["scheduler"])


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
        victim = list(stats)[7]
        out = tmp_path / "o"
        path = tmp_path / f"{kind}.jsonl"
        if command == "correlate":  # reads the run directory's own stats
            path = out / "teacher" / "td_stats.jsonl"
        if kind == "scores":
            lines = [{"metric_name": "length", "higher_is_easier": False}] + [
                {"example_id": eid, "score": bad if eid == victim else float(i)}
                for i, eid in enumerate(stats)
            ]
            path.write_text("".join(json.dumps(rec) + "\n" for rec in lines))
        else:
            setattr(stats[victim], field, bad)
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
                for i, eid in enumerate(read_td_stats(run_dir / "teacher" / "td_stats.jsonl"))
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
            "student-scores": ["student", "--config", str(config_path), "--out", str(out),
                               "--scheduler", "length", "--scores", str(path)],
            "datamap": ["datamap", "--out", str(out), "--stats", str(path)],
            "compare": ["compare", "--a", str(tmp_path / "a"), "--b", str(tmp_path / "b"),
                        "--out", str(out / "cmp")],
        }[command]
        assert main(argv) == 1
        assert f"{path}:8: {message}" in capsys.readouterr().err
        assert {p.name for p in out.rglob("*")} <= {"config.json"}

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
    ], ids=["negative-index", "features-not-object", "non-numeric-value", "nan-value",
            "inf-value", "duplicate-id", "not-object"])
    def test_malformed_corpus_record_named_with_line(self, tmp_path, capsys, line, message):
        good = [json.dumps({"id": f"r{i}", "text_a": f"t{i}", "label": f"c{i % 2}",
                            "features": {str(i % 4): 1.0}}) for i in range(8)]
        train, validation = tmp_path / "train.jsonl", tmp_path / "validation.jsonl"
        train.write_text("\n".join(good[:4] + [line] + good[5:]) + "\n")
        validation.write_text("\n".join(good) + "\n")
        config = {"data": {"train": str(train), "validation": str(validation)},
                  "train": BASE_CONFIG["train"], "seeds": [1]}
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "o"
        assert main(["teacher", "--config", str(cfg), "--out", str(out)]) == 1
        assert f"{train}:5: {message}" in capsys.readouterr().err
        assert {p.name for p in out.rglob("*")} <= {"config.json"}

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

    def test_snapshot_conflict_detected(self, tmp_path, config_path):
        config = load_config(config_path)
        out = tmp_path / "conflict"
        cmd_teacher(config, out, metric="length")
        changed = json.loads(json.dumps(config))
        changed["seeds"] = [42]
        with pytest.raises(ValidationError, match="different config"):
            cmd_teacher(changed, out, metric="length")
