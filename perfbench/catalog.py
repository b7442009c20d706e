"""Workloads and metrics of the benchmark, with what each metric should move.

``BENCHMARK.json`` at the repository root is generated from this file
(``python3 perfbench/collect.py spec``), so names, units and bounds live in
one place.
"""

from __future__ import annotations

RUN_SECONDS = 35

WORKLOADS = [
    ("pilot-sweep",
     "README synthetic 9-scheduler x 3-seed sweep into a fresh run directory: "
     "every layer, split between trainer steps and AR compares"),
    ("pilot-resume",
     "the same sweep over a completed run directory: no training, only outcome "
     "reads and 16 AR compares, so trainer changes must not move it"),
    ("text-pipeline",
     "README quick-start commands on a seeded hashed-text corpus at hash_dim 2^18: "
     "real tokenizing and hashing, and a dense W that dominates the trainer"),
]

# (name, unit, better, bound); bound is the share of the parent's median
# a later change may worsen the metric by.
# The bounds are wide because CPU speed drifts on the shared 2-core x86-64
# machine the baseline comes from: a fixed Python loop spreads by about 15%
# between its quartiles, and 10 runs of pilot-sweep by about 12%.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# run.py also prints failed_frac (with the attempted count), and on
# text-pipeline teacher_s, student_s and report_s, but they are not gated:
# failed_frac is 0 on a healthy run and the result line carries
# attempted/failed; the other three do not exist on the pilots, and report_s
# lasts under a second and spreads by about 19%.

MODULES = ("corpus", "curricula", "trainer", "dynamics", "difficulty", "analysis", "cli")

# (name, unit, which end-to-end metric on which workload it should move)
PER_LAYER = [
    ("analysis.ar_s", "s", "wall_s on pilot-resume (most) and pilot-sweep"),
    ("analysis.ar_calls", "count", "wall_s on both pilots"),
    ("analysis.ar_units", "count", "peak_rss_mb and wall_s on the pilots as units grow (largest call)"),
    ("analysis.ar_temp_bytes", "B",
     "peak_rss_mb on both pilots; largest call's min(rounds, 2000) x units x 8"),
    ("trainer.train_s", "s", "wall_s on pilot-sweep and text-pipeline"),
    ("trainer.train_self_s", "s",
     "wall_s on text-pipeline: dense 2^18-row W update, momentum and probe pass"),
    ("trainer.loss_and_grad_s", "s", "wall_s on text-pipeline and pilot-sweep"),
    ("trainer.clip_s", "s", "wall_s on text-pipeline (dense gradient norm)"),
    ("trainer.evaluate_s", "s", "wall_s on pilot-sweep and text-pipeline"),
    ("trainer.predict_s", "s", "wall_s on pilot-sweep and text-pipeline"),
    ("trainer.steps", "count", "none on pilot-resume, where it must be 0"),
    ("trainer.param_bytes_per_step", "B", "wall_s on text-pipeline (from the W shape)"),
    ("trainer.write_s", "s", "wall_s on text-pipeline and pilot-sweep (runlogs, probes)"),
    ("curricula.next_batch_s", "s", "wall_s on text-pipeline and pilot-sweep"),
    ("curricula.next_batch_calls", "count", "wall_s on text-pipeline and pilot-sweep"),
    ("curricula.plan_build_s", "s", "wall_s on pilot-sweep"),
    ("corpus.resolve_calls", "count", "wall_s on every workload (6 per pilot sweep)"),
    ("corpus.load_jsonl_s", "s", "setup_s and wall_s on text-pipeline"),
    ("corpus.generate_synthetic_s", "s", "setup_s and wall_s on both pilots"),
    ("corpus.feature_matrix_s", "s", "setup_s and wall_s on every workload"),
    ("corpus.train_nnz", "count", "wall_s on text-pipeline"),
    ("corpus.train_active_cols", "count", "wall_s on text-pipeline (touched rows of W)"),
    ("dynamics.compute_all_s", "s", "wall_s on text-pipeline and pilot-sweep"),
    ("dynamics.td_io_s", "s", "wall_s on text-pipeline and pilot-sweep"),
    ("difficulty.cross_review_s", "s", "wall_s on pilot-sweep"),
    ("difficulty.heuristics_s", "s", "wall_s on pilot-sweep and text-pipeline"),
    ("difficulty.read_scores_s", "s", "wall_s on pilot-sweep and text-pipeline"),
    ("cli.pooled_outcomes_s", "s", "wall_s on pilot-resume"),
    ("cli.compare_calls", "count", "wall_s on both pilots"),
    ("cli.cmd_teacher_s", "s", "wall_s on pilot-sweep and text-pipeline"),
    ("cli.cmd_student_s", "s", "wall_s on pilot-sweep and text-pipeline"),
    ("cli.artifact_files", "count", "wall_s on pilot-resume (files rewritten)"),
    ("cli.artifact_bytes", "B", "wall_s on pilot-resume (bytes rewritten)"),
] + [
    (f"{m}.self_s", "s", f"whichever workload spends its time in {m}") for m in MODULES
] + [
    ("trace_overhead_frac", "frac", "none: traced wall_s over untraced wall_s, minus 1"),
]

# Counts that must repeat exactly between runs of one seed; all but
# cli.artifact_bytes also repeat across seeds, because they follow from sizes.
REPEATING_COUNTS = ("trainer.steps", "analysis.ar_calls", "analysis.ar_temp_bytes",
                    "corpus.resolve_calls", "cli.artifact_bytes")
SEED_DEPENDENT_COUNTS = ("cli.artifact_bytes",)


def spec() -> dict:
    """The BENCHMARK.json document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": "lower"} for n, u, _ in PER_LAYER],
    }
