"""currikit benchmark: one workload, timed for a fixed number of seconds.

    python3 perfbench/run.py --workload pilot-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; currikit is imported from its ``src``
directory. Prints a table of metrics, then as its last line one JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
Exits 1 when any command or output check failed, 2 when the checkout has no
currikit sources.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from catalog import END_TO_END, PER_LAYER, REPEATING_COUNTS, WORKLOADS
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[n for n, _ in WORKLOADS])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "currikit" / "__init__.py").is_file():
        print(f"error: no currikit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import currikit  # noqa: F401  (fails loudly if the sources are broken)
    if Path(currikit.__file__).resolve().parent != SRC / "currikit":
        print(f"error: imported currikit from {currikit.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    base = ROOT / ".perfbench_work"
    work = base / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        result = measure(args, base / f"spans-{args.workload}-{args.seed}.jsonl")
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def measure(args, spans_path: Path) -> dict:
    import workloads  # imports currikit, so only once src/ is on the path

    ledger = workloads.Ledger()
    wl = workloads.prepare(args.workload, args.seed, ledger)
    tracer = Tracer(maxima=workloads.COUNTER_MAXIMA)
    plain_reps, traced_reps, layers = [], [], []

    def traced_rep():
        tracer.reset()
        tracer.install(workloads.layer_targets())
        try:
            return workloads.repetition(wl, ledger)
        finally:
            tracer.uninstall()

    # Stop at the repetition boundary nearest to --seconds: start another
    # repetition while it should end no more than half a lap past the budget.
    start = time.perf_counter()
    lap = 0.0
    while not plain_reps or time.perf_counter() - start + lap / 2 <= args.seconds:
        lap_start = time.perf_counter()
        if args.trace:
            traced_reps.append(traced_rep())
            layer = workloads.layer_metrics(tracer)
            layer["cli.artifact_files"] = traced_reps[-1]["artifact_files"]
            layer["cli.artifact_bytes"] = traced_reps[-1]["artifact_bytes"]
            layers.append(layer)
        plain_reps.append(workloads.repetition(wl, ledger))
        for _ in range(workloads.SETUP_PER_REP):
            workloads.time_setup(wl)
        lap = time.perf_counter() - lap_start

    def median(key, reps):
        return statistics.median(r[key] for r in reps)

    summary = {
        "setup_s": (statistics.median(wl.setup_s), len(wl.setup_s)),
        "wall_s": (median("wall_s", plain_reps), len(plain_reps)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    students = [t for r in plain_reps for t in r["student_s"]]
    if students:
        summary["teacher_s"] = (median("teacher_s", plain_reps), len(plain_reps))
        summary["student_s"] = (statistics.median(students), len(students))
        summary["report_s"] = (median("report_s", plain_reps), len(plain_reps))

    if args.trace:
        if args.workload == "pilot-resume":
            ledger.check("trainer.steps is 0 on pilot-resume",
                         all(lay["trainer.steps"] == 0 for lay in layers),
                         f"steps {[lay['trainer.steps'] for lay in layers]}")
        for name in REPEATING_COUNTS:
            seen = {lay[name] for lay in layers}
            ledger.check(f"{name} repeats exactly", len(seen) == 1, f"values {sorted(seen)}")
        metrics = {name: statistics.median(lay[name] for lay in layers)
                   for name in layers[0]}
        metrics["corpus.train_nnz"] = wl.train_nnz
        metrics["corpus.train_active_cols"] = wl.train_active_cols
        metrics["trace_overhead_frac"] = (median("wall_s", traced_reps)
                                          / summary["wall_s"][0] - 1.0)
        tracer.write(spans_path)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        metrics = {name: summary[name][0] for name, *_ in END_TO_END}
        units = {name: unit for name, unit, *_ in END_TO_END}

    failed = len(ledger.failures)
    print_table(args, summary, metrics, units, ledger, plain_reps)
    return {
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def print_table(args, summary, metrics, units, ledger, reps) -> None:
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, n) in summary.items():
        unit = "MB" if name == "peak_rss_mb" else "s"
        print(f"  {name:<16} {value:12.4f} {unit:<6} median of {n}")
    frac = len(ledger.failures) / ledger.attempted
    print(f"  {'failed_frac':<16} {frac:12.4f} {'frac':<6} "
          f"{len(ledger.failures)} of {ledger.attempted} operations")
    if args.trace:
        for name, unit in units.items():
            print(f"  {name:<30} {metrics[name]:16.6g} {unit}")
    walls = " ".join(f"{r['wall_s']:.3f}" for r in reps)
    print(f"  wall_s per repetition: {walls}")
    print(f"  *.jsonl digest {reps[0]['digest']}")
    for failure in ledger.failures:
        print(f"  FAILED {failure}")


if __name__ == "__main__":
    sys.exit(main())
