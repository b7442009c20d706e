"""Benchmark bookkeeping.

    python3 perfbench/collect.py spec
        write BENCHMARK.json at the repository root from catalog.py
    python3 perfbench/collect.py baseline [--first-seed 1] [--out FILE]
        run every workload untraced on RUNS seeds, then traced twice on the
        first seed and once on the next; print each end-to-end metric's median,
        quartiles and spread against its bound, flag counts and *.jsonl
        digests that fail to repeat, and write it all (with the machine) to
        FILE (default perfbench/baseline.json)
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import catalog

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {done.returncode}")
    digest = next(line.split()[-1] for line in lines if "*.jsonl digest" in line)
    result = json.loads(lines[-1])
    result.update(seed=seed, process_s=elapsed, digest=digest)
    return result


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "n": len(values), "values": values}


def machine() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform()}


def baseline(args) -> int:
    moves = {name: text for name, _, text in catalog.PER_LAYER}
    seeds = list(range(args.first_seed, args.first_seed + RUNS))
    report = {"machine": machine(), "run_seconds": catalog.RUN_SECONDS,
              "seeds": seeds, "workloads": {}}
    flags = []
    for name, why in catalog.WORKLOADS:
        plain = [run_once(name, s, catalog.RUN_SECONDS, 0) for s in seeds]
        traced = [run_once(name, s, catalog.RUN_SECONDS, 1)
                  for s in (seeds[0], seeds[0], seeds[0] + 1)]
        e2e = {}
        for metric, unit, _, bound in catalog.END_TO_END:
            stats = quartiles([r["metrics"][metric]["value"] for r in plain])
            stats.update(unit=unit, bound=bound)
            e2e[metric] = stats
            print(f"{name:<14} {metric:<12} median {stats['median']:10.4f} {unit:<3} "
                  f"q1 {stats['q1']:10.4f} q3 {stats['q3']:10.4f} "
                  f"spread {stats['spread']:.4f} (bound {bound})")
        layer = {m: {"value": v["value"], "unit": v["unit"], "moves": moves[m]}
                 for m, v in traced[0]["metrics"].items()}
        repeats = {}
        for metric in catalog.REPEATING_COUNTS:
            same_seed = {r["metrics"][metric]["value"] for r in traced[:2]}
            all_seeds = {r["metrics"][metric]["value"] for r in traced}
            ok = len(same_seed) == 1 and (
                metric in catalog.SEED_DEPENDENT_COUNTS or len(all_seeds) == 1)
            repeats[metric] = {"repeats": ok, "values": [r["metrics"][metric]["value"]
                                                         for r in traced]}
            if not ok:
                flags.append(f"{name}: {metric} differs {repeats[metric]['values']}")
        # Plain and traced runs of one seed must write the same artifacts.
        digests = {}
        for r in plain + traced:
            digests.setdefault(str(r["seed"]), set()).add(r["digest"])
        for seed, seen in digests.items():
            if len(seen) > 1:
                flags.append(f"{name}: seed {seed} *.jsonl digests differ {sorted(seen)}")
        selfs = {m: layer[f"{m}.self_s"]["value"] for m in catalog.MODULES}
        report["workloads"][name] = {
            "why": why,
            "end_to_end": e2e,
            "per_layer": layer,
            "largest_self_time": max(selfs, key=selfs.get),
            "counts_repeat": repeats,
            "digests": {seed: sorted(seen) for seed, seen in digests.items()},
            "attempted": [r["attempted"] for r in plain],
            "process_s": [r["process_s"] for r in plain + traced],
        }
        print(f"{name:<14} largest self time: {max(selfs, key=selfs.get)}; "
              f"mean process {statistics.mean(report['workloads'][name]['process_s']):.1f} s")
    for flag in flags:
        print(f"FLAG {flag}")
    report["flags"] = flags
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 1 if flags else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("spec")
    p = sub.add_parser("baseline")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args()
    if args.command == "spec":
        text = json.dumps(catalog.spec(), indent=2) + "\n"
        (ROOT / "BENCHMARK.json").write_text(text, encoding="utf-8")
        return 0
    return baseline(args)


if __name__ == "__main__":
    sys.exit(main())
