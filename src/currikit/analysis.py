"""Statistics and reporting.

Spearman rank correlations between difficulty metrics, the approximate-
randomization significance test, data-map export (confidence vs variability
scatter), learning-curve assembly across seeds, and time-to-best ratios.
Plots are small hand-written SVG documents; no plotting dependency.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import atomic_open, write_json, write_text
from .corpus import NOISY_SUFFIX
from .dynamics import TDStats
from .trainer import RunLog


def rank_average_ties(values) -> np.ndarray:
    """1-based ranks with ties sharing their average rank."""
    a = np.asarray(values, dtype=np.float64).reshape(-1)
    order = np.argsort(a, kind="mergesort")
    ranks = np.empty(a.size, dtype=np.float64)
    i = 0
    while i < a.size:
        j = i
        while j + 1 < a.size and a[order[j + 1]] == a[order[i]]:
            j += 1
        ranks[order[i: j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman(xs, ys) -> float:
    """Spearman rho: average-rank the inputs, then Pearson-correlate the
    rank vectors. Constant input on either side is an error (rho undefined)."""
    x = np.asarray(xs, dtype=np.float64).reshape(-1)
    y = np.asarray(ys, dtype=np.float64).reshape(-1)
    if x.size == 0 or x.size != y.size:
        raise ValueError(f"need equal nonzero lengths, got {x.size} and {y.size}")
    rx = rank_average_ties(x)
    ry = rank_average_ties(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = math.sqrt(float(np.sum(rx * rx)) * float(np.sum(ry * ry)))
    if denom == 0.0:
        raise ValueError("spearman is undefined for constant input")
    return float(np.sum(rx * ry) / denom)


@dataclass
class CorrelationMatrix:
    names: list[str]
    rho: list[list[float]]  # symmetric, unit diagonal

    def to_json(self) -> dict:
        return {"metrics": self.names, "spearman": self.rho}


def correlation_matrix(metric_scores: dict[str, dict[str, float]]) -> CorrelationMatrix:
    """Pairwise Spearman between metrics, aligned on their common example
    ids."""
    names = list(metric_scores)
    if len(names) < 2:
        raise ValueError("need at least two metrics to correlate")
    common = set(metric_scores[names[0]])
    for name in names[1:]:
        common &= set(metric_scores[name])
    ids = sorted(common)
    if len(ids) < 3:
        raise ValueError("fewer than 3 shared example ids across metrics")
    columns = {name: [metric_scores[name][eid] for eid in ids] for name in names}
    n = len(names)
    rho = [[1.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            r = spearman(columns[names[i]], columns[names[j]])
            rho[i][j] = rho[j][i] = r
    return CorrelationMatrix(names=names, rho=rho)


def approx_randomization(
    outcomes_a: dict, outcomes_b: dict, rounds: int = 10000, seed: int = 0
) -> float:
    """Approximate-randomization p-value for paired binary per-unit outcomes.

    Units are arbitrary hashable keys (typically (example_id, seed) pairs,
    pooling all seeds). The statistic is |#correct(a) - #correct(b)|; each
    round swaps the two systems' outcomes per unit with probability 0.5;
    p = (#rounds with statistic >= observed + 1) / (rounds + 1).

    Only the k discordant units (exactly one system correct) can move the
    statistic, and swapping them at random gives |2 * Binomial(k, 1/2) - k|,
    so each round is one binomial draw: O(rounds) time and memory whatever
    the unit count. The draw depends only on k, so equal-seed calls are
    exactly symmetric in (a, b).
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if outcomes_a.keys() != outcomes_b.keys():
        raise ValueError("outcome unit sets differ between the two systems")
    if not outcomes_a:
        raise ValueError("no units to test")
    a_only = sum(1 for u, a in outcomes_a.items() if a and not outcomes_b[u])
    b_only = sum(1 for u, b in outcomes_b.items() if b and not outcomes_a[u])
    k = a_only + b_only
    swapped = np.random.default_rng(seed).binomial(k, 0.5, size=rounds)
    hits = int(np.count_nonzero(np.abs(2 * swapped - k) >= abs(a_only - b_only)))
    return (hits + 1) / (rounds + 1)


# --- data maps --------------------------------------------------------------


@dataclass
class DataMapPoint:
    example_id: str
    variability: float  # x
    confidence: float   # y
    correctness: int    # legend group
    noisy: bool


_PALETTE = [
    "#4c72b0", "#dd8452", "#55a868", "#c44e52", "#8172b3", "#937860",
    "#da8bc3", "#8c8c8c", "#ccb974", "#64b5cd", "#2f4b7c", "#f95d6a",
]

_SVG_W, _SVG_H = 640, 480
_ML, _MR, _MT, _MB = 60, 150, 20, 50


def _scatter_svg(points: list[DataMapPoint]) -> str:
    # Fixed axes: variability in [0, 0.5], confidence in [0, 1]; a point at
    # (0.0, 1.0) therefore lands at the top-left corner of the plot area.
    plot_w = _SVG_W - _ML - _MR
    plot_h = _SVG_H - _MT - _MB

    def sx(v):
        return _ML + plot_w * min(max(v, 0.0), 0.5) / 0.5

    def sy(c):
        return _MT + plot_h * (1.0 - min(max(c, 0.0), 1.0))

    groups = sorted({p.correctness for p in points})
    color = {g: _PALETTE[i % len(_PALETTE)] for i, g in enumerate(groups)}
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<line x1="{_ML}" y1="{_MT + plot_h}" x2="{_ML + plot_w}" '
        f'y2="{_MT + plot_h}" stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_MT + plot_h}" stroke="black"/>',
    ]
    for k in range(6):
        xv = 0.5 * k / 5
        yv = k / 5
        lines.append(
            f'<text x="{sx(xv):.1f}" y="{_MT + plot_h + 18}" font-size="11" '
            f'text-anchor="middle">{xv:.1f}</text>'
        )
        lines.append(
            f'<text x="{_ML - 8}" y="{sy(yv):.1f}" font-size="11" '
            f'text-anchor="end" dominant-baseline="middle">{yv:.1f}</text>'
        )
    lines.append(
        f'<text x="{_ML + plot_w / 2:.1f}" y="{_SVG_H - 12}" font-size="13" '
        f'text-anchor="middle">variability</text>'
    )
    lines.append(
        f'<text x="16" y="{_MT + plot_h / 2:.1f}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 16 {_MT + plot_h / 2:.1f})">confidence</text>'
    )
    for p in points:
        lines.append(
            f'<circle cx="{sx(p.variability):.2f}" cy="{sy(p.confidence):.2f}" '
            f'r="2.5" fill="{color[p.correctness]}" fill-opacity="0.7"/>'
        )
    ly = _MT + 10
    lines.append(
        f'<text x="{_ML + plot_w + 16}" y="{ly}" font-size="12">correctness</text>'
    )
    for g in groups:
        ly += 16
        lines.append(
            f'<rect x="{_ML + plot_w + 16}" y="{ly - 9}" width="10" height="10" '
            f'fill="{color[g]}"/>'
        )
        lines.append(
            f'<text x="{_ML + plot_w + 31}" y="{ly}" font-size="12">{g}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def datamap_export(
    td_stats: dict[str, TDStats], out_dir: str | Path, stem: str = "datamap"
) -> tuple[Path, Path]:
    """Write <stem>.csv and a static <stem>.svg scatter (x = variability,
    y = confidence, color = correctness). Rows sorted by example id."""
    out_dir = Path(out_dir)
    points = [
        DataMapPoint(
            example_id=eid,
            variability=td_stats[eid].variability,
            confidence=td_stats[eid].confidence,
            correctness=td_stats[eid].correctness,
            noisy=eid.endswith(NOISY_SUFFIX),
        )
        for eid in sorted(td_stats)
    ]
    csv_path = out_dir / f"{stem}.csv"
    with atomic_open(csv_path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["example_id", "variability", "confidence",
                         "correctness", "noisy"])
        writer.writerows([p.example_id, repr(p.variability), repr(p.confidence),
                          p.correctness, str(p.noisy).lower()] for p in points)
    svg_path = out_dir / f"{stem}.svg"
    write_text(svg_path, _scatter_svg(points))
    return csv_path, svg_path


# --- time ratios and learning curves ----------------------------------------


def time_ratio(best_a: int, best_baseline: int) -> float:
    """Steps system A needed to reach its best checkpoint, relative to the
    baseline's."""
    if best_baseline == 0:
        raise ValueError("baseline has best_step 0; no ratio defined")
    return best_a / best_baseline


def aggregate_time_ratios(
    best_a: list[int], best_baseline: list[int]
) -> dict[str, float]:
    """Per-seed best-step ratios (paired by position) reduced to mean and min."""
    if len(best_a) != len(best_baseline) or not best_a:
        raise ValueError("need the same nonzero number of best steps per system")
    ratios = [time_ratio(a, b) for a, b in zip(best_a, best_baseline)]
    return {"mean": float(np.mean(ratios)), "min": float(min(ratios))}


def learning_curve(
    logs: list[RunLog],
    metric: str = "accuracy",
    split: str = "validation",
    out_csv: str | Path | None = None,
    out_svg: str | Path | None = None,
) -> list[tuple[int, float, float]]:
    """Per-step mean and population std of a logged metric across seeds.

    All logs must share the evaluation-step grid exactly. Optionally emits
    CSV and an SVG line plot.
    """
    if not logs:
        raise ValueError("no run logs given")
    series = []
    for log in logs:
        series.append(
            [(s, v) for (s, sp, m, v) in log.records if sp == split and m == metric]
        )
    grid = [s for s, _ in series[0]]
    for k, seq in enumerate(series[1:], start=2):
        other = [s for s, _ in seq]
        if other != grid:
            n = min(len(grid), len(other))
            for i in range(n):
                if grid[i] != other[i]:
                    raise ValueError(
                        f"evaluation grids diverge at step {grid[i]} vs "
                        f"{other[i]} (log 1 vs log {k})"
                    )
            raise ValueError(
                f"evaluation grids diverge in length ({len(grid)} vs "
                f"{len(other)}) after step {grid[n - 1] if n else 0}"
            )
    values = np.array([[v for _, v in seq] for seq in series])
    rows = [
        (grid[i], float(values[:, i].mean()), float(values[:, i].std()))
        for i in range(len(grid))
    ]
    if out_csv is not None:
        with atomic_open(out_csv, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "mean", "std"])
            writer.writerows([step, repr(mean), repr(std)] for step, mean, std in rows)
    if out_svg is not None:
        write_text(out_svg, _curve_svg(rows, f"{split} {metric}"))
    return rows


def _curve_svg(rows: list[tuple[int, float, float]], label: str) -> str:
    plot_w = _SVG_W - _ML - 40
    plot_h = _SVG_H - _MT - _MB
    xs = [r[0] for r in rows]
    lo = min(r[1] - r[2] for r in rows)
    hi = max(r[1] + r[2] for r in rows)
    if hi == lo:
        lo, hi = lo - 0.5, hi + 0.5
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    x0, x1 = min(xs), max(xs)
    if x0 == x1:
        x0, x1 = x0 - 1, x1 + 1

    def sx(s):
        return _ML + plot_w * (s - x0) / (x1 - x0)

    def sy(v):
        return _MT + plot_h * (1.0 - (v - lo) / (hi - lo))

    def path(points):
        return " ".join(f"{sx(s):.2f},{sy(v):.2f}" for s, v in points)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<line x1="{_ML}" y1="{_MT + plot_h}" x2="{_ML + plot_w}" '
        f'y2="{_MT + plot_h}" stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_MT + plot_h}" stroke="black"/>',
        f'<text x="{_ML + plot_w / 2:.1f}" y="{_SVG_H - 12}" font-size="13" '
        f'text-anchor="middle">step</text>',
        f'<text x="16" y="{_MT + plot_h / 2:.1f}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 16 {_MT + plot_h / 2:.1f})">{label}</text>',
    ]
    for k in range(6):
        sv = x0 + (x1 - x0) * k / 5
        vv = lo + (hi - lo) * k / 5
        lines.append(
            f'<text x="{sx(sv):.1f}" y="{_MT + plot_h + 18}" font-size="11" '
            f'text-anchor="middle">{sv:.0f}</text>'
        )
        lines.append(
            f'<text x="{_ML - 8}" y="{sy(vv):.1f}" font-size="11" text-anchor="end" '
            f'dominant-baseline="middle">{vv:.3f}</text>'
        )
    band_hi = path([(s, m + sd) for s, m, sd in rows])
    band_lo = path([(s, m - sd) for s, m, sd in rows])
    mean = path([(s, m) for s, m, _ in rows])
    lines.append(f'<polyline points="{band_hi}" fill="none" stroke="#a6c8e8" '
                 f'stroke-dasharray="3,3"/>')
    lines.append(f'<polyline points="{band_lo}" fill="none" stroke="#a6c8e8" '
                 f'stroke-dasharray="3,3"/>')
    lines.append(f'<polyline points="{mean}" fill="none" stroke="#4c72b0" '
                 f'stroke-width="1.5"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def write_correlations(matrix: CorrelationMatrix, path: str | Path) -> None:
    write_json(path, matrix.to_json())
