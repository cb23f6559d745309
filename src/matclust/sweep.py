"""Experiment harness: one grid of distance specs x instance sizes, and
its figure data. A SweepPlan holds the specs it runs, in row order; a grid
of dsd specs only is a p-sweep (Fig. 3), any other a metric comparison
(Figs. 4-5). run_sweep fits either, and plan.mode names which.

Instance subsets are deterministic prefixes of the dataset after one seeded
shuffle at load time (recorded in the result), so the size-1000 instance is
literally the first 1000 rows of the size-2000 instance. Each cell hands
its prefix, a view of the shuffled data, to fit and to evaluate, and the
sweep copies no cell's data itself: fit makes its one column-major copy
and frees it before evaluate reads the view. Every cell reuses
the same base seed and k-means++ seeding; differences between cells
therefore reflect only the metric, the parameter p, and the instance size.

Cells are independent and may run in parallel; rows are ordered by plan
position, never by completion time, so output files are byte-identical for
any worker count. A cell that runs on one of the sweep's workers does not
split its distance passes over the CPUs again: the metrics module splits
a pass only on the main thread. Each row holds its cell's
EvaluationReport, and sweep.csv renders it with the same function as
report.csv. A SweepPlan checks its settings when built, as its specs,
policy and configs do, and rejects a repeated spec or instance size, so
each cell runs once; only the largest instance size waits for the data.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import check_count, csv_text, json_text, save_report
from .evaluate import EvaluationReport, OutlierPolicy, evaluate, table_csv
from .kmeans import DEFAULT_SEED, ClusteringConfig, _check_dataset, fit
from .metrics import DSD, MINKOWSKI, DistanceSpec

# p grid and instance sizes used by default
DEFAULT_P_GRID = (1.0, 1.2, 1.34, 1.42, 1.45, 1.5, 1.523, 1.55, 1.56, 3.0)
DEFAULT_INSTANCE_SIZES = (1000, 2000, 3000, 4000, 5097)

DSD_OPERATING_P = 1.523

# comparison-mode metric order; dsd runs at its recommended operating point
DEFAULT_COMPARISON_METRICS = (
    DistanceSpec(MINKOWSKI, 1.5),
    DistanceSpec("cityblock"),
    DistanceSpec("euclidean"),
    DistanceSpec("sqeuclidean"),
    DistanceSpec("chebyshev"),
    DistanceSpec(DSD, DSD_OPERATING_P),
)


@dataclass(frozen=True)
class SweepPlan:
    """The grid, metrics x instance_sizes, and the settings of every cell.

    metrics and instance_sizes must each be a list or tuple, and are stored
    as tuples, so the grid that was checked is the grid that runs."""

    metrics: tuple[DistanceSpec, ...] = DEFAULT_COMPARISON_METRICS
    instance_sizes: tuple[int, ...] = DEFAULT_INSTANCE_SIZES
    k: int = 3
    seed: int = DEFAULT_SEED
    policy: OutlierPolicy = OutlierPolicy()
    max_iter: int = 100
    jobs: int = 1

    def __post_init__(self) -> None:
        for name in ("metrics", "instance_sizes"):
            grid = getattr(self, name)
            if not isinstance(grid, (list, tuple)):
                raise ValueError(f"{name} must be a list or tuple, got {grid!r}")
            object.__setattr__(self, name, tuple(grid))
        if not self.metrics:
            raise ValueError("at least one metric is required")
        sizes = self.instance_sizes
        if not sizes:
            raise ValueError("at least one instance size is required")
        for size in sizes:
            check_count("instance size", size)
        if any(later < size for size, later in zip(sizes, sizes[1:])):
            raise ValueError(f"instance sizes must be non-decreasing, got {sizes}")
        size = _first_repeat(sizes)
        if size is not None:
            raise ValueError(f"instance size {size} is repeated in {sizes}")
        for spec in self.metrics:
            ClusteringConfig(self.k, metric=spec, seed=self.seed, max_iter=self.max_iter)
        spec = _first_repeat(self.metrics)
        if spec is not None:
            raise ValueError(f"metric {spec!r} is repeated in the grid")
        if self.k > min(sizes):
            raise ValueError(
                f"k ({self.k}) exceeds the smallest instance size ({min(sizes)})"
            )
        check_count("jobs", self.jobs)
        if not isinstance(self.policy, OutlierPolicy):
            raise ValueError(f"a policy must be an OutlierPolicy, got {self.policy!r}")

    @property
    def mode(self) -> str:
        """The experiment: a p-sweep when every spec is dsd, else a metric comparison."""
        return "p-sweep" if all(m.kind == DSD for m in self.metrics) else "metric-comparison"


def _first_repeat(values):
    """The first value that occurs earlier in values, or None."""
    seen = set()
    for value in values:
        if value in seen:
            return value
        seen.add(value)
    return None


@dataclass(frozen=True)
class SweepRow:
    """One cell: its report (whose total is the instance size), the fit's
    iteration count and the cell's wall time."""

    report: EvaluationReport
    iterations: int
    wall_ms: float


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    plan: SweepPlan

    def to_csv(self) -> str:
        """Full result table; deterministic for a given (plan, dataset, seed).

        Wall-clock time varies run to run, so it lives in to_json() only and
        is deliberately left out of this byte-reproducible rendering.
        """
        return table_csv(self.plan.k, [r.report for r in self.rows])

    def to_json(self) -> str:
        return json_text(
            {
                "mode": self.plan.mode,
                "shuffle_seed": self.plan.seed,
                "plan": {
                    "instance_sizes": list(self.plan.instance_sizes),
                    "k": self.plan.k,
                    "metrics": [[m.kind, m.p] for m in self.plan.metrics],
                    "seed": self.plan.seed,
                    "policy": self.plan.policy.kind,
                    "init": "kmeans-plus-plus",
                    "max_iter": self.plan.max_iter,
                },
                "rows": [
                    {
                        "metric": r.report.metric,
                        "p": r.report.p,
                        "instance_size": r.report.total,
                        "per_cluster_counts": list(r.report.per_cluster_counts),
                        "accuracy_pct": r.report.cluster_accuracy_pct,
                        "outlier_pct": r.report.outlier_pct,
                        "iterations": r.iterations,
                        "wall_ms": r.wall_ms,
                        "seed": r.report.seed,
                    }
                    for r in self.rows
                ],
            }
        )


def shuffle_dataset(points, seed: int) -> np.ndarray:
    """The single seeded shuffle applied before prefix slicing."""
    data = np.asarray(points, dtype=np.float64)
    order = np.random.default_rng(seed).permutation(data.shape[0])
    return data[order]


def _run_cell(data: np.ndarray, plan: SweepPlan, spec: DistanceSpec, size: int) -> SweepRow:
    config = ClusteringConfig(k=plan.k, metric=spec, seed=plan.seed, max_iter=plan.max_iter)
    start = time.perf_counter()
    subset = data[:size]
    model = fit(subset, config)
    report = evaluate(subset, model, plan.policy)
    wall_ms = (time.perf_counter() - start) * 1000.0
    return SweepRow(report=report, iterations=model.iterations_run, wall_ms=wall_ms)


def run_sweep(plan: SweepPlan, points) -> SweepResult:
    """Check every row and the largest instance size against the points,
    shuffle them once and fit every (spec, size) cell; rows follow
    plan.metrics, each over every instance size."""
    data = np.asarray(points, dtype=np.float64)
    _check_dataset(data)
    if plan.instance_sizes[-1] > data.shape[0]:
        raise ValueError(
            f"largest instance size ({plan.instance_sizes[-1]}) exceeds dataset "
            f"size ({data.shape[0]})"
        )
    data = shuffle_dataset(data, plan.seed)
    cells = [(spec, size) for spec in plan.metrics for size in plan.instance_sizes]
    if plan.jobs > 1 and len(cells) > 1:
        with ThreadPoolExecutor(max_workers=plan.jobs) as pool:
            rows = list(pool.map(lambda c: _run_cell(data, plan, *c), cells))
    else:
        rows = [_run_cell(data, plan, *cell) for cell in cells]
    return SweepResult(rows=tuple(rows), plan=plan)


def emit_figure_data(result: SweepResult, out_dir) -> list[str]:
    """Write plot-ready CSV series at the largest instance size.

    A p-sweep yields fig3.csv (p, accuracy, outlier); a comparison yields
    fig4.csv (metric, outlier) and fig5.csv (metric, accuracy).
    Every table is rendered before any file is written. Returns the paths
    written.
    """
    if not result.rows:
        raise ValueError("cannot emit figure data from an empty result")
    largest = max(r.report.total for r in result.rows)
    reports = [r.report for r in result.rows if r.report.total == largest]
    if result.plan.mode == "p-sweep":
        tables = {
            "fig3.csv": csv_text(
                ["p", "accuracy_pct", "outlier_pct"],
                [(r.p, r.cluster_accuracy_pct, r.outlier_pct) for r in reports],
            )
        }
    else:
        tables = {
            "fig4.csv": csv_text(
                ["metric", "outlier_pct"], [(r.metric, r.outlier_pct) for r in reports]
            ),
            "fig5.csv": csv_text(
                ["metric", "accuracy_pct"], [(r.metric, r.cluster_accuracy_pct) for r in reports]
            ),
        }
    written = [str(Path(out_dir) / name) for name in tables]
    for path, text in zip(written, tables.values()):
        save_report(text, path)
    return written
