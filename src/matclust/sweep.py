"""Experiment harness: p-grid sweeps, cross-metric comparison, figure data.

Instance subsets are deterministic prefixes of the dataset after one seeded
shuffle at load time (recorded in the result), so the size-1000 instance is
literally the first 1000 rows of the size-2000 instance. Every cell reuses
the same base seed; differences between cells therefore reflect only the
metric, the parameter p, and the instance size.

Cells are independent and may run in parallel; rows are ordered by plan
position, never by completion time, so output files are byte-identical for
any worker count.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import csv_text, json_text, save_report
from .evaluate import OutlierPolicy, evaluate, table_header
from .kmeans import DEFAULT_SEED, INIT_KMEANS_PP, ClusteringConfig, check_settings, fit
from .metrics import DSD, MINKOWSKI, DistanceSpec, validate_spec

# p grid and instance sizes used by default
DEFAULT_P_GRID = (1.0, 1.2, 1.34, 1.42, 1.45, 1.5, 1.523, 1.55, 1.56, 3.0)
DEFAULT_INSTANCE_SIZES = (1000, 2000, 3000, 4000, 5097)

# comparison-mode metric order; dsd runs at its recommended operating point
DEFAULT_COMPARISON_METRICS = (
    DistanceSpec(MINKOWSKI, 1.5),
    DistanceSpec("cityblock"),
    DistanceSpec("euclidean"),
    DistanceSpec("sqeuclidean"),
    DistanceSpec("chebyshev"),
    DistanceSpec(DSD, 1.523),
)

DSD_OPERATING_P = 1.523


@dataclass(frozen=True)
class SweepPlan:
    p_values: tuple[float, ...] = DEFAULT_P_GRID
    instance_sizes: tuple[int, ...] = DEFAULT_INSTANCE_SIZES
    k: int = 3
    metrics: tuple[DistanceSpec, ...] = DEFAULT_COMPARISON_METRICS
    seed: int = DEFAULT_SEED
    policy: OutlierPolicy = OutlierPolicy()
    init: str = INIT_KMEANS_PP
    max_iter: int = 100
    shift_tol: float = 1e-9
    jobs: int = 1

    def validate(self, n_points: int) -> "SweepPlan":
        if not self.instance_sizes:
            raise ValueError("at least one instance size is required")
        prev = 0
        for size in self.instance_sizes:
            if size < prev:
                raise ValueError(
                    f"instance sizes must be non-decreasing, got {self.instance_sizes}"
                )
            prev = size
        if prev > n_points:
            raise ValueError(
                f"largest instance size ({prev}) exceeds dataset size ({n_points})"
            )
        for p in self.p_values:
            validate_spec(DistanceSpec(DSD, p))
        for m in self.metrics:
            validate_spec(m)
        check_settings(self.k, self.init, self.max_iter, self.shift_tol)
        if self.k > min(self.instance_sizes):
            raise ValueError(
                f"k ({self.k}) exceeds the smallest instance size "
                f"({min(self.instance_sizes)})"
            )
        self.policy.validate()
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        return self


@dataclass(frozen=True)
class SweepRow:
    metric: str
    p: float | None
    instance_size: int
    per_cluster_counts: tuple[int, ...]
    accuracy_pct: float
    outlier_pct: float
    iterations: int
    wall_ms: float
    seed: int


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    mode: str  # "p-sweep" or "metric-comparison"
    plan: SweepPlan

    def to_csv(self) -> str:
        """Full result table; deterministic for a given (plan, dataset, seed).

        Wall-clock time varies run to run, so it lives in to_json() only and
        is deliberately left out of this byte-reproducible rendering.
        """
        rows = [
            (r.metric, r.p, r.instance_size, *r.per_cluster_counts,
             r.accuracy_pct, r.outlier_pct, r.seed)
            for r in self.rows
        ]
        return csv_text(table_header(self.plan.k), rows)

    def to_json(self) -> str:
        return json_text(
            {
                "mode": self.mode,
                "shuffle_seed": self.plan.seed,
                "plan": {
                    "p_values": list(self.plan.p_values),
                    "instance_sizes": list(self.plan.instance_sizes),
                    "k": self.plan.k,
                    "metrics": [[m.kind, m.p] for m in self.plan.metrics],
                    "seed": self.plan.seed,
                    "policy": self.plan.policy.kind,
                    "init": self.plan.init,
                    "max_iter": self.plan.max_iter,
                    "shift_tol": self.plan.shift_tol,
                },
                "rows": [
                    {
                        "metric": r.metric,
                        "p": r.p,
                        "instance_size": r.instance_size,
                        "per_cluster_counts": list(r.per_cluster_counts),
                        "accuracy_pct": r.accuracy_pct,
                        "outlier_pct": r.outlier_pct,
                        "iterations": r.iterations,
                        "wall_ms": r.wall_ms,
                        "seed": r.seed,
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
    subset = data[:size]
    config = ClusteringConfig(
        k=plan.k,
        metric=spec,
        init=plan.init,
        seed=plan.seed,
        max_iter=plan.max_iter,
        shift_tol=plan.shift_tol,
    )
    start = time.perf_counter()
    model = fit(subset, config)
    report = evaluate(subset, model, plan.policy)
    wall_ms = (time.perf_counter() - start) * 1000.0
    return SweepRow(
        metric=spec.kind,
        p=spec.p,
        instance_size=size,
        per_cluster_counts=report.per_cluster_counts,
        accuracy_pct=report.cluster_accuracy_pct,
        outlier_pct=report.outlier_pct,
        iterations=model.iterations_run,
        wall_ms=wall_ms,
        seed=plan.seed,
    )


def _run_grid(data: np.ndarray, plan: SweepPlan, specs, mode: str) -> SweepResult:
    cells = [(spec, size) for spec in specs for size in plan.instance_sizes]
    if plan.jobs > 1 and len(cells) > 1:
        with ThreadPoolExecutor(max_workers=plan.jobs) as pool:
            rows = list(pool.map(lambda c: _run_cell(data, plan, *c), cells))
    else:
        rows = [_run_cell(data, plan, *cell) for cell in cells]
    return SweepResult(rows=tuple(rows), mode=mode, plan=plan)


def run_p_sweep(plan: SweepPlan, points) -> SweepResult:
    """Fit dsd(p) for every (p, instance size) cell; rows p-major."""
    data = np.asarray(points, dtype=np.float64)
    plan.validate(data.shape[0])
    if not plan.p_values:
        raise ValueError("p-sweep requires at least one p value")
    shuffled = shuffle_dataset(data, plan.seed)
    specs = [DistanceSpec(DSD, p) for p in plan.p_values]
    return _run_grid(shuffled, plan, specs, "p-sweep")


def run_metric_comparison(plan: SweepPlan, points) -> SweepResult:
    """Fit every metric kind on every instance size; rows metric-major."""
    data = np.asarray(points, dtype=np.float64)
    plan.validate(data.shape[0])
    if not plan.metrics:
        raise ValueError("metric comparison requires at least one metric")
    shuffled = shuffle_dataset(data, plan.seed)
    return _run_grid(shuffled, plan, plan.metrics, "metric-comparison")


def emit_figure_data(result: SweepResult, out_dir) -> list[str]:
    """Write plot-ready CSV series at the largest instance size.

    p-sweep results yield fig3.csv (p, accuracy, outlier); comparison
    results yield fig4.csv (metric, outlier) and fig5.csv (metric, accuracy).
    Every table is rendered before any file is written. Returns the paths
    written.
    """
    if not result.rows:
        raise ValueError("cannot emit figure data from an empty result")
    largest = max(r.instance_size for r in result.rows)
    rows = [r for r in result.rows if r.instance_size == largest]
    if result.mode == "p-sweep":
        tables = {
            "fig3.csv": csv_text(
                ["p", "accuracy_pct", "outlier_pct"],
                [(r.p, r.accuracy_pct, r.outlier_pct) for r in rows],
            )
        }
    else:
        tables = {
            "fig4.csv": csv_text(
                ["metric", "outlier_pct"], [(r.metric, r.outlier_pct) for r in rows]
            ),
            "fig5.csv": csv_text(
                ["metric", "accuracy_pct"], [(r.metric, r.accuracy_pct) for r in rows]
            ),
        }
    written = [str(Path(out_dir) / name) for name in tables]
    for path, text in zip(written, tables.values()):
        save_report(text, path)
    return written
