"""Lloyd-style K-means over any DistanceSpec.

The assignment step uses the configured metric; the update step and the
reported objective are always the squared-Euclidean SSE against cluster
means. For metrics that are not strictly increasing functions of the squared
Euclidean distance (cityblock, chebyshev, general minkowski) the iteration
is a heuristic without a monotonicity guarantee, so termination relies on
the unchanged-assignment check and the iteration cap.

k-means++ seeding keeps each point's distance to its nearest chosen
centroid and folds in the n exact distances to each new centroid with
np.minimum. fit holds the data column-major, so each attribute's values
are contiguous for the metrics module's exact core and for the centroid
sums, and computes the row norms of assign's certificate once. Every step
gives bitwise the same result for data in any layout.

Everything is seeded and single-threaded, so a given (dataset, config)
always produces a bitwise-identical model.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .data import check_seed, json_text
from .metrics import DistanceSpec, nearest_centers, pairwise_distances, squared_norms

DEFAULT_SEED = 42

# converged-reason tags
STABLE_ASSIGNMENTS = "stable-assignments"
CENTROID_SHIFT = "centroid-shift"
MAX_ITER = "max-iter"


@dataclass(frozen=True)
class ClusteringConfig:
    """The settings of one fit, checked when built. A fit starts from
    initial_centroids when given (k finite rows; fit checks that they are as
    wide as the data), else from k-means++ seeding under the metric."""

    k: int
    metric: DistanceSpec = DistanceSpec("euclidean")
    seed: int = DEFAULT_SEED
    max_iter: int = 100
    shift_tol: float = 1e-9
    initial_centroids: np.ndarray | None = None

    def __post_init__(self) -> None:
        check_settings(self.k, (self.metric,), self.max_iter, self.shift_tol, self.seed)
        if self.initial_centroids is None:
            return
        ctr = np.asarray(self.initial_centroids, dtype=np.float64)
        if ctr.ndim != 2 or ctr.shape[0] != self.k:
            raise ValueError(
                f"initial_centroids must be a 2-D array of k = {self.k} rows, "
                f"got shape {ctr.shape}"
            )
        if not np.isfinite(ctr).all():
            raise ValueError("initial_centroids have a NaN or infinite entry")


@dataclass(frozen=True)
class ClusterModel:
    centroids: np.ndarray
    assignments: np.ndarray
    iterations_run: int
    converged_reason: str
    final_sse: float
    metric: DistanceSpec
    seed: int
    sse_per_iter: tuple[float, ...] = field(default=(), repr=False)

    @property
    def converged(self) -> bool:
        return self.converged_reason != MAX_ITER

    def to_json(self) -> str:
        return json_text(
            {
                "centroids": self.centroids.tolist(),
                "assignments": self.assignments.tolist(),
                "iterations": self.iterations_run,
                "converged": self.converged,
                "sse": self.final_sse,
                "seed": self.seed,
                "metric": self.metric.kind,
                "p": self.metric.p,
            }
        )


def check_count(name: str, value) -> None:
    """Reject a value that is not an integer >= 1; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def check_settings(k, metrics, max_iter, shift_tol, seed) -> None:
    """Reject a k, metric, max_iter, shift_tol or seed that no fit can run
    with, whatever the data; ClusteringConfig (with its one metric) and
    SweepPlan (with its grid) call it when built."""
    check_count("k", k)
    for metric in metrics:
        if not isinstance(metric, DistanceSpec):
            raise ValueError(f"a metric must be a DistanceSpec, got {metric!r}")
    check_count("max_iter", max_iter)
    if not (math.isfinite(shift_tol) and shift_tol >= 0):
        raise ValueError(f"shift_tol must be finite and >= 0, got {shift_tol}")
    check_seed(seed)


def init_centroids(dataset, config: ClusteringConfig) -> np.ndarray:
    """The k starting centroids of a fit: a float64 copy of
    config.initial_centroids when given, else k-means++ seeding."""
    data = np.asarray(dataset, dtype=np.float64)
    if data.ndim != 2 or 0 in data.shape:
        raise ValueError("dataset must be a non-empty 2-D array")
    if config.k > data.shape[0]:
        raise ValueError(f"k ({config.k}) exceeds dataset size ({data.shape[0]})")
    if config.initial_centroids is not None:
        ctr = np.array(config.initial_centroids, dtype=np.float64)
        if ctr.shape[1] != data.shape[1]:
            raise ValueError(
                f"initial_centroids have shape {ctr.shape} but the data has "
                f"shape {data.shape}: their widths differ"
            )
        return ctr

    # k-means++: D^2 weighting under the configured metric, by each point's
    # distance to its nearest chosen centroid so far
    rng = np.random.default_rng(config.seed)
    n = data.shape[0]
    chosen = np.empty(config.k, dtype=np.intp)
    chosen[0] = rng.integers(0, n)
    nearest = np.full(n, np.inf)
    for i in range(1, config.k):
        # an overflow, or the NaN it leads to, makes the total non-finite,
        # which is rejected below
        with np.errstate(over="ignore", invalid="ignore"):
            newest = pairwise_distances(config.metric, data, data[chosen[i - 1]][None])
            nearest = np.minimum(nearest, newest[:, 0])
            weights = nearest**2
            total = weights.sum()
        if not np.isfinite(total):
            raise ValueError(
                "k-means++ weights are not finite: the squared distances "
                "overflow float64; normalize the data"
            )
        if total > 0:
            chosen[i] = rng.choice(n, p=weights / total)
        else:
            chosen[i] = rng.integers(0, n)
    return data[chosen].copy()


def assign(dataset, centroids, metric: DistanceSpec, row_norms=None) -> np.ndarray:
    """Map each point to its nearest centroid; ties go to the lowest index.

    row_norms, if given, must be metrics.squared_norms(metric, dataset).
    """
    return nearest_centers(metric, dataset, centroids, row_norms)


def update_centroids(
    dataset, assignments, k: int, prev_centroids, metric: DistanceSpec
) -> np.ndarray:
    """Recompute each centroid as the mean of its assigned points.

    Points are accumulated in ascending point-index order so the result is
    independent of any caller-side partitioning. An empty cluster is
    re-seeded with the point farthest (under metric) from its centroid in
    prev_centroids; a ValueError asks for normalized data when those
    distances overflow.
    """
    data = np.asarray(dataset, dtype=np.float64)
    labels = np.asarray(assignments)
    if labels.shape[0] != data.shape[0]:
        raise ValueError("one assignment per point is required")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"assignments must lie in [0, {k})")
    columns = np.asfortranarray(data).T

    # each bin adds its points in index order from 0.0, as np.add.at does,
    # so the sums are bitwise the same; an overflow gives inf without a
    # warning, which the Lloyd loop's SSE check rejects
    cluster = labels.astype(np.intp, casting="same_kind")
    sums = np.empty((k, data.shape[1]))
    for t, column in enumerate(columns):
        sums[:, t] = np.bincount(cluster, weights=column, minlength=k)
    counts = np.bincount(cluster, minlength=k)

    centroids = np.empty_like(sums)
    for j in range(k):
        if counts[j] > 0:
            centroids[j] = sums[j] / counts[j]
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                d = pairwise_distances(metric, data, np.asarray(prev_centroids)[j : j + 1])
            if not np.isfinite(d).all():
                raise ValueError(
                    f"empty cluster {j} cannot be re-seeded: the distances to "
                    "its former centroid overflow float64; normalize the data"
                )
            centroids[j] = data[int(np.argmax(d[:, 0]))]
    return centroids


def sse(dataset, centroids, assignments) -> float:
    """Sum of squared Euclidean errors between points and their centroids.

    Always squared Euclidean, regardless of the metric used to fit.
    """
    data = np.asarray(dataset, dtype=np.float64)
    ctr = np.asarray(centroids, dtype=np.float64)
    labels = np.asarray(assignments)
    if labels.size and (labels.min() < 0 or labels.max() >= ctr.shape[0]):
        raise ValueError(f"assignments must lie in [0, {ctr.shape[0]})")
    # row-major residuals, so the sum adds them in one order for data in
    # any layout
    resid = ctr[labels]
    np.subtract(data, resid, out=resid)
    resid *= resid
    return float(np.sum(resid))


def fit(dataset, config: ClusteringConfig) -> ClusterModel:
    """Run Lloyd iterations until assignments stabilize, the maximum
    componentwise centroid shift drops to shift_tol, or max_iter is hit."""
    data = np.asfortranarray(dataset, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] == 0:
        raise ValueError("dataset must be a non-empty 2-D array")
    finite = np.isfinite(data)
    if not finite.all():
        row = int(np.argmin(finite.all(axis=1)))
        raise ValueError(f"row {row} of the dataset has a NaN or infinite entry")

    row_norms = squared_norms(config.metric, data)
    centroids = init_centroids(data, config)
    labels = None
    reason = MAX_ITER
    iterations = 0
    history: list[float] = []

    for _ in range(config.max_iter):
        iterations += 1
        new_labels = assign(data, centroids, config.metric, row_norms=row_norms)
        new_centroids = update_centroids(
            data, new_labels, config.k, prev_centroids=centroids, metric=config.metric
        )
        with np.errstate(over="ignore"):
            history.append(sse(data, new_centroids, new_labels))
        if not np.isfinite(history[-1]):
            raise ValueError("the SSE overflows float64; normalize the data")
        shift = float(np.max(np.abs(new_centroids - centroids)))
        stable = labels is not None and np.array_equal(new_labels, labels)
        labels, centroids = new_labels, new_centroids
        if stable:
            reason = STABLE_ASSIGNMENTS
            break
        if shift <= config.shift_tol:
            reason = CENTROID_SHIFT
            break

    if reason != MAX_ITER:
        # A run capped by max_iter may stop right after a reseed; a converged
        # one must not leave a cluster empty.
        empty = np.flatnonzero(np.bincount(labels, minlength=config.k) == 0)
        if empty.size:
            distinct = np.unique(data, axis=0).shape[0]
            raise ValueError(
                f"clusters {empty.tolist()} are empty at convergence: "
                f"the data has {distinct} distinct points for k = {config.k}"
            )

    return ClusterModel(
        centroids=centroids,
        assignments=labels,
        iterations_run=iterations,
        converged_reason=reason,
        final_sse=history[-1],
        metric=config.metric,
        seed=config.seed,
        sse_per_iter=tuple(history),
    )
