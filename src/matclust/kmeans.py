"""Lloyd-style K-means over any DistanceSpec.

The assignment step uses the configured metric; the update step and the
reported objective are always the squared-Euclidean SSE against cluster
means. For metrics that are not strictly increasing functions of the squared
Euclidean distance (cityblock, chebyshev, general minkowski) the iteration
is a heuristic without a monotonicity guarantee, so termination relies on
the unchanged-assignment check and the iteration cap.

k-means++ seeding keeps each point's distance to its nearest chosen
centroid and folds in the n exact distances to each new centroid with
np.minimum; it needs every exact distance, so it has no ranking. fit
holds the data column-major, so each attribute's values are contiguous
for the metrics module's exact core and for the centroid sums. fit is
the one place that makes that copy: data that is column-major already, as
normalize.transform returns it, is not copied, and the CLI's
--no-normalize input and each sweep cell's prefix of the shuffled data
come in row-major. fit computes the row norms of assign's
certificate once: |x|^2 for the euclidean family, the l1 norm for the
other kinds. The residuals x - c of each point and its centroid come
from one pass, residual_blocks, a row block at a time: the SSE is the sum
of their squares, and evaluate's outlier profile takes each point's
distance to its own centroid from them. Every step gives bitwise the same
result for data in any layout. Row-major data costs one column-major
copy in fit; seeding, assignment, the update step and the SSE read the
data as given, so assign called on its own copies none of its input.
No step holds any other n x d float64 temporary.

Each number is stored once: a ClusterModel derives final_sse and
iterations_run from its sse_per_iter and converged flag, and
update_centroids takes k from the centroids it updates.

Everything is seeded. When fit runs on the main thread, every pass over
data of two or more row blocks splits over the usable CPUs, and on any
other thread it runs whole (metrics.in_ranges). The distance passes of
seeding and assignment split by rows, and each block writes only its own
rows. The update step splits its per-column sums into metrics.even_cuts
of the columns, and each column is summed in point order whatever the
split. The SSE splits by rows: each range computes its points' squared
distances on their own, and the calling thread adds the n of them. So
every distance, label, centroid and SSE is bitwise the same for any
split, and a given (dataset, config) always produces a
bitwise-identical model, whatever the number of CPUs or sweep workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import check_count, check_seed, json_text
from .metrics import (
    DistanceSpec,
    _point_arrays,
    _row_sum,
    block_rows,
    certificate_norms,
    even_cuts,
    in_ranges,
    nearest_centers,
    pairwise_distances,
)

DEFAULT_SEED = 42


@dataclass(frozen=True)
class ClusteringConfig:
    """The settings of one fit, checked when built. A fit starts from
    initial_centroids when given (k finite rows, kept as a read-only float64
    copy; fit checks them against the data), else from k-means++ seeding
    under the metric."""

    k: int
    metric: DistanceSpec = DistanceSpec("euclidean")
    seed: int = DEFAULT_SEED
    max_iter: int = 100
    initial_centroids: np.ndarray | None = None

    def __post_init__(self) -> None:
        check_count("k", self.k)
        if not isinstance(self.metric, DistanceSpec):
            raise ValueError(f"a metric must be a DistanceSpec, got {self.metric!r}")
        check_count("max_iter", self.max_iter)
        check_seed(self.seed)
        if self.initial_centroids is None:
            return
        ctr = np.array(self.initial_centroids, dtype=np.float64)
        if ctr.ndim != 2 or ctr.shape[0] != self.k:
            raise ValueError(
                f"initial_centroids must be a 2-D array of k = {self.k} rows, "
                f"got shape {ctr.shape}"
            )
        if not np.isfinite(ctr).all():
            raise ValueError("initial_centroids have a NaN or infinite entry")
        ctr.flags.writeable = False
        object.__setattr__(self, "initial_centroids", ctr)


@dataclass(frozen=True)
class ClusterModel:
    """A fitted model. sse_per_iter holds the SSE after each centroid
    update; final_sse and iterations_run are derived from it.

    Checked when built: sse_per_iter must not be empty, centroids must be a
    2-D array of at least one row and one column, and assignments one
    integer label in [0, k) per point.
    """

    centroids: np.ndarray
    assignments: np.ndarray
    converged: bool
    metric: DistanceSpec
    seed: int
    sse_per_iter: tuple[float, ...] = field(repr=False)

    def __post_init__(self) -> None:
        if not self.sse_per_iter:
            raise ValueError("sse_per_iter is empty: a model has at least one centroid update")
        centroids = np.shape(self.centroids)
        if len(centroids) != 2 or 0 in centroids:
            raise ValueError(f"centroids must be a non-empty 2-D array, got shape {centroids}")
        labels = np.shape(self.assignments)
        if len(labels) != 1:
            raise ValueError(f"assignments must be a 1-D array, got shape {labels}")
        _check_assignments(self.assignments, labels[0], centroids[0])

    @property
    def final_sse(self) -> float:
        """The SSE after the last centroid update."""
        return self.sse_per_iter[-1]

    @property
    def iterations_run(self) -> int:
        """The assignments made: one per centroid update, and for a
        converged fit the one that repeated the previous assignment."""
        return len(self.sse_per_iter) + self.converged

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


def init_centroids(dataset, config: ClusteringConfig) -> np.ndarray:
    """The k starting centroids of a fit: a float64 copy of
    config.initial_centroids when given, else k-means++ seeding."""
    data = np.asarray(dataset, dtype=np.float64)
    if data.ndim != 2 or 0 in data.shape:
        raise ValueError("dataset must be a non-empty 2-D array")
    if config.k > data.shape[0]:
        raise ValueError(f"k ({config.k}) exceeds dataset size ({data.shape[0]})")
    if config.initial_centroids is not None:
        return _point_arrays(data, config.initial_centroids)[1].copy()

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
            # the draw of rng.choice(n, p=weights / total), without its
            # checks on the weights: the same index and generator state
            cdf = np.cumsum(weights / total)
            cdf /= cdf[-1]
            chosen[i] = cdf.searchsorted(rng.random(), side="right")
        else:
            chosen[i] = rng.integers(0, n)
    return data[chosen].copy()


def assign(dataset, centroids, metric: DistanceSpec, row_norms=None) -> np.ndarray:
    """Map each point to its nearest centroid; ties go to the lowest index.

    row_norms, if given, must be metrics.certificate_norms(metric, dataset).
    """
    return nearest_centers(metric, dataset, centroids, row_norms)


def _check_assignments(assignments, n: int, k: int) -> np.ndarray:
    """assignments as an array, once checked to hold one integer (not bool)
    label per point, each in [0, k)."""
    labels = np.asarray(assignments)
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError(f"assignments must be integers, got dtype {labels.dtype}")
    if labels.shape != (n,):
        raise ValueError(
            f"one assignment per point is required: {n} points, "
            f"assignments of shape {labels.shape}"
        )
    if n and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"assignments must lie in [0, {k})")
    return labels


def update_centroids(dataset, assignments, prev_centroids, metric: DistanceSpec) -> np.ndarray:
    """Recompute each of the k = len(prev_centroids) centroids as the mean of
    its assigned points.

    Points are accumulated in ascending point-index order so the result is
    independent of any caller-side partitioning. An empty cluster is
    re-seeded with the point farthest (under metric) from its centroid in
    prev_centroids; a ValueError asks for normalized data when those
    distances overflow. The data and prev_centroids must fit
    (metrics._point_arrays) and the labels the data and k (_check_assignments).
    """
    data, prev = _point_arrays(dataset, prev_centroids)
    k = prev.shape[0]
    labels = _check_assignments(assignments, data.shape[0], k)

    # each bin adds its points in index order from 0.0, as np.add.at does,
    # so the sums are bitwise the same; an overflow gives inf without a
    # warning, which the Lloyd loop's SSE check rejects. A column of
    # row-major data is copied on its own, never the whole data.
    cluster = labels.astype(np.intp)
    n, d = data.shape
    sums = np.empty((k, d))

    def add(first: int, last: int) -> None:
        for t in range(first, last):
            sums[:, t] = np.bincount(cluster, weights=data[:, t], minlength=k)

    # the pass splits by the data's row blocks, each range taking whole columns
    in_ranges(add, n, block_rows(d), cut=lambda ranges: even_cuts(d, ranges))
    counts = np.bincount(cluster, minlength=k)

    centroids = np.empty_like(sums)
    for j in range(k):
        if counts[j] > 0:
            centroids[j] = sums[j] / counts[j]
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                far = pairwise_distances(metric, data, prev[j : j + 1])[:, 0]
            if not np.isfinite(far).all():
                raise ValueError(
                    f"empty cluster {j} cannot be re-seeded: the distances to "
                    "its former centroid overflow float64; normalize the data"
                )
            centroids[j] = data[int(np.argmax(far))]
    return centroids


def residual_blocks(data: np.ndarray, centroids, labels, start: int, stop: int):
    """Yield (rows, x - c) for each row block of rows [start, stop) of the
    2-D float64 data, in order: rows is a slice, and x - c a (d, m) array
    whose column i is row rows.start + i of the data minus its centroid,
    centroids[labels[rows.start + i]]. Every block but the last has
    metrics.block_rows(d) rows.

    The blocks share one contiguous buffer per call, which the next block
    overwrites. Each column is filled with its centroid and the data's
    column subtracted in place, which reads the data in any layout with no
    n x d copy. labels must lie in [0, k): out-of-range labels are clipped,
    not rejected. fl(x - c) = -fl(c - x), so any function of |x - c| is
    bitwise the same as from c - x.
    """
    d, step = data.shape[1], block_rows(data.shape[1])
    columns, centroid_columns = data.T, np.ascontiguousarray(centroids.T, dtype=np.float64)
    buffer = np.empty(d * min(step, stop - start))
    for begin in range(start, stop, step):
        rows = slice(begin, min(begin + step, stop))
        resid = buffer[: d * (rows.stop - begin)].reshape(d, -1)
        # clip only skips take's bounds check, and with it a buffer of its own
        centroid_columns.take(labels[rows], axis=1, out=resid, mode="clip")
        yield rows, np.subtract(columns[:, rows], resid, out=resid)


def sse(dataset, centroids, assignments) -> float:
    """Sum of squared Euclidean errors between points and their centroids.

    Always squared Euclidean, regardless of the metric used to fit. Each
    point's squared distance to its centroid is folded on its own from its
    residual (residual_blocks) by metrics._row_sum, and np.sum adds the n
    of them once. So for data in any layout and any split of its rows, the
    SSE is bitwise np.sum(np.sum((X - C[labels])**2, axis=1)) over
    row-major X, and np.sum of the core's own sqeuclidean distances to each
    point's centroid.
    """
    data, ctr = _point_arrays(dataset, centroids)
    labels = _check_assignments(assignments, data.shape[0], ctr.shape[0])
    if data.size == 0:
        return 0.0
    squared = np.empty(data.shape[0])

    def add(start: int, stop: int) -> None:
        for rows, resid in residual_blocks(data, ctr, labels, start, stop):
            resid *= resid
            squared[rows] = _row_sum(resid)

    in_ranges(add, data.shape[0], block_rows(data.shape[1]))
    return float(np.sum(squared))


def _check_dataset(data: np.ndarray) -> None:
    """Reject data that is not a non-empty 2-D array or has a NaN or
    infinite entry, naming its first such row."""
    if data.ndim != 2 or data.shape[0] == 0:
        raise ValueError("dataset must be a non-empty 2-D array")
    step = block_rows(data.shape[1])  # no n x d temporary
    for start in range(0, data.shape[0], step):
        finite = np.isfinite(data[start : start + step]).all(axis=1)
        if not finite.all():
            row = start + int(np.argmin(finite))
            raise ValueError(f"row {row} of the dataset has a NaN or infinite entry")


def fit(dataset, config: ClusteringConfig) -> ClusterModel:
    """Run Lloyd iterations until an assignment repeats the previous one, or
    for max_iter assignments.

    A converged model is a fixed point: its centroids are the means of its
    assignments, and assign(dataset, model.centroids) returns them again.
    sse_per_iter has one entry per centroid update, so a converged fit has
    iterations_run - 1 of them and a capped one iterations_run.
    """
    data = np.asfortranarray(dataset, dtype=np.float64)
    _check_dataset(data)
    row_norms = certificate_norms(config.metric, data)
    centroids = init_centroids(data, config)
    labels = None
    converged = False
    history: list[float] = []

    for _ in range(config.max_iter):
        new_labels = assign(data, centroids, config.metric, row_norms=row_norms)
        if labels is not None and np.array_equal(new_labels, labels):
            converged = True
            break
        labels = new_labels
        centroids = update_centroids(data, labels, prev_centroids=centroids, metric=config.metric)
        with np.errstate(over="ignore"):
            history.append(sse(data, centroids, labels))
        if not np.isfinite(history[-1]):
            raise ValueError("the SSE overflows float64; normalize the data")

    if converged:
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
        converged=converged,
        metric=config.metric,
        seed=config.seed,
        sse_per_iter=tuple(history),
    )
