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
for the metrics module's exact core and for the centroid sums; data that
is column-major already, as normalize.transform returns it, is not
copied. fit computes the row norms of assign's certificate once: |x|^2
for the euclidean family, the l1 norm for the other kinds. The SSE adds
the squared residuals in the order np.sum adds the row-major n x d
residuals, but computes them a 256 KB leaf at a time. Every step gives
bitwise the same result for data in any layout, and none holds an n x d
float64 temporary.

Each number is stored once: a ClusterModel derives final_sse and
iterations_run from its sse_per_iter and converged flag, and
update_centroids takes k from the centroids it updates.

Everything is seeded. The distance passes of seeding and assignment split
their row blocks over the usable CPUs when fit runs on the main thread,
and run whole on any other thread (see the metrics module), but each
block writes only its own rows and every distance and label is bitwise
the same for any split; the update step and the SSE run on the thread
that called fit. So a given (dataset, config) always produces a
bitwise-identical model, whatever the number of CPUs or sweep workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import check_count, check_seed, json_text
from .metrics import (
    DistanceSpec,
    block_rows,
    certificate_norms,
    nearest_centers,
    pairwise_distances,
)

DEFAULT_SEED = 42


@dataclass(frozen=True)
class ClusteringConfig:
    """The settings of one fit, checked when built. A fit starts from
    initial_centroids when given (k finite rows, kept as a read-only float64
    copy; fit checks that they are as wide as the data), else from k-means++
    seeding under the metric."""

    k: int
    metric: DistanceSpec = DistanceSpec("euclidean")
    seed: int = DEFAULT_SEED
    max_iter: int = 100
    initial_centroids: np.ndarray | None = None

    def __post_init__(self) -> None:
        check_settings(self.k, (self.metric,), self.max_iter, self.seed)
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


def check_settings(k, metrics, max_iter, seed) -> None:
    """Reject a k, metric, max_iter or seed that no fit can run
    with, whatever the data; ClusteringConfig (with its one metric) and
    SweepPlan (with its grid) call it when built."""
    check_count("k", k)
    for metric in metrics:
        if not isinstance(metric, DistanceSpec):
            raise ValueError(f"a metric must be a DistanceSpec, got {metric!r}")
    check_count("max_iter", max_iter)
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
        ctr = config.initial_centroids.copy()
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


def _check_centroids(data: np.ndarray, centroids: np.ndarray) -> None:
    """Reject centroids that are not a 2-D array as wide as the 2-D data."""
    if data.ndim != 2 or centroids.ndim != 2 or centroids.shape[1] != data.shape[1]:
        raise ValueError(
            f"centroids of shape {centroids.shape} do not fit data of shape {data.shape}: "
            "both must be 2-D and as wide"
        )


def update_centroids(dataset, assignments, prev_centroids, metric: DistanceSpec) -> np.ndarray:
    """Recompute each of the k = len(prev_centroids) centroids as the mean of
    its assigned points.

    Points are accumulated in ascending point-index order so the result is
    independent of any caller-side partitioning. An empty cluster is
    re-seeded with the point farthest (under metric) from its centroid in
    prev_centroids; a ValueError asks for normalized data when those
    distances overflow.
    """
    data = np.asarray(dataset, dtype=np.float64)
    prev = np.asarray(prev_centroids, dtype=np.float64)
    _check_centroids(data, prev)
    k = prev.shape[0]
    labels = _check_assignments(assignments, data.shape[0], k)
    columns = np.asfortranarray(data).T

    # each bin adds its points in index order from 0.0, as np.add.at does,
    # so the sums are bitwise the same; an overflow gives inf without a
    # warning, which the Lloyd loop's SSE check rejects
    cluster = labels.astype(np.intp)
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
                d = pairwise_distances(metric, data, prev[j : j + 1])
            if not np.isfinite(d).all():
                raise ValueError(
                    f"empty cluster {j} cannot be re-seeded: the distances to "
                    "its former centroid overflow float64; normalize the data"
                )
            centroids[j] = data[int(np.argmax(d[:, 0]))]
    return centroids


# The SSE's leaves: flat ranges of at most this many residuals (256 KB),
# each squared in one small buffer and summed by np.sum. At 128 or more,
# every range split into leaves is one that numpy's pairwise sum splits.
_SSE_LEAF = 1 << 15


def sse(dataset, centroids, assignments) -> float:
    """Sum of squared Euclidean errors between points and their centroids.

    Always squared Euclidean, regardless of the metric used to fit. For
    data in any layout, bitwise np.sum((X - C[labels])**2) over row-major
    residuals, but without holding them: see _residual_sum.
    """
    data = np.asarray(dataset, dtype=np.float64)
    ctr = np.asarray(centroids, dtype=np.float64)
    _check_centroids(data, ctr)
    labels = _check_assignments(assignments, data.shape[0], ctr.shape[0])
    if data.size == 0:
        return 0.0
    rows = np.empty((min(data.shape[0], _SSE_LEAF // data.shape[1] + 2), data.shape[1]))
    return float(_residual_sum(data, ctr, labels, 0, data.size, rows))


def _residual_sum(data, ctr, labels, start: int, stop: int, rows: np.ndarray) -> float:
    """The sum of the squared residuals start .. stop - 1 of the row-major
    n x d residuals data - ctr[labels], in the order np.sum adds them.

    np.sum adds a contiguous range by numpy's pairwise summation: a range of
    more than 128 terms is split after its first half rounded down to a
    multiple of 8, and the sums of the two parts are added. This function
    splits the same way until a part fits _SSE_LEAF, computes the rows that
    part touches into rows (a buffer of _SSE_LEAF // d + 2 of them), and
    leaves that part's sum to np.sum over the same terms; np.sum adds it to
    0.0, which changes no sum of squares. It is a module-level function, not
    a closure that calls itself, which would form a reference cycle and keep
    the data alive until the garbage collector ran.
    """
    size = stop - start
    if size > _SSE_LEAF:
        half = size // 2 - size // 2 % 8
        head = _residual_sum(data, ctr, labels, start, start + half, rows)
        return head + _residual_sum(data, ctr, labels, start + half, stop, rows)
    d = data.shape[1]
    first, last = start // d, -(-stop // d)
    resid = rows[: last - first]
    # labels are checked to lie in [0, k), so clip only skips take's buffer
    ctr.take(labels[first:last], axis=0, out=resid, mode="clip")
    np.subtract(data[first:last], resid, out=resid)
    resid *= resid
    return np.sum(resid.reshape(-1)[start - first * d : stop - first * d])


def fit(dataset, config: ClusteringConfig) -> ClusterModel:
    """Run Lloyd iterations until an assignment repeats the previous one, or
    for max_iter assignments.

    A converged model is a fixed point: its centroids are the means of its
    assignments, and assign(dataset, model.centroids) returns them again.
    sse_per_iter has one entry per centroid update, so a converged fit has
    iterations_run - 1 of them and a capped one iterations_run.
    """
    data = np.asfortranarray(dataset, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] == 0:
        raise ValueError("dataset must be a non-empty 2-D array")
    step = block_rows(data.shape[1])  # no n x d temporary
    for start in range(0, data.shape[0], step):
        finite = np.isfinite(data[start : start + step]).all(axis=1)
        if not finite.all():
            row = start + int(np.argmin(finite))
            raise ValueError(f"row {row} of the dataset has a NaN or infinite entry")

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
