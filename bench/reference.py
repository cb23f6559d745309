"""Plain-numpy reference computations used to check matclust's outputs.

Nothing here imports matclust: every quantity is recomputed from the input
CSV text, so a fault in the program cannot hide behind a shared helper.
Distances are computed in row blocks, so memory stays bounded at any n.
"""

from __future__ import annotations

import numpy as np

BLOCK_ROWS = 4096


def read_csv(path) -> tuple[np.ndarray, list[str] | None]:
    """Attribute matrix and optional trailing ``class`` column of a CSV."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
    has_labels = header[-1] == "class"
    n_attr = len(header) - 1 if has_labels else len(header)
    points = np.loadtxt(
        path, delimiter=",", skiprows=1, usecols=range(n_attr), dtype=np.float64, ndmin=2
    )
    labels = None
    if has_labels:
        labels = np.loadtxt(
            path, delimiter=",", skiprows=1, usecols=[n_attr], dtype=str, ndmin=1
        ).tolist()
    return points, labels


def minmax_normalize(points: np.ndarray) -> np.ndarray:
    """(x - min) / (max - min) per column; a constant column maps to 0."""
    lo = points.min(axis=0)
    span = points.max(axis=0) - lo
    out = np.zeros_like(points)
    live = span != 0
    out[:, live] = (points[:, live] - lo[live]) / span[live]
    return out


def _block_distance(kind: str, p: float | None, diff: np.ndarray) -> np.ndarray:
    if kind == "sqeuclidean":
        return np.sum(diff * diff, axis=1)
    if kind == "euclidean":
        return np.sqrt(np.sum(diff * diff, axis=1))
    if kind == "dsd":
        return np.sum(diff * diff, axis=1) ** (p / 3.0)
    if kind == "cityblock":
        return np.sum(np.abs(diff), axis=1)
    if kind == "chebyshev":
        return np.max(np.abs(diff), axis=1)
    if kind == "minkowski":
        return np.sum(np.abs(diff) ** p, axis=1) ** (1.0 / p)
    raise ValueError(f"unknown distance kind {kind!r}")


def distances(kind: str, p: float | None, points: np.ndarray, centres: np.ndarray) -> np.ndarray:
    """n x k matrix of distances, one row block and one centre at a time."""
    out = np.empty((points.shape[0], centres.shape[0]))
    for start in range(0, points.shape[0], BLOCK_ROWS):
        block = points[start : start + BLOCK_ROWS]
        for j, centre in enumerate(centres):
            out[start : start + BLOCK_ROWS, j] = _block_distance(kind, p, block - centre)
    return out


def member_means(points: np.ndarray, labels: np.ndarray, k: int) -> dict[int, np.ndarray]:
    """Mean of the members of every non-empty cluster."""
    return {j: points[labels == j].mean(axis=0) for j in range(k) if np.any(labels == j)}


def sse(points: np.ndarray, centroids: np.ndarray, labels: np.ndarray) -> float:
    """Sum of squared Euclidean distances from each point to its centroid."""
    total = 0.0
    for start in range(0, points.shape[0], BLOCK_ROWS):
        diff = points[start : start + BLOCK_ROWS] - centroids[labels[start : start + BLOCK_ROWS]]
        total += float(np.sum(diff * diff))
    return total


def sigma_clustered(
    member_dist: np.ndarray, labels: np.ndarray, k: int, c: float = 3.0, rel_tol: float = 1e-12
) -> tuple[int, int]:
    """Points kept by the sigma rule, and how many sit within rel_tol of a cutoff.

    A point is an outlier when its distance to its centroid exceeds the
    cluster's mean + c * population std of those distances. Points this
    close to the cutoff may fall either side under last-ulp differences.
    """
    kept = 0
    borderline = 0
    for j in range(k):
        dj = member_dist[labels == j]
        if dj.size == 0:
            continue
        cutoff = dj.mean() + c * dj.std()
        kept += int(np.count_nonzero(dj <= cutoff))
        borderline += int(np.count_nonzero(np.abs(dj - cutoff) <= rel_tol * abs(cutoff)))
    return kept, borderline


def purity(labels: np.ndarray, classes: list[str]) -> float:
    """Share of points whose class is the majority class of their cluster."""
    cls = np.asarray(classes)
    majority = 0
    for j in np.unique(labels):
        _, counts = np.unique(cls[labels == j], return_counts=True)
        majority += int(counts.max())
    return majority / labels.shape[0]
