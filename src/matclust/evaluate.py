"""Outlier profiling and the accuracy / outlier percentage pair.

A fitted K-means model assigns every point, so some exclusion rule is needed
before any point can be counted as an outlier. The rule is configurable:

* ``none`` — nothing is flagged.
* ``sigma`` — a point is flagged when its distance (under the fit metric) to
  its assigned centroid exceeds mean + c * std of that cluster's
  member-to-centroid distances (population std; clusters can be tiny and the
  sample form divides by zero at N=1).
* ``quantile`` — flag points strictly above the per-cluster q-quantile
  distance.

The distances to own centroids come from the residuals x - c of
kmeans.residual_blocks, the pass that the SSE uses too, one row block at a
time on the calling thread: each block goes to pairwise_distances as
points against the origin. Column-major data, as fit holds it, reads
fastest.

Cluster accuracy % and outlier % are exact complements: accuracy is
100 * clustered / total and the outlier share is the remainder. An
EvaluationReport stores only the per-cluster counts and the total, and
derives clustered and both percentages from them, so they cannot disagree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import check_real, csv_text, json_text
from .kmeans import ClusterModel, _check_assignments, residual_blocks
from .metrics import _point_arrays, pairwise_distances

POLICY_NONE = "none"
POLICY_SIGMA = "sigma"
POLICY_QUANTILE = "quantile"


@dataclass(frozen=True)
class OutlierPolicy:
    """An exclusion rule and its parameters, checked when built; c and q
    are stored as floats."""

    kind: str = POLICY_SIGMA
    c: float = 3.0
    q: float = 0.99

    def __post_init__(self) -> None:
        if self.kind not in (POLICY_NONE, POLICY_SIGMA, POLICY_QUANTILE):
            raise ValueError(f"unknown outlier policy {self.kind!r}")
        for name in ("c", "q"):
            object.__setattr__(self, name, check_real(f"outlier {name}", getattr(self, name)))
        if self.kind == POLICY_SIGMA and not self.c > 0:
            raise ValueError(f"sigma policy requires c > 0, got {self.c}")
        if self.kind == POLICY_QUANTILE and not 0 < self.q <= 1:
            raise ValueError(f"quantile policy requires q in (0, 1], got {self.q}")


@dataclass(frozen=True)
class EvaluationReport:
    """The clustered points of each cluster out of total; clustered and the
    two percentages are derived from those counts, and a report whose
    counts sum past its total cannot be built."""

    per_cluster_counts: tuple[int, ...]
    total: int
    policy: OutlierPolicy
    metric: str
    p: float | None
    seed: int

    def __post_init__(self) -> None:
        cluster_accuracy_pct(self.clustered, self.total)

    @property
    def clustered(self) -> int:
        return sum(self.per_cluster_counts)

    @property
    def cluster_accuracy_pct(self) -> float:
        return cluster_accuracy_pct(self.clustered, self.total)

    @property
    def outlier_pct(self) -> float:
        return 100.0 - self.cluster_accuracy_pct

    def to_json(self) -> str:
        return json_text(
            {
                "per_cluster_counts": list(self.per_cluster_counts),
                "total": self.total,
                "clustered": self.clustered,
                "accuracy_pct": self.cluster_accuracy_pct,
                "outlier_pct": self.outlier_pct,
                "policy": self.policy.kind,
                "metric": self.metric,
                "p": self.p,
                "seed": self.seed,
            }
        )

    def to_csv(self) -> str:
        """One-row CSV in the sweep table layout."""
        return table_csv(len(self.per_cluster_counts), [self])


def table_csv(k: int, reports) -> str:
    """The report and sweep table for k clusters: one row per report, whose
    total is the row's instance size."""
    counts = [f"c{j + 1}" for j in range(k)]
    header = ["metric", "p", "instance_size", *counts, "accuracy_pct", "outlier_pct", "seed"]
    rows = [
        (r.metric, r.p, r.total, *r.per_cluster_counts,
         r.cluster_accuracy_pct, r.outlier_pct, r.seed)
        for r in reports
    ]
    return csv_text(header, rows)


def flag_outliers(dataset, model: ClusterModel, policy: OutlierPolicy) -> np.ndarray:
    """Boolean flag per point; True marks a point excluded as an outlier.

    Raises ValueError for a policy that is not an OutlierPolicy, for a
    dataset that does not fit the model's centroids (metrics._point_arrays)
    or its labels (kmeans._check_assignments), and, unless the policy is
    none, for a point whose distance to its own centroid is not finite.
    """
    if not isinstance(policy, OutlierPolicy):
        raise ValueError(f"a policy must be an OutlierPolicy, got {policy!r}")
    data, centroids = _point_arrays(dataset, model.centroids)
    labels = _check_assignments(model.assignments, data.shape[0], centroids.shape[0])
    flags = np.zeros(data.shape[0], dtype=bool)
    if policy.kind == POLICY_NONE:
        return flags

    # each point's distance to its own centroid, from its residual: the
    # core's fl(x - c) - 0 is fl(x - c), so this is bitwise that distance
    own = np.empty(data.shape[0])
    origin = np.zeros((1, data.shape[1]))
    # a distance that is not finite, or the overflow that led to it, is
    # rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        for rows, resid in residual_blocks(data, centroids, labels, 0, data.shape[0]):
            own[rows] = pairwise_distances(model.metric, resid.T, origin)[:, 0]
    bad = ~np.isfinite(own)
    if bad.any():
        raise ValueError(
            f"point {int(np.argmax(bad))} has no finite distance to its centroid: "
            "the data is not finite, or the distance overflows float64; normalize the data"
        )
    for j in range(centroids.shape[0]):
        members = labels == j
        if not members.any():
            continue
        dj = own[members]
        if policy.kind == POLICY_SIGMA:
            cutoff = dj.mean() + policy.c * dj.std()
        else:
            cutoff = np.quantile(dj, policy.q)
        flags[members] = dj > cutoff
    return flags


def cluster_accuracy_pct(clustered: int, total: int) -> float:
    """100 * clustered / total."""
    if total <= 0:
        raise ValueError("total must be positive")
    if not 0 <= clustered <= total:
        raise ValueError(f"clustered ({clustered}) must lie in [0, total={total}]")
    return 100.0 * clustered / total


def evaluate(dataset, model: ClusterModel, policy: OutlierPolicy) -> EvaluationReport:
    """Count clustered points per cluster, excluding flagged outliers; the
    report derives the accuracy / outlier percentage pair from them."""
    flags = flag_outliers(dataset, model, policy)
    labels = np.asarray(model.assignments)
    k = model.centroids.shape[0]
    counts = np.bincount(labels[~flags], minlength=k)
    return EvaluationReport(
        per_cluster_counts=tuple(int(c) for c in counts),
        total=labels.shape[0],
        policy=policy,
        metric=model.metric.kind,
        p=model.metric.p,
        seed=model.seed,
    )
