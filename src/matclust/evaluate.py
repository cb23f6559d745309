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

Cluster accuracy % and outlier % are exact complements: accuracy is
100 * clustered / total and the outlier share is the remainder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import csv_text, json_text
from .kmeans import ClusterModel
from .metrics import pairwise_distances

POLICY_NONE = "none"
POLICY_SIGMA = "sigma"
POLICY_QUANTILE = "quantile"


@dataclass(frozen=True)
class OutlierPolicy:
    """An exclusion rule and its parameters, checked when built."""

    kind: str = POLICY_SIGMA
    c: float = 3.0
    q: float = 0.99

    def __post_init__(self) -> None:
        if self.kind not in (POLICY_NONE, POLICY_SIGMA, POLICY_QUANTILE):
            raise ValueError(f"unknown outlier policy {self.kind!r}")
        if not (math.isfinite(self.c) and math.isfinite(self.q)):
            raise ValueError(f"outlier c and q must be finite, got c={self.c}, q={self.q}")
        if self.kind == POLICY_SIGMA and not self.c > 0:
            raise ValueError(f"sigma policy requires c > 0, got {self.c}")
        if self.kind == POLICY_QUANTILE and not 0 < self.q <= 1:
            raise ValueError(f"quantile policy requires q in (0, 1], got {self.q}")


@dataclass(frozen=True)
class EvaluationReport:
    per_cluster_counts: tuple[int, ...]
    total: int
    clustered: int
    cluster_accuracy_pct: float
    outlier_pct: float
    policy: OutlierPolicy
    metric: str
    p: float | None
    seed: int

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
    """Boolean flag per point; True marks a point excluded as an outlier."""
    data = np.asarray(dataset, dtype=np.float64)
    labels = np.asarray(model.assignments)
    if data.shape[0] != labels.shape[0]:
        raise ValueError(
            f"the dataset has {data.shape[0]} rows but the model assigns "
            f"{labels.shape[0]} points"
        )
    flags = np.zeros(data.shape[0], dtype=bool)
    if policy.kind == POLICY_NONE:
        return flags

    # each point's distance to its own centroid in one call: the core's
    # fl(x - c) - 0 is fl(x - c), so this is bitwise the distance of x to c
    resid = model.centroids[labels]
    np.subtract(data, resid, out=resid)
    own = pairwise_distances(model.metric, resid, np.zeros((1, data.shape[1])))[:, 0]
    for j in range(model.centroids.shape[0]):
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
    """Count clustered points per cluster (excluding flagged outliers) and
    compute the accuracy / outlier percentage pair."""
    flags = flag_outliers(dataset, model, policy)
    labels = np.asarray(model.assignments)
    k = model.centroids.shape[0]
    counts = np.bincount(labels[~flags], minlength=k)
    total = labels.shape[0]
    clustered = int(counts.sum())
    acc = cluster_accuracy_pct(clustered, total)
    return EvaluationReport(
        per_cluster_counts=tuple(int(c) for c in counts),
        total=total,
        clustered=clustered,
        cluster_accuracy_pct=acc,
        outlier_pct=100.0 - acc,
        policy=policy,
        metric=model.metric.kind,
        p=model.metric.p,
        seed=model.seed,
    )
