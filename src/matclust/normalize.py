"""Per-attribute min-max scaling of raw datasets into [0, 1].

Each attribute A is rescaled as v' = (v - min_A) / (max_A - min_A) using the
extremes observed at fit time. A degenerate attribute (min_A == max_A) maps
to 0: constant columns carry no clustering information and are kept inert.
Out-of-sample values are not clamped, so values outside the fitted range map
outside [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import json_text
from .metrics import block_rows, in_ranges


@dataclass(frozen=True)
class FeatureStats:
    """Componentwise minima and maxima of a fitted dataset."""

    min: np.ndarray
    max: np.ndarray

    @property
    def dimension(self) -> int:
        return self.min.shape[0]

    def to_json(self) -> str:
        return json_text({"min": self.min.tolist(), "max": self.max.tolist()})


def fit(dataset) -> FeatureStats:
    """Compute exact componentwise min and max over a non-empty dataset."""
    data = np.asarray(dataset, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError(f"expected a 2-D dataset, got shape {data.shape}")
    if data.shape[0] == 0:
        raise ValueError("cannot fit normalization stats on an empty dataset")
    # + 0.0 makes a zero extreme +0.0 whatever the layout or SIMD path
    lo, hi = data.min(axis=0) + 0.0, data.max(axis=0) + 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        wide = ~np.isfinite(hi - lo)
    if wide.any():
        a = int(np.argmax(wide))
        raise ValueError(
            f"attribute {a} cannot be normalized: its range, from {float(lo[a])!r} "
            f"to {float(hi[a])!r}, is not a finite float64"
        )
    return FeatureStats(min=lo, max=hi)


def transform(stats: FeatureStats, v) -> np.ndarray:
    """Rescale one vector (or a matrix of row vectors) using fitted stats;
    input of any other shape raises ValueError.

    The result is column-major, the layout kmeans.fit holds its data in,
    so a fit of it makes no copy. A matrix of two or more row blocks is
    scaled in ranges of rows (metrics.in_ranges), each value on its own.
    """
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim not in (1, 2):
        raise ValueError(f"expected a vector or a 2-D matrix, got shape {arr.shape}")
    if arr.shape[-1] != stats.dimension:
        raise ValueError(
            f"dimension mismatch: input has {arr.shape[-1]} components, "
            f"stats have {stats.dimension}"
        )
    span = stats.max - stats.min
    flat = span == 0
    out = np.empty_like(arr, order="F")
    points, scaled = np.atleast_2d(arr, out)  # a vector as one point

    def scale(start: int, stop: int) -> None:
        part = scaled[start:stop]
        np.subtract(points[start:stop], stats.min, out=part)
        np.divide(part, span, out=part, where=~flat)
        part[..., flat] = 0.0

    in_ranges(scale, points.shape[0], block_rows(stats.dimension))
    return out


def fit_transform(dataset) -> tuple[FeatureStats, np.ndarray]:
    """Fit stats on the dataset and return it normalized, in input order."""
    stats = fit(dataset)
    return stats, transform(stats, np.asarray(dataset, dtype=np.float64))
