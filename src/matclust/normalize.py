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
    lo, hi = data.min(axis=0), data.max(axis=0)
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
    """Rescale one vector (or a matrix of row vectors) using fitted stats."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.shape[-1] != stats.dimension:
        raise ValueError(
            f"dimension mismatch: input has {arr.shape[-1]} components, "
            f"stats have {stats.dimension}"
        )
    span = stats.max - stats.min
    out = arr - stats.min
    np.divide(out, span, out=out, where=span != 0)
    out[..., span == 0] = 0.0
    return out


def fit_transform(dataset) -> tuple[FeatureStats, np.ndarray]:
    """Fit stats on the dataset and return it normalized, in input order."""
    stats = fit(dataset)
    return stats, transform(stats, np.asarray(dataset, dtype=np.float64))
