"""Distance kernels with a pluggable, parameterized metric family.

All functions are pure and operate on float64 numpy arrays. The design
specification distance ``dsd`` computes (sum of squared differences)^(p/3),
which coincides with Euclidean at p=1.5 and squared Euclidean at p=3. Note
that dsd is only a true metric (triangle inequality) for p <= 1.5; for
p > 1.5 the collinear points 0, 1, 2 in one dimension already violate it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EUCLIDEAN = "euclidean"
SQEUCLIDEAN = "sqeuclidean"
CITYBLOCK = "cityblock"
CHEBYSHEV = "chebyshev"
MINKOWSKI = "minkowski"
DSD = "dsd"

METRIC_KINDS = (EUCLIDEAN, SQEUCLIDEAN, CITYBLOCK, CHEBYSHEV, MINKOWSKI, DSD)

_PARAMETRIC = frozenset({MINKOWSKI, DSD})

# pairwise_distances works through the points in row blocks whose
# rows x centers x dimension difference array takes about this many bytes,
# so its memory does not grow with n.
_BLOCK_BYTES = 4 << 20


@dataclass(frozen=True)
class DistanceSpec:
    """A metric kind plus its user parameter p, where applicable."""

    kind: str
    p: float | None = None


def validate_spec(spec: DistanceSpec) -> DistanceSpec:
    """Check a DistanceSpec against its parameter constraints.

    Returns the spec unchanged if valid, raises ValueError otherwise.
    """
    if spec.kind not in METRIC_KINDS:
        raise ValueError(
            f"unknown metric kind {spec.kind!r}; expected one of {', '.join(METRIC_KINDS)}"
        )
    if spec.kind in _PARAMETRIC:
        if spec.p is None:
            raise ValueError(f"metric {spec.kind!r} requires parameter p")
        p = float(spec.p)
        if not math.isfinite(p):
            raise ValueError(f"parameter p must be finite, got {spec.p!r}")
        if spec.kind == DSD:
            if p < 1.0:
                raise ValueError(f"dsd parameter p below 1 (got {p})")
            if p > 3.0:
                raise ValueError(f"dsd parameter p above 3 (got {p})")
        elif p < 1.0:
            raise ValueError(f"minkowski parameter p below 1 (got {p})")
    elif spec.p is not None:
        raise ValueError(f"metric {spec.kind!r} does not take a parameter p")
    return spec


def as_vector(values) -> np.ndarray:
    """Coerce to a 1-D float64 vector, rejecting NaN/inf and zero length."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if v.size == 0:
        raise ValueError("zero-dimension vectors are not allowed")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite (no NaN or infinities)")
    return v


def _pow(base: np.ndarray, exponent: float) -> np.ndarray:
    # numpy's scalar pow and its vectorized pow loop can disagree in the
    # last ulp; always take the (position-independent) array path so scalar
    # and pairwise results stay bitwise identical.
    if base.ndim == 0:
        return np.power(base.reshape(1), exponent)[0]
    return np.power(base, exponent)


def _reduce(spec: DistanceSpec, diffs: np.ndarray) -> np.ndarray:
    """Apply the metric's closed form along the last axis of a diff array."""
    kind = spec.kind
    if kind == SQEUCLIDEAN:
        return np.sum(diffs * diffs, axis=-1)
    if kind == EUCLIDEAN:
        return np.sqrt(np.sum(diffs * diffs, axis=-1))
    if kind == CITYBLOCK:
        return np.sum(np.abs(diffs), axis=-1)
    if kind == CHEBYSHEV:
        return np.max(np.abs(diffs), axis=-1)
    if kind == MINKOWSKI:
        # Scale by the per-row max so |d|^p cannot over/underflow for large p.
        a = np.abs(diffs)
        m = np.max(a, axis=-1, keepdims=True)
        scaled = np.divide(a, m, out=np.zeros_like(a), where=m > 0)
        p = float(spec.p)
        root = _pow(np.asarray(np.sum(scaled**p, axis=-1)), 1.0 / p)
        return np.squeeze(m, axis=-1) * root
    if kind == DSD:
        return _pow(np.asarray(np.sum(diffs * diffs, axis=-1)), float(spec.p) / 3.0)
    raise ValueError(f"unknown metric kind {kind!r}")


def distance(spec: DistanceSpec, x, y) -> float:
    """Distance between two equal-dimension vectors under the given spec."""
    xv = as_vector(x)
    yv = as_vector(y)
    if xv.shape[0] != yv.shape[0]:
        raise ValueError(
            f"dimension mismatch: x has {xv.shape[0]} components, y has {yv.shape[0]}"
        )
    return float(_reduce(spec, xv - yv))


def pairwise_distances(spec: DistanceSpec, points, centers) -> np.ndarray:
    """Distance matrix: entry (i, j) is distance(spec, points[i], centers[j]).

    Entries are bitwise identical to the scalar op applied entrywise: each
    is reduced on its own, whichever row block it falls in.
    """
    pts = np.asarray(points, dtype=np.float64)
    ctr = np.asarray(centers, dtype=np.float64)
    if pts.size == 0:
        pts = pts.reshape(0, ctr.shape[1] if ctr.ndim == 2 else 0)
    if pts.ndim != 2 or ctr.ndim != 2:
        raise ValueError("points and centers must be 2-D arrays of vectors")
    if pts.shape[0] > 0 and pts.shape[1] != ctr.shape[1]:
        raise ValueError(
            f"dimension mismatch: points have {pts.shape[1]} components, "
            f"centers have {ctr.shape[1]}"
        )
    if pts.shape[0] == 0:
        return np.zeros((0, ctr.shape[0]))
    out = np.empty((pts.shape[0], ctr.shape[0]))
    step = max(1, _BLOCK_BYTES // max(1, ctr.nbytes))
    for start in range(0, pts.shape[0], step):
        block = pts[start : start + step]
        out[start : start + step] = _reduce(spec, block[:, None, :] - ctr[None, :, :])
    return out
