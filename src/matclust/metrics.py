"""Distance kernels with a pluggable, parameterized metric family.

All functions are pure and operate on float64 numpy arrays. The design
specification distance ``dsd`` computes (sum of squared differences)^(p/3),
which coincides with Euclidean at p=1.5 and squared Euclidean at p=3. Note
that dsd is only a true metric (triangle inequality) for p <= 1.5; for
p > 1.5 the collinear points 0, 1, 2 in one dimension already violate it.

Every distance comes from one exact core, _exact, which works on the
points' columns, a (d, m) array: per center a few numpy calls over m
values each, with results written center-major as a (k, m) block. Those
values are contiguous when the points are held column-major, as fit holds
them; row-major points work too, more slowly. pairwise_distances and
nearest_centers both use the core; a DistanceSpec checks itself when it
is built, so neither checks it again. For the euclidean family,
nearest_centers first ranks the centers by a matrix product; only rows
its rounding bound leaves open get the exact core.
"""

from __future__ import annotations

import math
import numbers
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

# nondecreasing functions of the squared Euclidean distance: they share its
# argmin, and their exact kernel is the sum of squares, then a root or power
_SQUARED_FAMILY = frozenset({EUCLIDEAN, SQEUCLIDEAN, DSD})

# The core works through the points in blocks whose (d, rows) difference
# array takes about this many bytes, so its memory does not grow with n.
# On a normalized 1e5 x 25 input with k = 16 (2 CPUs, 4 MB L2), blocks of
# 1 MB (5242 points) assigned cityblock in 61 ms, blocks of 0.5, 1.5, 2
# and 3 MB in 99, 68, 72 and 83 ms; dsd was as fast at 1 MB as at 2 MB.
_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class DistanceSpec:
    """A metric kind plus its user parameter p, where applicable.

    Checked when built: a kind or p outside its constraints raises
    ValueError, so every DistanceSpec in existence is valid. A given p is
    stored as a float.
    """

    kind: str
    p: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in METRIC_KINDS:
            raise ValueError(
                f"unknown metric kind {self.kind!r}; expected one of {', '.join(METRIC_KINDS)}"
            )
        if self.kind in _PARAMETRIC:
            if self.p is None:
                raise ValueError(f"metric {self.kind!r} requires parameter p")
            if isinstance(self.p, bool) or not isinstance(self.p, numbers.Real):
                raise ValueError(f"parameter p must be a real number, got {self.p!r}")
            try:
                p = float(self.p)
            except OverflowError:  # an int beyond float64's range
                p = math.inf
            if not math.isfinite(p):
                raise ValueError(f"parameter p must be finite, got {self.p!r}")
            if self.kind == DSD:
                if p < 1.0:
                    raise ValueError(f"dsd parameter p below 1 (got {p})")
                if p > 3.0:
                    raise ValueError(f"dsd parameter p above 3 (got {p})")
            elif p < 1.0:
                raise ValueError(f"minkowski parameter p below 1 (got {p})")
            object.__setattr__(self, "p", p)
        elif self.p is not None:
            raise ValueError(f"metric {self.kind!r} does not take a parameter p")


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


def _block_rows(height: int) -> int:
    """Points per block of a (height, points) scratch array: the core's d
    differences, or the ranking's k values, per point."""
    return max(1, _BLOCK_BYTES // (8 * max(1, height)))


# BLAS calls stay small: a product of k rows of d values with the columns
# of some points covers at most _PRODUCT_BYTES / (8 * d * max(k, 16))
# points, 1310 at d = 25 and k <= 16. On 2 CPUs OpenBLAS ran a
# (16 x 25) @ (25 x 2621) product in 8 ms on two threads and in 0.08 ms on
# one, and products of up to 1310 points as fast on two threads as on one.
_PRODUCT_BYTES = 4 << 20


def _product(left: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """left @ columns for a (k, d) left and (d, m) columns, by one BLAS
    call per slice of columns of the size above."""
    k, (d, m) = left.shape[0], columns.shape
    out = np.empty((k, m))
    step = max(1, _PRODUCT_BYTES // (8 * d * max(k, 16)))
    for start in range(0, m, step):
        cols = slice(start, start + step)
        np.matmul(left, columns[:, cols], out=out[:, cols])
    return out


def _row_sum(a: np.ndarray) -> np.ndarray:
    """The sums of the columns of a (d, m) array of non-negative terms,
    computed in place in a's rows; returns the row that holds them.

    The d terms of a column are added in the order in which
    np.sum(..., axis=-1) adds a contiguous row of d terms, numpy's pairwise
    summation: below 8 terms one after another; up to 128 terms in eight
    running sums s_r of the terms r, r + 8, ..., combined as
    ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7)), then the last d mod 8
    terms one after another; above 128 terms, the sums of the two halves
    split at a multiple of 8 below d/2, added. np.sum adds this to 0.0,
    which changes no sum of non-negative terms. So every distance is
    bitwise the broadcast formula's; the tests check the order against
    np.sum for every d from 1 to 300.
    """
    d = a.shape[0]
    if d > 128:
        half = d // 2 - d // 2 % 8
        head = _row_sum(a[:half])
        head += _row_sum(a[half:])
        return head
    tail = 1
    if d >= 8:
        tail = d - d % 8
        acc = a[:8]
        for t in range(8, tail, 8):
            acc += a[t : t + 8]
        acc[0::2] += acc[1::2]
        acc[0::4] += acc[2::4]
        acc[0] += acc[4]
    for t in range(tail, d):
        a[0] += a[t]
    return a[0]


def _exact(spec: DistanceSpec, columns: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """The (k, m) distances from k centers to m points given by their
    columns, a (d, m) array; m is at most _block_rows(d).

    The one exact core: every distance in this module is computed here.
    Per center it subtracts the center from the columns, takes abs, the
    square or minkowski's scaled power in place and folds the d rows, by
    _row_sum or, for chebyshev, a max; euclidean and dsd then take the
    root or power of the sums. Each step computes the same values as the
    (rows, k, d) broadcast formula, so the results are bitwise its own.
    """
    d, m = columns.shape
    out = np.empty((centers.shape[0], m))
    diff = np.empty((d, m))
    kind = spec.kind
    for j, center in enumerate(centers):
        np.subtract(columns, center[:, None], out=diff)
        if kind in _SQUARED_FAMILY:
            np.multiply(diff, diff, out=diff)
        else:
            np.abs(diff, out=diff)
        if kind == CHEBYSHEV:
            np.max(diff, axis=0, out=out[j])
        elif kind == MINKOWSKI:
            # Scale by the per-point max so |d|^p cannot over/underflow for
            # large p. A point whose max is 0 has all +0.0 terms already,
            # and **= takes the same scalar-exponent path as **.
            top = np.max(diff, axis=0)
            np.divide(diff, top, out=diff, where=top > 0)
            p = float(spec.p)
            diff **= p
            np.multiply(top, np.power(_row_sum(diff), 1.0 / p), out=out[j])
        else:
            out[j] = _row_sum(diff)
    if kind == EUCLIDEAN:
        np.sqrt(out, out=out)
    elif kind == DSD:
        np.power(out, float(spec.p) / 3.0, out=out)
    return out


def distance(spec: DistanceSpec, x, y) -> float:
    """Distance between two equal-dimension vectors under the given spec."""
    xv = as_vector(x)
    yv = as_vector(y)
    if xv.shape[0] != yv.shape[0]:
        raise ValueError(
            f"dimension mismatch: x has {xv.shape[0]} components, y has {yv.shape[0]}"
        )
    return float(pairwise_distances(spec, xv[None, :], yv[None, :])[0, 0])


def _point_arrays(points, centers) -> tuple[np.ndarray, np.ndarray]:
    """Coerce points and centers to float64 2-D arrays of one dimension."""
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
    if ctr.shape[1] == 0:
        raise ValueError("zero-dimension vectors are not allowed")
    return pts, ctr


def pairwise_distances(spec: DistanceSpec, points, centers) -> np.ndarray:
    """Distance matrix: entry (i, j) is distance(spec, points[i], centers[j]).

    Entries are bitwise identical to the scalar op applied entrywise: each
    is reduced on its own, whichever row block it falls in.
    """
    pts, ctr = _point_arrays(points, centers)
    out = np.empty((pts.shape[0], ctr.shape[0]))
    step = _block_rows(ctr.shape[1])
    for start in range(0, pts.shape[0], step):
        rows = slice(start, start + step)
        out[rows] = _exact(spec, pts[rows].T, ctr).T
    return out


_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)
_MAX = float(np.finfo(np.float64).max)


def squared_norms(spec: DistanceSpec, points) -> np.ndarray | None:
    """|x|^2 of each point, which nearest_centers' certificate uses for
    euclidean, sqeuclidean and dsd; None for the other kinds, which need
    none. A caller that assigns one dataset many times computes it once
    and passes it on."""
    if spec.kind not in _SQUARED_FAMILY:
        return None
    pts = np.asarray(points, dtype=np.float64)
    return np.einsum("ij,ij->i", pts, pts)


def _squared_test(d: int, pts_sq: np.ndarray, ctr_sq: float) -> tuple[float, np.ndarray]:
    """c and the slack 3A + 4*tiny of the GEMM certificate for rows with
    these |x|^2, against centers whose largest |c|^2 is ctr_sq.

    A row whose GEMM values g_j = |x|^2 + |c_j|^2 - 2 x.c_j have the two
    smallest s1 <= s2 keeps the argmin a of g when (1 - c)*s2 - s1 > 3A +
    4*tiny. Why. Notation: u = eps/2, gamma_n = n*u/(1 - n*u), N = |x|^2 +
    max_j |c_j|^2, D_j the true squared distance, e_j the exact kernel's sum
    of squares, b any center other than a.
    1. GEMM rounding. |x|^2, |c_j|^2 and x.(-2c_j) are sums whose absolute
       terms total |x|^2, |c_j|^2 and at most |x|^2 + |c_j|^2; in any order,
       with or without FMA, each errs by at most gamma_d times that total,
       2*gamma_d*N in all. The two additions err by u each on magnitudes
       below 2N. So |g_j - D_j| <= A := (d + 3)*eps*N, second-order terms
       included.
    2. Exact-kernel rounding. fl(x_t - c_t) squared and summed in any order
       gives |e_j - D_j| <= gamma_(d+2)*D_j =: rho*D_j, and 2*rho <=
       (d + 3)*eps.
    3. Last ulp. sqrt is correctly rounded; pow(., q), q = p/3 in [1/3, 1],
       is taken to be within 5 ulps. If e_b >= (1 + 32*eps)*e_a, then
       e_b^q / e_a^q >= 1 + 10.6*eps, so the rounded values stay strictly
       ordered and never merge into a tie that the exact argmin would break
       toward a lower index.
    From D_b - D_a >= c*D_b with c = (d + 36)*eps >= 2*rho + 32*eps +
    O(eps^2), 2 and 3 give e_b >= (1 + 32*eps)*e_a. By 1, D_b - D_a >= g_b -
    s1 - 2A and D_b <= g_b + A, so (1 - c)*g_b - s1 >= (2 + c)*A suffices;
    its left side is least at g_b = s2, and 3A covers (2 + c)*A plus the
    rounding of this test. Gradual underflow adds at most 2^-1075 per
    operation, far below the 4*tiny term, which also keeps e_b a normal
    number. Where 3N overflows the bound is inf, so a certified row's
    distances are all finite.
    """
    return (d + 36) * _EPS, (d + 3) * _EPS * (3.0 * (pts_sq + ctr_sq)) + 4.0 * _TINY


def _two_smallest(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each column of a (k, m) array: the row of its least value, ties
    to the lowest row, that value, and the least of the other rows' values
    capped at the largest float. values is overwritten.

    k folds of contiguous rows, not m reductions k long. A column with a
    NaN has a NaN least value.
    """
    least = values[0].copy()
    second = np.full_like(least, _MAX)
    row = np.zeros(least.shape, dtype=np.intp)
    nearer = np.empty(least.shape, dtype=bool)
    low = np.empty_like(least)
    for j in range(1, values.shape[0]):
        v = values[j]
        np.less(v, least, out=nearer)
        np.copyto(row, j, where=nearer)
        np.minimum(least, v, out=low)
        np.maximum(least, v, out=v)
        np.minimum(second, v, out=second)
        least, low = low, least
    return row, least, second


# Overflow, and the NaN it can lead to, never passes silently here: in the
# ranking it only sends a row to the exact core, and a non-finite nearest
# distance from the exact core is rejected.
@np.errstate(over="ignore", invalid="ignore")
def nearest_centers(spec: DistanceSpec, points, centers, row_norms=None) -> np.ndarray:
    """Index of each point's nearest center, ties to the lowest index.

    Bitwise equal to np.argmin(pairwise_distances(spec, points, centers),
    axis=1). Each row block of the euclidean, sqeuclidean and dsd kinds is
    ranked by one matrix product, -2C @ columns plus the squared norms; only
    rows whose top-two gap is within the rounding bound of _squared_test
    get the exact core. cityblock, chebyshev and minkowski are computed
    exactly. row_norms, if given, must be squared_norms(spec, points).
    Raises ValueError when a point's nearest distance is not finite.
    """
    pts, ctr = _point_arrays(points, centers)
    if ctr.shape[0] == 0:
        raise ValueError("at least one centroid is required")
    columns = np.asfortranarray(pts).T
    n = pts.shape[0]
    labels = np.empty(n, dtype=np.intp)
    count = n
    ranked = spec.kind in _SQUARED_FAMILY
    if ranked:
        if row_norms is None:
            row_norms = squared_norms(spec, pts)
        ctr_sq = np.einsum("ij,ij->i", ctr, ctr)[:, None]
        ctr_minus2 = -2.0 * ctr
        c, slack = _squared_test(ctr.shape[1], row_norms, ctr_sq.max())
        certified = np.empty(n, dtype=bool)
        step = _block_rows(ctr.shape[0])
        for start in range(0, n, step):
            rows = slice(start, start + step)
            g = _product(ctr_minus2, columns[:, rows])
            g += row_norms[rows]
            g += ctr_sq
            labels[rows], s1, s2 = _two_smallest(g)
            certified[rows] = (1.0 - c) * s2 - s1 > slack[rows]
        exact = np.flatnonzero(~certified)
        count = exact.size
    step = _block_rows(ctr.shape[1])
    for start in range(0, count, step):
        rows = exact[start : start + step] if ranked else slice(start, start + step)
        nearest, least, _ = _two_smallest(_exact(spec, columns[:, rows], ctr))
        bad = ~np.isfinite(least)
        if bad.any():
            row = int(np.arange(n)[rows][np.argmax(bad)])
            raise ValueError(
                f"point {row} has no finite distance to any centroid: the "
                "distances overflow float64 (or the data is not finite); "
                "normalize the data"
            )
        labels[rows] = nearest
    return labels
