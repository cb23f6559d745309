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


def _reduce(spec: DistanceSpec, diffs: np.ndarray) -> np.ndarray:
    """Apply the metric's closed form along the last axis of a diff array.

    diffs must be a temporary the caller owns: it may be overwritten.
    """
    kind = spec.kind
    if kind == SQEUCLIDEAN:
        return np.sum(diffs * diffs, axis=-1)
    if kind == EUCLIDEAN:
        return np.sqrt(np.sum(diffs * diffs, axis=-1))
    if kind == CITYBLOCK:
        return np.sum(np.abs(diffs, out=diffs), axis=-1)
    if kind == CHEBYSHEV:
        return np.max(np.abs(diffs, out=diffs), axis=-1)
    if kind == MINKOWSKI:
        # Scale by the per-row max so |d|^p cannot over/underflow for large p.
        a = np.abs(diffs, out=diffs)
        m = np.max(a, axis=-1, keepdims=True)
        scaled = np.divide(a, m, out=np.zeros_like(a), where=m > 0)
        p = float(spec.p)
        root = np.power(np.sum(scaled**p, axis=-1), 1.0 / p)
        return np.squeeze(m, axis=-1) * root
    if kind == DSD:
        return np.power(np.sum(diffs * diffs, axis=-1), float(spec.p) / 3.0)
    raise ValueError(f"unknown metric kind {kind!r}")


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
    return pts, ctr


def _block_rows(row_bytes: int) -> int:
    """Rows per block when each row takes row_bytes of scratch."""
    return max(1, _BLOCK_BYTES // max(1, row_bytes))


def pairwise_distances(spec: DistanceSpec, points, centers) -> np.ndarray:
    """Distance matrix: entry (i, j) is distance(spec, points[i], centers[j]).

    Entries are bitwise identical to the scalar op applied entrywise: each
    is reduced on its own, whichever row block it falls in.
    """
    pts, ctr = _point_arrays(points, centers)
    out = np.empty((pts.shape[0], ctr.shape[0]))
    step = _block_rows(ctr.nbytes)
    for start in range(0, pts.shape[0], step):
        block = pts[start : start + step]
        out[start : start + step] = _reduce(spec, block[:, None, :] - ctr[None, :, :])
    return out


_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)
_MAX = float(np.finfo(np.float64).max)


# A ranking is built once per nearest_centers call from the centers and the
# number of points. It returns (rank, step): rank maps a block of at most
# step rows to (g, c, slack), where g[i, j] ranks center j for row i closely
# enough that _certify proves a row's argmin from g with that c and slack.


def _squared_ranking(ctr: np.ndarray, n: int):
    """Rank the euclidean family by the GEMM form of the squared distance.

    euclidean, sqeuclidean and dsd at every p are nondecreasing functions
    of the squared Euclidean distance, so they share its argmin.
    """
    d = ctr.shape[1]
    ctr_sq = np.einsum("ij,ij->i", ctr, ctr)
    ctr_minus2_t = -2.0 * ctr.T
    # Why a row with (1 - c)*s2 - s1 > 3A + 4*tiny keeps its argmin a.
    # Notation: u = eps/2, gamma_n = n*u/(1 - n*u), N = |x|^2 + max_j |c_j|^2,
    # D_j the true squared distance, e_j the exact kernel's sum of squares,
    # s1 <= s2 the two smallest GEMM values g_j, b any center other than a.
    # 1. GEMM rounding. |x|^2, |c_j|^2 and x.(-2c_j) are sums whose
    #    absolute terms total |x|^2, |c_j|^2 and at most |x|^2 + |c_j|^2;
    #    in any order, with or without FMA, each errs by at most gamma_d
    #    times that total, 2*gamma_d*N in all. The two additions err by u
    #    each on magnitudes below 2N. So |g_j - D_j| <= A := (d + 3)*eps*N,
    #    second-order terms included.
    # 2. Exact-kernel rounding. fl(x_t - c_t) squared and summed in any
    #    order gives |e_j - D_j| <= gamma_(d+2)*D_j =: rho*D_j, and
    #    2*rho <= (d + 3)*eps.
    # 3. Last ulp. sqrt is correctly rounded; pow(., q), q = p/3 in [1/3, 1],
    #    is taken to be within 5 ulps. If e_b >= (1 + 32*eps)*e_a, then
    #    e_b^q / e_a^q >= 1 + 10.6*eps, so the rounded values stay strictly
    #    ordered and never merge into a tie that the exact argmin would
    #    break toward a lower index.
    # From D_b - D_a >= c*D_b with c = (d + 36)*eps >= 2*rho + 32*eps +
    # O(eps^2), 2 and 3 give e_b >= (1 + 32*eps)*e_a. By 1, D_b - D_a >=
    # g_b - s1 - 2A and D_b <= g_b + A, so (1 - c)*g_b - s1 >= (2 + c)*A
    # suffices; its left side is least at g_b = s2, and 3A covers (2 + c)*A
    # plus the rounding of this test. Gradual underflow adds at most 2^-1075
    # per operation, far below the 4*tiny term, which also keeps e_b a
    # normal number. Where 3N overflows the bound is inf, so a certified
    # row's distances are all finite.
    c = (d + 36) * _EPS

    def rank(block: np.ndarray):
        x_sq = np.einsum("ij,ij->i", block, block)
        g = block @ ctr_minus2_t
        g += x_sq[:, None]
        g += ctr_sq
        three_a = (d + 3) * _EPS * (3.0 * (x_sq + ctr_sq.max()))
        return g, c, three_a + 4.0 * _TINY

    return rank, _block_rows(ctr.nbytes)


def _cityblock_ranking(ctr: np.ndarray, n: int):
    """Rank cityblock by the exact kernel's own |x - c| terms, summed by BLAS.

    The exact kernel's (rows, k, d) broadcast runs numpy inner loops only d
    long. Here each center is subtracted from the whole block as one
    contiguous vector against that center tiled across the rows, and each
    row's d terms are summed by a matrix-vector product with ones.
    """
    k, d = ctr.shape
    # the tiles, the difference buffer and the (k, rows) ranking together
    # take at most _BLOCK_BYTES, and small inputs build only n rows of them
    step = _block_rows(ctr.nbytes + 8 * (d + k))
    rows = min(step, n)
    tiles = np.tile(ctr, (1, rows))
    diff = np.empty(rows * d)
    sums = np.empty((k, rows))
    ones = np.ones(d)
    # Why a row with (1 - c)*s2 - s1 > 4*tiny keeps its argmin a, for
    # c = (2d + 8)*eps. Notation as above; a_t = |fl(x_t - c_t)|, T_j the
    # true sum of center j's a_t, e_j the exact kernel's sum and r_j = g_j
    # this ranking's. Both paths compute the same a_t, with the same
    # subtraction, and add the same d non-negative terms, only in different
    # orders (a product with 1.0 is exact, with or without FMA). Any order
    # errs by at most gamma_(d-1)*T_j, also under gradual underflow, since
    # an addition whose result is subnormal is exact. So for b != a,
    # e_b >= (1 - gamma)/(1 + gamma)*r_b and e_a <= (1 + gamma)/(1 - gamma)*s1,
    # and e_b > e_a, which leaves no tie to break, once
    # (1 - 4*gamma)*r_b > s1. The bound is relative, with no |x|^2 term,
    # so data far from the origin certifies as well as data near it. The
    # test's own rounding (1 - c, its product with s2 and an underflow of
    # at most 2^-1075, covered by 4*tiny) needs about 2u more, and
    # 4*gamma + 2u <= (2d - 1)*eps + O(eps^2), which c exceeds by 9*eps to
    # cover the second-order terms. An r_b that overflows
    # to inf has T_b >= MAX/(1 + gamma) or e_b = inf, so _certify may cap
    # s2 at MAX: a certified s1 < (1 - c)*MAX still gives e_b > e_a.
    c = (2 * d + 8) * _EPS

    def rank(block: np.ndarray):
        m = block.shape[0]
        flat = block.reshape(-1)
        part = diff[: m * d]
        g = sums[:, :m]
        for j in range(k):
            np.subtract(flat, tiles[j, : m * d], out=part)
            np.abs(part, out=part)
            np.matmul(part.reshape(m, d), ones, out=g[j])
        return g.T, c, 4.0 * _TINY

    return rank, step


_RANKINGS = {
    EUCLIDEAN: _squared_ranking,
    SQEUCLIDEAN: _squared_ranking,
    DSD: _squared_ranking,
    CITYBLOCK: _cityblock_ranking,
}


def _certify(g: np.ndarray, c: float, slack: float) -> tuple[np.ndarray, np.ndarray]:
    """Each row's argmin of g, and a mask of the rows where it is proven
    to equal the exact kernel's: (1 - c)*s2 - s1 > slack for the two
    smallest values s1 <= s2. g is overwritten."""
    rows = np.arange(g.shape[0])
    nearest = np.argmin(g, axis=1)
    s1 = g[rows, nearest]
    # s2 is capped at the largest float, also when there is one center
    g[rows, nearest] = _MAX
    s2 = np.min(g, axis=1)
    # NaN fails the comparison, so rows with NaN go to the exact kernel
    return nearest, (1.0 - c) * s2 - s1 > slack


# Overflow, and the NaN it can lead to, never passes silently here: in the
# ranking it only sends a row to the exact kernel, and a non-finite nearest
# distance from the exact kernel is rejected.
@np.errstate(over="ignore", invalid="ignore")
def nearest_centers(spec: DistanceSpec, points, centers) -> np.ndarray:
    """Index of each point's nearest center, ties to the lowest index.

    Bitwise equal to np.argmin(pairwise_distances(spec, points, centers),
    axis=1). Each row block of the euclidean, sqeuclidean and dsd kinds is
    ranked by one matrix product, and of cityblock by k contiguous |x - c|
    passes and a matrix-vector row sum; only rows whose top-two gap is
    within the rounding bound are recomputed exactly. chebyshev and
    minkowski are computed exactly. Raises ValueError when a point's
    nearest distance is not finite.
    """
    pts, ctr = _point_arrays(points, centers)
    if ctr.shape[0] == 0:
        raise ValueError("at least one centroid is required")
    labels = np.empty(pts.shape[0], dtype=np.intp)
    ranking = _RANKINGS.get(spec.kind)
    if ranking is None:
        rank, step = None, _block_rows(ctr.nbytes)
    else:
        rank, step = ranking(ctr, pts.shape[0])
    for start in range(0, pts.shape[0], step):
        block = pts[start : start + step]
        out = labels[start : start + step]
        exact = np.arange(block.shape[0])
        if rank is not None:
            out[:], certified = _certify(*rank(block))
            exact = exact[~certified]
            if exact.size == 0:
                continue
            block = block[exact]
        dist = pairwise_distances(spec, block, ctr)
        nearest = np.argmin(dist, axis=1)
        bad = ~np.isfinite(dist[np.arange(exact.size), nearest])
        if bad.any():
            row = start + int(exact[np.argmax(bad)])
            raise ValueError(
                f"point {row} has no finite distance to any centroid: the "
                "distances overflow float64 (or the data is not finite); "
                "normalize the data"
            )
        out[exact] = nearest
    return labels
