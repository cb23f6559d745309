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
is built, so neither checks it again. nearest_centers first ranks the
centers cheaply: by a matrix product for the euclidean family, and by the
core itself on a float32 copy of each row block for cityblock, chebyshev
and minkowski. Only rows that its rounding bound leaves open get the
float64 core. Each ranked (k, m) block yields every point's nearest and
runner-up center from a few whole-block reductions over its k rows
(_two_smallest), with no Python loop over the centers.

This module alone decides when a distance pass splits. Called on the
main thread, pairwise_distances and nearest_centers split an input of two
or more row blocks into one contiguous range of whole blocks per CPU that
the process may run on (usable_cpus). The main thread runs the first
range and a module-level thread pool the others; numpy releases the GIL
inside each call over a block. Called on any other thread, as a sweep
cell on one of its --jobs workers is, a pass runs whole on that thread,
whose owner spreads its own work over the CPUs. Every block writes
only its own rows, and the float64 core computes each distance alone, so
every distance and label is bitwise the same for any number of ranges.
"""

from __future__ import annotations

import math
import numbers
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import partial

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


def block_rows(height: int) -> int:
    """Points per block of a (height, points) scratch array: the core's d
    differences, the ranking's k values or outlier profiling's d residuals,
    per point."""
    return max(1, _BLOCK_BYTES // (8 * max(1, height)))


def usable_cpus() -> int:
    """The CPUs this process may run on: the size of its affinity mask, or
    the machine's CPU count where the platform has no such mask."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# Runs every range of a split but the first. It starts no thread until a
# split first submits to it; should the affinity mask grow, the extra
# ranges queue.
_RANGE_POOL = ThreadPoolExecutor(
    max_workers=max(1, usable_cpus() - 1), thread_name_prefix="matclust-rows"
)


def _in_ranges(run, n: int, step: int) -> None:
    """Call run(start, stop) over rows 0 .. n, which form blocks of step rows.

    On the main thread, two or more blocks are split into one contiguous
    range of whole blocks per usable CPU, at most one range per block. The
    main thread runs the first range and _RANGE_POOL the others, each
    under the caller's numpy error state, which a thread does not inherit.
    Any other thread runs all n rows itself. run must write only to its
    own rows, so the result is the same for any split. Returns when every
    range is done, raising the error of the first range that failed.
    """
    blocks = -(-n // step)
    serial = blocks < 2 or threading.current_thread() is not threading.main_thread()
    ranges = 1 if serial else min(blocks, usable_cpus())
    if ranges < 2:
        run(0, n)
        return
    cuts = [min(n, blocks * i // ranges * step) for i in range(ranges + 1)]
    state = np.geterr()

    def task(start: int, stop: int) -> None:
        with np.errstate(**state):
            run(start, stop)

    futures = [
        _RANGE_POOL.submit(task, start, stop) for start, stop in zip(cuts[1:-1], cuts[2:])
    ]
    try:
        run(cuts[0], cuts[1])
    finally:
        wait(futures)
    for future in futures:
        future.result()


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
    columns, a (d, m) array; m is at most block_rows(d). Computed in the
    dtype of columns and centers: float64, or float32 for the screen of
    nearest_centers.

    The one exact core: every distance in this module is computed here.
    Per center it subtracts the center from the columns, takes abs, the
    square or minkowski's scaled power in place and folds the d rows, or
    for chebyshev takes their max; euclidean and dsd then take the root or
    power of the sums. In float64 the fold is _row_sum, so each step
    computes the same values as the (rows, k, d) broadcast formula, and
    the results are bitwise its own. In float32 it is one np.add.reduce
    over the rows, which adds them one after another: _screen_test's bound
    holds for any order of the d terms, and one call per center holds the
    GIL less often than _row_sum's few per center, so row ranges on
    different threads overlap.
    """
    d, m = columns.shape
    out = np.empty((centers.shape[0], m), dtype=columns.dtype)
    diff = np.empty((d, m), dtype=columns.dtype)
    fold = _row_sum if columns.dtype == np.float64 else partial(np.add.reduce, axis=0)
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
            np.multiply(top, np.power(fold(diff), 1.0 / p), out=out[j])
        else:
            out[j] = fold(diff)
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
    is reduced on its own, whichever row block, and whichever thread's range
    of blocks, it falls in.
    """
    pts, ctr = _point_arrays(points, centers)
    out = np.empty((pts.shape[0], ctr.shape[0]))
    step = block_rows(ctr.shape[1])

    def fill(start: int, stop: int) -> None:
        for begin in range(start, stop, step):
            rows = slice(begin, begin + step)
            out[rows] = _exact(spec, pts[rows].T, ctr).T

    _in_ranges(fill, pts.shape[0], step)
    return out


_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)


# a norm that overflows is inf, which certifies no row
@np.errstate(over="ignore")
def certificate_norms(spec: DistanceSpec, points) -> np.ndarray:
    """The row norms that nearest_centers' certificate uses for this kind:
    |x|^2 of each point for euclidean, sqeuclidean and dsd, and its l1
    norm, the sum of |x_t|, for cityblock, chebyshev and minkowski. A
    caller that assigns one dataset many times computes them once and
    passes them on."""
    pts = np.asarray(points, dtype=np.float64)
    if spec.kind in _SQUARED_FAMILY:
        return np.einsum("ij,ij->i", pts, pts)
    norms = np.empty(pts.shape[0])
    step = block_rows(pts.shape[1])  # no n x d temporary
    for start in range(0, pts.shape[0], step):
        rows = slice(start, start + step)
        np.sum(np.abs(pts[rows]), axis=1, out=norms[rows])
    return norms


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


# float32's unit roundoff
_U32 = 2.0**-24


def _screen_test(
    spec: DistanceSpec, d: int, pts_l1: np.ndarray, ctr_l1: float
) -> tuple[float, np.ndarray]:
    """c and the slack of the float32 screen for rows with these l1 norms,
    against centers whose largest l1 norm is ctr_l1.

    A row whose float32 distances f_j (the exact core run on float32
    copies of the row and the centers) have the two smallest s1 <= s2
    keeps the argmin a of f when (1 - c)*s2 - s1 > kappa*u*N + (d + 1)*2^-147,
    with u = 2^-24, N = |x|_1 + max_j |c_j|_1, c = (5d + 8)*2^-52 and kappa
    3d + 3 for cityblock, 6 for chebyshev and 18 + 10d/p for minkowski.
    Why. Notation: v the unit roundoff of a format (u for float32, 2^-53
    for float64), gamma_n = n*v/(1 - n*v), y_t = |x_t - c_t| for a center
    c, D = sum_t y_t, max_t y_t or |y|_p its true distance and e its float64
    distance. The bound assumes (d + p)*u <= 2^-6, with p = 0 but for
    minkowski; beyond it the slack is inf. So gamma_n <= 1.016*n*v for
    n <= d, and (1 + v)^p <= 1 + 1.016*p*v.
    1. Casts and differences. A float32 cast errs by at most u*|x_t| +
       2^-150. A float32 difference, sum, quotient or product errs by u
       relatively, and a difference or sum whose result is subnormal is
       exact. So the float32 terms a_t = fl(|x'_t - c'_t|) have
       sum_t |a_t - y_t| <= E := 2.0001*u*N + 1.0001*d*2^-149, as
       sum_t (|x_t| + |c_t|) <= N, and sum_t a_t <= (1 + 2.01u)*N.
    2. cityblock sums the a_t in some order: |f - D| <= gamma_(d-1)*(1 +
       2.01u)*N + E <= (1.02d + 1)*u*N + 1.02*d*2^-149. chebyshev's max
       is exact: |f - D| <= E.
    3. minkowski divides by top = max_t a_t, raises to p, sums to S_c and
       returns top * S_c^h, h being 1/p as the format holds it. It assumes
       that `r **= p` errs by at most 2v for r in [0, 1] and that S^h errs
       by at most 4v relatively for S in [1, 2^18]; TestPowBudget checks
       both, in float32 and float64. S = sum_t (a_t/top)^p >= 1, as the
       top term is exactly 1. The quotients' relative v, raised to p, the
       powers' absolute 2v and the sum's gamma_(d-1) give |S_c - S| <=
       eta*S, eta = 1.04*(p + 3d)*v < 0.05; subnormal quotients add under
       d*2^-149, which the 1.04 covers. The root turns eta into at most
       1.06*eta/p, and the rounding of h costs at most ln(S_c)*v/p <=
       1.01*d*v/p. With the root's 4v and the product's v, f is within
       (6.2 + 4.4d/p)*v of |a|_p relatively, plus 2^-150 for a subnormal
       result. As |a|_p <= sum_t a_t and | |a|_p - D | <= E, |f - D| <=
       (8.3 + 4.5d/p)*u*N + (d + 1)*2^-149. The float64 core takes the
       same steps on exact inputs: |e - D| <= (7.2 + 4.4d/p)*2^-53*D +
       2^-1075.
    So |f_j - D_j| <= A := K*u*N + (d + 1)*2^-149 with 2K + 1 <= kappa,
    and |e_j - D_j| <= rho*D_j + 2^-1075 with 2*rho <= c: for cityblock
    rho = gamma_d, for chebyshev 2^-53. For a center b other than a, f_b
    >= s2 and f_a = s1, so D_b - D_a >= f_b - s1 - 2A and D_b <= f_b + A.
    The test, whose left side grows with f_b, then gives (1 - 2*rho)*f_b -
    s1 > 2*(1 + rho)*A + 2^-1074, so e_b > e_a: the float64 argmin is a,
    and no tie is left for the lowest index to break. The + 1 in kappa
    covers the float64 rounding of N, of the slack and of the test, and
    (d + 1)*2^-147 covers the rest of the right side. Where N >= 2^126 a
    float32 value could overflow; the slack is inf there, so a certified
    row's distances are all finite, and a NaN norm certifies nothing.
    """
    p = spec.p if spec.kind == MINKOWSKI else 0.0
    if (d + p) * _U32 > 2.0**-6:
        return 0.0, np.full(pts_l1.shape, np.inf)
    if spec.kind == MINKOWSKI:
        kappa = 18 + 10 * d / p
    else:
        kappa = 3 * d + 3 if spec.kind == CITYBLOCK else 6
    norm = pts_l1 + ctr_l1
    slack = np.where(norm < 2.0**126, kappa * _U32 * norm + (d + 1) * 2.0**-147, np.inf)
    return (5 * d + 8) * _EPS, slack


def _two_smallest(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each column of a (k, m) array: the row of its least value, ties
    to the lowest row, that value, and the least of the other rows' values
    capped at the largest float of values' dtype. values is overwritten.

    Whole-block reductions over axis 0, each of which numpy runs as an
    elementwise fold of contiguous rows: the least value; the first row
    equal to it, as the largest of the hits weighted k - 1 - row in the
    smallest unsigned type that holds k - 1; then, with that one entry
    set to the dtype's max, the least again, which is the runner-up. A
    tie keeps its second entry, so the runner-up equals the least value.
    -0.0 and +0.0 are equal here, so either may be returned for a zero.
    A column with a NaN has a NaN least value and no hit, so its row is
    k - 1, in range; a caller never certifies such a column.
    """
    k, m = values.shape
    top = np.finfo(values.dtype).max
    least = values.min(axis=0)
    weight = np.arange(k - 1, -1, -1, dtype=np.min_scalar_type(k - 1))[:, None]
    row = np.subtract(k - 1, np.multiply(values == least, weight).max(axis=0), dtype=np.intp)
    values[row, np.arange(m)] = top
    second = values.min(axis=0)
    np.minimum(second, top, out=second)
    return row, least, second


# Overflow, and the NaN it can lead to, never passes silently here: in the
# ranking it only sends a row to the exact core, and a non-finite nearest
# distance from the exact core is rejected.
@np.errstate(over="ignore", invalid="ignore")
def nearest_centers(spec: DistanceSpec, points, centers, row_norms=None) -> np.ndarray:
    """Index of each point's nearest center, ties to the lowest index.

    Bitwise equal to np.argmin(pairwise_distances(spec, points, centers),
    axis=1). Each row block is ranked cheaply: for the euclidean,
    sqeuclidean and dsd kinds by one matrix product, -2C @ columns plus the
    squared norms; for cityblock, chebyshev and minkowski by the exact core
    on a float32 copy of the block. Only rows whose top-two gap is within
    the rounding bound of _squared_test or _screen_test get the float64
    exact core, which settles them at the end of the range of blocks that
    ranked them (_in_ranges). row_norms, if given, must be
    certificate_norms(spec, points). Raises ValueError when a point's
    nearest distance is not finite.
    """
    pts, ctr = _point_arrays(points, centers)
    if ctr.shape[0] == 0:
        raise ValueError("at least one centroid is required")
    columns = np.asfortranarray(pts).T
    (n, d), k = pts.shape, ctr.shape[0]
    if row_norms is None:
        row_norms = certificate_norms(spec, pts)
    if spec.kind in _SQUARED_FAMILY:
        ctr_sq = np.einsum("ij,ij->i", ctr, ctr)[:, None]
        ctr_minus2 = -2.0 * ctr
        c, slack = _squared_test(d, row_norms, ctr_sq.max())
        step = block_rows(k)

        def rank(rows: slice, stage: np.ndarray | None) -> np.ndarray:
            g = _product(ctr_minus2, columns[:, rows])
            g += row_norms[rows]
            g += ctr_sq
            return g
    else:
        ctr32 = ctr.astype(np.float32)
        c, slack = _screen_test(spec, d, row_norms, np.abs(ctr).sum(axis=1).max())
        step = block_rows(d)

        def rank(rows: slice, stage: np.ndarray | None) -> np.ndarray:
            block = columns[:, rows]
            staged = stage[:, : block.shape[1]]
            np.copyto(staged, block, casting="same_kind")
            return _exact(spec, staged, ctr32)

    labels = np.empty(n, dtype=np.intp)
    certified = np.empty(n, dtype=bool)
    exact_step = block_rows(d)

    def settle(start: int, stop: int) -> None:
        # the screen stages each block of the range in one float32 buffer
        stage = None if spec.kind in _SQUARED_FAMILY else np.empty(
            (d, min(step, stop - start)), dtype=np.float32
        )
        for begin in range(start, stop, step):
            rows = slice(begin, begin + step)
            labels[rows], s1, s2 = _two_smallest(rank(rows, stage))
            # the screen's s1 and s2 are float32; the test is made in float64
            certified[rows] = (1.0 - c) * s2.astype(np.float64) - s1 > slack[rows]
        # the range's open rows, in calls of up to a block each, lowest first
        exact = start + np.flatnonzero(~certified[start:stop])
        for first in range(0, exact.size, exact_step):
            rows = exact[first : first + exact_step]
            nearest, least, _ = _two_smallest(_exact(spec, columns[:, rows], ctr))
            bad = ~np.isfinite(least)
            if bad.any():
                raise ValueError(
                    f"point {int(rows[np.argmax(bad)])} has no finite distance to any "
                    "centroid: the distances overflow float64 (or the data is not "
                    "finite); normalize the data"
                )
            labels[rows] = nearest

    _in_ranges(settle, n, step)
    return labels
