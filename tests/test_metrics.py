import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matclust import kmeans, metrics
from matclust.metrics import (
    DSD,
    METRIC_KINDS,
    DistanceSpec,
    certificate_norms,
    distance,
    nearest_centers,
    pairwise_distances,
)

# 25^(1.523/3) evaluated at 60 decimal digits with mpmath, frozen here
DSD_1523_ORACLE = 5.124925356970033

ALL_SPECS = [
    DistanceSpec("euclidean"),
    DistanceSpec("sqeuclidean"),
    DistanceSpec("cityblock"),
    DistanceSpec("chebyshev"),
    DistanceSpec("minkowski", 2.5),
    DistanceSpec("dsd", 1.523),
]

TRIANGLE_SPECS = [
    DistanceSpec("euclidean"),
    DistanceSpec("cityblock"),
    DistanceSpec("chebyshev"),
    DistanceSpec("minkowski", 1.0),
    DistanceSpec("minkowski", 3.5),
    DistanceSpec("dsd", 1.0),
    DistanceSpec("dsd", 1.25),
    DistanceSpec("dsd", 1.5),
]


# entries on a 1e-6 grid in [0, 1]: squared differences stay far from the
# subnormal range, so "zero distance iff equal" is testable in float64
unit_floats = st.integers(min_value=0, max_value=10**6).map(lambda i: i / 10**6)


def vector_pairs():
    return st.integers(min_value=1, max_value=25).flatmap(
        lambda n: st.tuples(
            st.lists(unit_floats, min_size=n, max_size=n),
            st.lists(unit_floats, min_size=n, max_size=n),
        )
    )


def vector_triples():
    return st.integers(min_value=1, max_value=25).flatmap(
        lambda n: st.tuples(
            *(st.lists(unit_floats, min_size=n, max_size=n) for _ in range(3))
        )
    )


def reference_distances(spec, points, centers):
    """The (rows, k, d) broadcast formula that the exact core replaced,
    kept as the reference it must equal bitwise."""
    diffs = np.asarray(points, float)[:, None, :] - np.asarray(centers, float)[None, :, :]
    if spec.kind in ("euclidean", "sqeuclidean", "dsd"):
        sq = np.sum(diffs * diffs, axis=-1)
        if spec.kind == "euclidean":
            return np.sqrt(sq)
        return np.power(sq, float(spec.p) / 3.0) if spec.kind == "dsd" else sq
    a = np.abs(diffs)
    if spec.kind == "cityblock":
        return np.sum(a, axis=-1)
    if spec.kind == "chebyshev":
        return np.max(a, axis=-1)
    m = np.max(a, axis=-1, keepdims=True)
    scaled = np.divide(a, m, out=np.zeros_like(a), where=m > 0)
    p = float(spec.p)
    return np.squeeze(m, axis=-1) * np.power(np.sum(scaled**p, axis=-1), 1.0 / p)


class TestValidateSpec:
    """A DistanceSpec checks its kind and p when it is built."""

    def test_recommended_operating_point_accepted(self):
        assert DistanceSpec(DSD, 1.523).p == 1.523

    def test_dsd_p_below_one_rejected(self):
        with pytest.raises(ValueError, match="below 1"):
            DistanceSpec(DSD, 0.5)

    def test_dsd_p_above_three_rejected(self):
        with pytest.raises(ValueError, match="above 3"):
            DistanceSpec(DSD, 3.01)

    def test_minkowski_p2_accepted(self):
        assert DistanceSpec("minkowski", 2).p == 2

    @pytest.mark.parametrize("kind", [DSD, "minkowski"])
    @pytest.mark.parametrize("p", [2, np.float32(1.523), np.int64(3), np.float64(2)], ids=repr)
    def test_p_stored_as_float(self, kind, p):
        spec = DistanceSpec(kind, p)
        assert type(spec.p) is float and spec.p == float(p)

    @pytest.mark.parametrize("kind", [DSD, "minkowski"])
    @pytest.mark.parametrize(
        "p, message",
        [
            (True, "parameter p must be a real number, got True"),
            ("2", "parameter p must be a real number, got '2'"),
            (None, "metric {kind!r} requires parameter p"),
            (0.5 + 0j, "parameter p must be a real number, got (0.5+0j)"),
            (10**400, f"parameter p must be finite, got {10**400}"),
            (math.nan, "parameter p must be finite, got nan"),
            (math.inf, "parameter p must be finite, got inf"),
            (-math.inf, "parameter p must be finite, got -inf"),
        ],
        ids=["True", "'2'", "None", "0.5+0j", "10**400", "nan", "inf", "-inf"],
    )
    def test_p_that_is_not_a_real_number_rejected_by_value(self, kind, p, message):
        with pytest.raises(ValueError) as raised:
            DistanceSpec(kind, p)
        assert str(raised.value) == message.format(kind=kind)

    def test_minkowski_p_below_one_rejected(self):
        with pytest.raises(ValueError, match="below 1"):
            DistanceSpec("minkowski", 0.99)

    def test_nonfinite_p_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            DistanceSpec(DSD, math.nan)
        with pytest.raises(ValueError, match="finite"):
            DistanceSpec("minkowski", math.inf)
        with pytest.raises(ValueError, match="finite"):
            DistanceSpec("minkowski", 10**400)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown metric"):
            DistanceSpec("cosine")

    def test_p_on_nonparametric_kind_rejected(self):
        with pytest.raises(ValueError, match="does not take"):
            DistanceSpec("euclidean", 2.0)

    def test_misspelled_kind_rejected_built_or_replaced(self):
        spec = DistanceSpec("euclidean")
        with pytest.raises(ValueError, match="unknown metric kind 'euclidian'"):
            DistanceSpec("euclidian")
        with pytest.raises(ValueError, match="unknown metric kind 'euclidian'"):
            dataclasses.replace(spec, kind="euclidian")

    @pytest.mark.parametrize(
        "kind, p, match",
        [("euclidian", None, "unknown metric kind 'euclidian'"),
         (DSD, 0.5, "dsd parameter p below 1"),
         ("minkowski", 0.5, "minkowski parameter p below 1")],
        ids=["misspelled-kind", "dsd-p-0.5", "minkowski-p-0.5"],
    )
    def test_distance_functions_reject_invalid_spec(self, kind, p, match):
        with pytest.raises(ValueError, match=match):
            distance(DistanceSpec(kind, p), (0.0, 0.0), (3.0, 4.0))
        for call in (pairwise_distances, nearest_centers):
            with pytest.raises(ValueError, match=match):
                call(DistanceSpec(kind, p), [[0.0, 0.0]], [[3.0, 4.0]])


class TestDistanceExamples:
    X, Y = (0.0, 0.0), (3.0, 4.0)

    def test_euclidean_3_4_5(self):
        assert distance(DistanceSpec("euclidean"), self.X, self.Y) == 5.0

    def test_cityblock(self):
        assert distance(DistanceSpec("cityblock"), self.X, self.Y) == 7.0

    def test_chebyshev(self):
        assert distance(DistanceSpec("chebyshev"), self.X, self.Y) == 4.0

    def test_sqeuclidean(self):
        assert distance(DistanceSpec("sqeuclidean"), self.X, self.Y) == 25.0

    def test_dsd_p3_equals_sqeuclidean(self):
        assert distance(DistanceSpec(DSD, 3.0), self.X, self.Y) == 25.0

    def test_dsd_p15_equals_euclidean(self):
        assert distance(DistanceSpec(DSD, 1.5), self.X, self.Y) == 5.0

    def test_dsd_operating_point_against_oracle(self):
        got = distance(DistanceSpec(DSD, 1.523), self.X, self.Y)
        assert got == pytest.approx(DSD_1523_ORACLE, rel=1e-12)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    def test_identity_is_zero(self, spec):
        v = (0.3, 0.7, 0.1)
        assert distance(spec, v, v) == 0.0

    def test_dimension_mismatch_names_both(self):
        with pytest.raises(ValueError, match="2.*3|3.*2"):
            distance(DistanceSpec("euclidean"), (1.0, 2.0), (1.0, 2.0, 3.0))

    def test_nonfinite_entries_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            distance(DistanceSpec("euclidean"), (math.nan, 0.0), (0.0, 0.0))

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError, match="zero-dimension"):
            distance(DistanceSpec("euclidean"), (), ())


class TestPairwise:
    def test_identity_cell(self):
        m = pairwise_distances(DistanceSpec("euclidean"), [[1.0, 2.0]], [[1.0, 2.0]])
        assert m.shape == (1, 1)
        assert m[0, 0] == 0.0

    def test_matches_scalar_example(self):
        m = pairwise_distances(DistanceSpec("euclidean"), [[0.0, 0.0]], [[3.0, 4.0]])
        assert m[0, 0] == 5.0

    def test_empty_points(self):
        m = pairwise_distances(DistanceSpec("euclidean"), np.empty((0, 2)), [[1.0, 2.0]])
        assert m.shape == (0, 1)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    def test_zero_dimension_rejected(self, spec):
        for call in (pairwise_distances, nearest_centers):
            with pytest.raises(ValueError, match="zero-dimension"):
                call(spec, np.empty((3, 0)), np.empty((2, 0)))

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    def test_bitwise_identical_to_scalar(self, spec, monkeypatch):
        rng = np.random.default_rng(7)
        pts = rng.random((30, 9))
        ctr = rng.random((5, 9))
        # 7-row blocks: the 30 rows span four full blocks and a ragged one
        monkeypatch.setattr(metrics, "_BLOCK_BYTES", 7 * 8 * 9)
        m = pairwise_distances(spec, pts, ctr)
        for i in range(pts.shape[0]):
            for j in range(ctr.shape[0]):
                assert m[i, j] == distance(spec, pts[i], ctr[j])

    @pytest.mark.parametrize(
        "call",
        [pairwise_distances, nearest_centers, lambda spec, x, c: kmeans.assign(x, c, spec)],
        ids=["pairwise_distances", "nearest_centers", "assign"],
    )
    @pytest.mark.parametrize(
        "points, centers",
        [
            ([[1.0, 2.0]], [[1.0, 2.0, 3.0]]),
            # zero-width points and zero points of another width were
            # reshaped to the centers' width: 0 rows or labels, not 5 or a misfit
            (np.zeros((5, 0)), np.zeros((2, 3))),
            (np.zeros((0, 5)), np.zeros((2, 3))),
        ],
        ids=["2 against 3 wide", "5 points 0 wide", "0 points 5 wide"],
    )
    def test_dimension_mismatch(self, call, points, centers):
        message = (
            rf"centroids of shape \(\d, 3\) do not fit data of shape "
            rf"{re.escape(str(np.shape(points)))}: both must be 2-D and as wide"
        )
        with pytest.raises(ValueError, match=message):
            call(DistanceSpec("euclidean"), points, centers)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 2.5, 7.0])
    def test_minkowski_equals_out_of_place_reference(self, p):
        rng = np.random.default_rng(31)
        pts = rng.standard_normal((40, 6)) * 10.0 ** rng.integers(-300, 300, (40, 1))
        pts[:5] = pts[5:10]  # rows equal to a center: a scale of 0
        ctr = pts[3:10]
        diffs = np.abs(pts[:, None, :] - ctr[None, :, :])
        m = np.max(diffs, axis=-1, keepdims=True)
        scaled = np.divide(diffs, m, out=np.zeros_like(diffs), where=m > 0)
        expected = np.squeeze(m, axis=-1) * np.power(np.sum(scaled**p, axis=-1), 1.0 / p)
        got = pairwise_distances(DistanceSpec("minkowski", p), pts, ctr)
        assert got.tobytes() == expected.tobytes()


# the squared-Euclidean family at the ends and the middle of the dsd range
NEAREST_SPECS = ALL_SPECS + [DistanceSpec(DSD, 1.0), DistanceSpec(DSD, 3.0)]

CORE_SPECS = NEAREST_SPECS + [DistanceSpec("minkowski", p) for p in (1.0, 1.5, 7.0)]

# the kinds whose ranking is the exact core in float32
SCREENED_SPECS = [DistanceSpec("cityblock"), DistanceSpec("chebyshev")] + [
    DistanceSpec("minkowski", p) for p in (1.0, 1.5, 2.5, 40.0)
]


@st.composite
def core_problems(draw, dim):
    """Signed points and centers of one scale up to overflow, with zero
    rows, points equal to a center and duplicate points."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from(["grid", 0, 8, 150, 200, 307, "max"]))
    if scale == "grid":
        values = rng.integers(-2, 3, (n + k, dim)).astype(np.float64)
    elif scale == "max":  # differences overflow to inf
        values = rng.uniform(-1.0, 1.0, (n + k, dim)) * np.finfo(np.float64).max
    else:
        values = rng.standard_normal((n + k, dim)) * 10.0 ** rng.integers(-scale, scale + 1, (n + k, 1))
    pts, ctr = values[:n], values[n:]
    if draw(st.booleans()):
        pts[0] = ctr[-1]  # a point equal to a center: minkowski's max is 0
    if draw(st.booleans()):
        pts[-1] = 0.0
        ctr[0] = 0.0
    if n > 1 and draw(st.booleans()):
        pts[1] = pts[0]
    return pts, ctr


class TestExactCore:
    def test_row_sum_adds_in_np_sum_order(self):
        rng = np.random.default_rng(2)
        for d in range(1, 301):
            terms = rng.random((6, d)) * 10.0 ** rng.integers(-8, 9, (6, d))
            expected = np.sum(terms, axis=-1)
            assert metrics._row_sum(np.ascontiguousarray(terms.T)).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 7, 8, 9, 25, 128, 129, 300])
    @pytest.mark.parametrize("spec", CORE_SPECS, ids=str)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_equals_the_broadcast_formula(self, spec, dim, data):
        pts, ctr = data.draw(core_problems(dim))
        columns = np.asfortranarray(np.concatenate([pts, pts])).T[:, : len(pts)]
        with np.errstate(over="ignore", invalid="ignore"):
            expected = reference_distances(spec, pts, ctr)
            assert pairwise_distances(spec, pts, ctr).tobytes() == expected.tobytes()
            # a slice of the columns of a larger array, as in a block of column-major points
            assert metrics._exact(spec, columns, ctr).T.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "spec",
        [DistanceSpec("cityblock"), DistanceSpec("chebyshev"), DistanceSpec("minkowski", 1.5),
         DistanceSpec("minkowski", 3.0)],
        ids=str,
    )
    def test_ties_go_to_the_lowest_index(self, spec):
        rng = np.random.default_rng(8)
        pts = rng.integers(-2, 3, (300, 4)).astype(float)
        ctr = rng.integers(-2, 3, (6, 4)).astype(float)
        ctr = np.concatenate([ctr, ctr[:2]])  # duplicated centers tie everywhere
        dist = reference_distances(spec, pts, ctr)
        tied = np.sum(dist == dist.min(axis=1, keepdims=True), axis=1) > 1
        assert tied.sum() >= 30
        assert np.array_equal(nearest_centers(spec, pts, ctr), np.argmin(dist, axis=1))


def exact_nearest(spec, pts, ctr):
    return np.argmin(reference_distances(spec, pts, ctr), axis=1)


@st.composite
def assignment_problems(draw):
    """Points and centers with exact ties, duplicates, midpoints and offsets."""
    n = draw(st.integers(1, 30))
    dim = draw(st.integers(1, 6))
    k = draw(st.integers(1, 5))
    grid = draw(st.booleans())
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if grid:
        pts = rng.integers(0, 4, (n, dim)).astype(np.float64)
        ctr = rng.integers(0, 4, (k, dim)).astype(np.float64)
    else:
        pts = rng.random((n, dim))
        ctr = rng.random((k, dim))
    if draw(st.booleans()):
        ctr = np.concatenate([ctr, ctr[:1]])
    if k > 1 and draw(st.booleans()):
        pts = np.concatenate([pts, (ctr[:1] + ctr[1:2]) / 2])
    offset = draw(st.sampled_from([0.0, 1e6]))
    return pts + offset, ctr + offset


@st.composite
def screen_problems(draw):
    """Points and centers with duplicates, 1-ulp near-ties and attributes of
    mixed magnitudes, from float32's subnormals to beyond its range."""
    n = draw(st.integers(1, 20))
    dim = draw(st.integers(1, 6))
    k = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ctr = rng.random((k, dim))
    pts = np.concatenate([rng.random((n, dim)), ctr])  # a duplicate of each center
    if draw(st.booleans()):  # a duplicated center, and one a ulp from it
        ctr = np.concatenate([ctr, ctr[:1], np.nextafter(ctr[:1], 2.0)])
    if draw(st.booleans()):  # the midpoint of two centers, and a ulp either side
        mid = (ctr[:1] + ctr[-1:]) / 2
        pts = np.concatenate([pts, mid, np.nextafter(mid, -1.0), np.nextafter(mid, 2.0)])
    # powers of two scale exactly above the subnormals, keeping ties and ulp steps
    exponent = st.one_of(st.integers(-160, 160), st.sampled_from([-149, -148, -126, 127, 128, 129]))
    exponents = draw(st.lists(exponent, min_size=dim, max_size=dim))
    scale = 2.0 ** np.array(exponents, dtype=float)
    return pts * scale, ctr * scale


class TestTwoSmallest:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [1, 2, 3, 16, 255, 256, 300])
    @pytest.mark.parametrize("m", [1, 40])
    def test_equals_a_sort(self, dtype, k, m):
        rng = np.random.default_rng(1000 * k + m)
        top = np.finfo(dtype).max
        # few distinct values, so exact ties abound
        pool = np.array([-np.inf, -1.0, -0.0, 0.0, 0.5, 1.0, top, np.inf], dtype=dtype)
        values = pool[rng.integers(0, pool.size, (k, m))]
        if m > 1:
            values[:, 1] = values[0, 1]  # all equal
            values[:, 2] = np.inf  # all equal and beyond the cap
            values[:, 3] = rng.random(k)  # distinct
            values[:, 4] = 1.0
            values[-1, 4] = 0.0  # least only in the last row
            values[:, 5] = 1.0
            values[-2:-1, 5] = -0.0  # a signed-zero tie in the last two rows
            values[-1, 5] = 0.0
            values[rng.integers(0, k), 6] = np.nan
            values[:, 7] = np.nan
        nan = np.isnan(values).any(axis=0)
        row, least, second = metrics._two_smallest(values.copy())
        assert row.dtype == np.intp and least.dtype == second.dtype == dtype
        assert ((row >= 0) & (row < k)).all()
        assert np.isnan(least[nan]).all()
        ordered = np.sort(values, axis=0)
        runner_up = np.minimum(ordered[1], top) if k > 1 else np.full(m, top, dtype=dtype)
        ok = ~nan
        assert np.array_equal(row[ok], np.argmin(values, axis=0)[ok])
        assert (least[ok] == ordered[0, ok]).all()
        assert (second[ok] == runner_up[ok]).all()


class TestNearestCenters:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    def test_ties_beyond_an_eight_bit_index(self, spec):
        # k = 300 centers of 27 grid points, the first 260 on a far grid:
        # nearest centers fall both among the first 44 rows, whose index
        # weights need 9 bits, and past row 255
        rng = np.random.default_rng(12)
        ctr = np.concatenate([rng.integers(5, 8, (260, 3)), rng.integers(0, 3, (40, 3))]) * 1.0
        pts = np.concatenate([rng.integers(5, 8, (200, 3)), rng.integers(0, 3, (200, 3))]) * 1.0
        dist = pairwise_distances(spec, pts, ctr)
        expected = np.argmin(dist, axis=1)
        assert (np.sum(dist == dist.min(axis=1, keepdims=True), axis=1) > 1).sum() >= 300
        assert (expected < 44).any() and (expected > 255).any()
        assert nearest_centers(spec, pts, ctr).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("spec", NEAREST_SPECS, ids=str)
    @settings(max_examples=60, deadline=None)
    @given(problem=assignment_problems())
    def test_equals_exact_argmin(self, spec, problem):
        pts, ctr = problem
        assert np.array_equal(nearest_centers(spec, pts, ctr), exact_nearest(spec, pts, ctr))

    @pytest.mark.parametrize("spec", NEAREST_SPECS, ids=str)
    def test_degenerate_cases(self, spec):
        rng = np.random.default_rng(3)
        a, b = rng.random((2, 4))
        cases = [
            # integer grid: distance ties everywhere
            (rng.integers(0, 3, (40, 4)).astype(float), rng.integers(0, 3, (6, 4)).astype(float)),
            # duplicated centroids, and points at the midpoint of two centroids
            (np.concatenate([np.tile((a + b) / 2, (5, 1)), rng.random((5, 4))]),
             np.stack([b, a, a, b])),
            # offset: the GEMM form cancels catastrophically
            (rng.random((30, 4)) + 1e6, rng.random((3, 4)) + 1e6),
            (rng.random((10, 4)), rng.random((1, 4))),  # k = 1
            (rng.random((1, 4)), rng.random((3, 4))),  # a single row
        ]
        far_points = rng.random((20, 4))
        cases += [
            # distances one ulp apart: 1.5 and the next float up in cityblock
            (np.array([[0.0, 0.0], [9.5, 9.5]]),
             np.array([[1.0, 0.5], [np.nextafter(1.0, 2.0), 0.5], [9.0, 9.0]])),
            # equal real sums that round apart by summation order
            (np.zeros((1, 3)), np.array([[0.1, 0.2, 0.3], [0.3, 0.2, 0.1], [2.0, 2.0, 2.0]])),
            # all centers but the nearest overflowing
            (far_points, np.concatenate([far_points[:1], np.full((2, 4), 1e308),
                                         np.full((1, 4), -1e308)])),
            # a nearest distance at the largest float, or beyond it
            (np.array([[np.finfo(np.float64).max, 0.0]]), np.zeros((1, 2))),
        ]
        for pts, ctr in cases:
            with np.errstate(over="ignore", invalid="ignore"):
                expected = reference_distances(spec, pts, ctr)
            if np.isfinite(expected.min(axis=1)).all():
                assert np.array_equal(nearest_centers(spec, pts, ctr), np.argmin(expected, axis=1))
            else:
                with pytest.raises(ValueError, match="no finite distance"):
                    nearest_centers(spec, pts, ctr)

    @staticmethod
    def exact_rows(monkeypatch, spec, pts, ctr):
        """Rows that nearest_centers computes with the float64 exact core."""
        expected = exact_nearest(spec, pts, ctr)
        seen = []
        core = metrics._exact

        def spy(spec_, columns, centers):
            if columns.dtype == np.float64:
                seen.append(columns.shape[1])
            return core(spec_, columns, centers)

        with monkeypatch.context() as patch:
            patch.setattr(metrics, "_exact", spy)
            labels = nearest_centers(spec, pts, ctr)
        assert np.array_equal(labels, expected)
        return sum(seen)

    @pytest.mark.parametrize(
        "spec", [DistanceSpec("euclidean"), DistanceSpec("sqeuclidean"), DistanceSpec(DSD, 1.523)],
        ids=str,
    )
    def test_fallback_runs_only_where_the_bound_fails(self, spec, monkeypatch):
        rng = np.random.default_rng(5)
        ctr = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        separated = ctr[rng.integers(0, 3, 50)] + 0.01 * rng.random((50, 2))
        assert self.exact_rows(monkeypatch, spec, separated, ctr) == 0
        ties = np.array([[0.5, 0.0], [0.0, 0.5], [0.9, 0.0]])  # two exact ties
        assert self.exact_rows(monkeypatch, spec, ties, ctr) == 2
        # offset by 1e8 the rounding of the GEMM form exceeds the gaps
        assert self.exact_rows(monkeypatch, spec, separated + 1e8, ctr + 1e8) == 50

    @pytest.mark.parametrize("spec", SCREENED_SPECS, ids=str)
    def test_screen_sends_only_open_rows_to_the_exact_core(self, spec, monkeypatch):
        rng = np.random.default_rng(5)
        ctr = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        separated = ctr[rng.integers(0, 3, 50)] + 0.01 * rng.random((50, 2))
        assert self.exact_rows(monkeypatch, spec, separated, ctr) == 0
        ties = np.array([[0.5, 0.0], [0.0, 0.5], [0.9, 0.0]])  # two exact ties
        assert self.exact_rows(monkeypatch, spec, ties, ctr) == 2
        # offset by 1e8, float32 cannot tell the points apart
        assert self.exact_rows(monkeypatch, spec, separated + 1e8, ctr + 1e8) == 50
        # beyond float32's range every row is open; among its subnormals the
        # gaps still exceed the bound
        assert self.exact_rows(monkeypatch, spec, separated * 1e300, ctr * 1e300) == 50
        assert self.exact_rows(monkeypatch, spec, separated * 1e-40, ctr * 1e-40) == 0
        assert self.exact_rows(monkeypatch, spec, ties * 1e-40, ctr * 1e-40) == 2

    @pytest.mark.parametrize("spec", SCREENED_SPECS, ids=str)
    def test_screen_rounding_that_reorders_centers(self, spec, monkeypatch):
        # the nearer center, beyond float32's range, casts to inf
        assert self.exact_rows(monkeypatch, spec, [[3.0e38]], [[0.0], [3.5e38]]) == 1
        # 0.6 and 1.3 times 2^-149 both round to float32's least subnormal,
        # which puts the farther center at distance 0
        tiny = 2.0**-149
        assert self.exact_rows(monkeypatch, spec, [[0.6 * tiny]], [[0.0], [1.3 * tiny]]) == 1

    @pytest.mark.parametrize("spec", SCREENED_SPECS, ids=str)
    def test_float64_overflow_rejected_with_the_same_message(self, spec):
        huge = np.full((2, 2), 1e308)
        message = (
            "point 0 has no finite distance to any centroid: the distances overflow "
            "float64 (or the data is not finite); normalize the data"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            nearest_centers(spec, huge, -huge)

    @pytest.mark.parametrize("spec", SCREENED_SPECS, ids=str)
    @settings(max_examples=60, deadline=None)
    @given(problem=screen_problems())
    def test_screen_equals_exact_argmin(self, spec, problem):
        pts, ctr = problem
        expected = np.argmin(pairwise_distances(spec, pts, ctr), axis=1)
        assert np.array_equal(nearest_centers(spec, pts, ctr), expected)

    def test_certificate_norms(self):
        pts = np.array([[3.0, -4.0], [0.0, 0.5]])
        for spec in (DistanceSpec("euclidean"), DistanceSpec("sqeuclidean"), DistanceSpec(DSD, 2)):
            assert certificate_norms(spec, pts).tolist() == [25.0, 0.25]
        for spec in SCREENED_SPECS:
            assert certificate_norms(spec, pts).tolist() == [7.0, 0.5]

    @pytest.mark.parametrize("spec", NEAREST_SPECS, ids=str)
    def test_row_blocks(self, spec, monkeypatch):
        rng = np.random.default_rng(9)
        pts = rng.integers(0, 3, (30, 3)).astype(float)
        pts[::4] = rng.random((8, 3))
        ctr = rng.integers(0, 3, (5, 3)).astype(float)
        # 7-row blocks: the 30 rows span four full blocks and a ragged one,
        # and products of 3 rows leave a ragged one in each block
        monkeypatch.setattr(metrics, "_BLOCK_BYTES", 7 * 8 * 3)
        monkeypatch.setattr(metrics, "_PRODUCT_BYTES", 3 * 8 * 3 * 16)
        assert np.array_equal(nearest_centers(spec, pts, ctr), exact_nearest(spec, pts, ctr))

    @pytest.mark.parametrize("spec", NEAREST_SPECS, ids=str)
    def test_non_finite_nearest_distance_rejected(self, spec):
        ctr = np.array([[0.0, 0.0], [1.0, 1.0]])
        pts = np.array([[0.5, 0.2], [np.nan, 0.0], [0.1, 0.1]])
        with pytest.raises(ValueError, match="point 1 has no finite distance"):
            nearest_centers(spec, pts, ctr)
        huge = np.full((2, 2), 1e308)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="overflow"):
            nearest_centers(spec, huge, -huge)

    @pytest.mark.parametrize("spec", NEAREST_SPECS, ids=str)
    def test_no_points(self, spec):
        labels = nearest_centers(spec, np.empty((0, 3)), np.ones((2, 3)))
        assert labels.shape == (0,)

    def test_zero_centers_rejected(self):
        with pytest.raises(ValueError, match="at least one centroid"):
            nearest_centers(DistanceSpec("euclidean"), [[1.0]], np.empty((0, 1)))


class TestPowBudget:
    """The accuracy of np.power that _screen_test's bound for minkowski
    assumes, in a format of unit roundoff v: `r **= p` within 2v of r^p for
    r in [0, 1], and np.power(S, 1.0 / p) within 4v of S^h relatively for S
    in [1, 2^18], h being 1/p as the format holds it. numpy picks these
    loops by the CPU's SIMD extensions at run time (`numpy.show_runtime()`
    lists them), so the budget is checked where the tests run."""

    @staticmethod
    def errors(dtype, reference, p):
        v = float(np.finfo(dtype).eps) / 2
        tiny = float(np.finfo(dtype).smallest_subnormal)
        r = np.concatenate([np.linspace(0, 1, 2**16 + 1), np.geomspace(tiny, 1, 2**14)])
        r = r.astype(dtype)
        powered = r.copy()
        powered **= p
        pow_error = np.abs(powered - np.power(r.astype(reference), reference(p))).max()
        s = np.geomspace(1, 2**18, 2**16).astype(dtype)
        exact = np.power(s.astype(reference), reference(dtype(1.0 / p)))
        root_error = (np.abs(np.power(s, 1.0 / p) - exact) / exact).max()
        return float(pow_error) / v, float(root_error) / v

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.5, 40.0])
    def test_float32(self, p):
        pow_error, root_error = self.errors(np.float32, np.float64, p)
        assert pow_error <= 2 and root_error <= 4

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.5, 40.0])
    def test_float64(self, p):
        if np.finfo(np.longdouble).nmant < 63:
            pytest.skip("the reference needs an 80-bit long double")
        pow_error, root_error = self.errors(np.float64, np.longdouble, p)
        assert pow_error <= 2 and root_error <= 4


class TestAxioms:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    @settings(max_examples=100, deadline=None)
    @given(pair=vector_pairs())
    def test_symmetry_exact(self, spec, pair):
        x, y = pair
        assert distance(spec, x, y) == distance(spec, y, x)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    @settings(max_examples=100, deadline=None)
    @given(pair=vector_pairs())
    def test_nonnegative_and_identity(self, spec, pair):
        x, y = pair
        d = distance(spec, x, y)
        assert d >= 0.0
        if x == y:
            assert d == 0.0
        if d == 0.0:
            assert np.array_equal(np.float64(x), np.float64(y))

    @pytest.mark.parametrize("spec", TRIANGLE_SPECS, ids=str)
    @settings(max_examples=100, deadline=None)
    @given(triple=vector_triples())
    def test_triangle_inequality(self, spec, triple):
        x, y, z = triple
        dxz = distance(spec, x, z)
        dxy = distance(spec, x, y)
        dyz = distance(spec, y, z)
        assert dxz <= dxy + dyz + 1e-12 * (dxy + dyz + 1)


class TestTriangleWitnesses:
    # collinear 1-D points 0, 1, 2
    A, B, C = (0.0,), (1.0,), (2.0,)

    def test_sqeuclidean_fails_triangle(self):
        spec = DistanceSpec("sqeuclidean")
        assert distance(spec, self.A, self.C) == 4.0
        assert distance(spec, self.A, self.B) + distance(spec, self.B, self.C) == 2.0

    @pytest.mark.parametrize("p", [1.523, 1.6, 2.0, 3.0])
    def test_dsd_above_p15_fails_triangle(self, p):
        spec = DistanceSpec(DSD, p)
        via = distance(spec, self.A, self.B) + distance(spec, self.B, self.C)
        direct = distance(spec, self.A, self.C)
        assert direct == pytest.approx(2.0 ** (2.0 * p / 3.0), rel=1e-12)
        assert direct > via


class TestFamilyCoincidences:
    @pytest.mark.parametrize(
        "left,right",
        [
            (DistanceSpec(DSD, 3.0), DistanceSpec("sqeuclidean")),
            (DistanceSpec(DSD, 1.5), DistanceSpec("euclidean")),
            (DistanceSpec("minkowski", 1.0), DistanceSpec("cityblock")),
            (DistanceSpec("minkowski", 2.0), DistanceSpec("euclidean")),
        ],
        ids=["dsd3=sqeuclid", "dsd1.5=euclid", "mink1=cityblock", "mink2=euclid"],
    )
    def test_coincidence(self, left, right):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 26))
            x, y = rng.random(n), rng.random(n)
            a = distance(left, x, y)
            b = distance(right, x, y)
            assert a == pytest.approx(b, rel=1e-12)

    def test_chebyshev_is_minkowski_limit(self):
        rng = np.random.default_rng(13)
        m64 = DistanceSpec("minkowski", 64.0)
        cheb = DistanceSpec("chebyshev")
        for _ in range(300):
            n = int(rng.integers(1, 26))
            x, y = rng.random(n), rng.random(n)
            c = distance(cheb, x, y)
            assert abs(distance(m64, x, y) - c) <= 0.05 * c


class TestScaleCovariance:
    @pytest.mark.parametrize(
        "spec,q",
        [
            (DistanceSpec("euclidean"), 1.0),
            (DistanceSpec("cityblock"), 1.0),
            (DistanceSpec("chebyshev"), 1.0),
            (DistanceSpec("minkowski", 2.5), 1.0),
            (DistanceSpec("sqeuclidean"), 2.0),
            (DistanceSpec(DSD, 1.523), 2.0 * 1.523 / 3.0),
            (DistanceSpec(DSD, 3.0), 2.0),
        ],
        ids=str,
    )
    def test_homogeneity_degree(self, spec, q):
        rng = np.random.default_rng(17)
        for alpha in (0.25, 2.0, 7.5):
            x, y = rng.random(8), rng.random(8)
            scaled = distance(spec, alpha * x, alpha * y)
            assert scaled == pytest.approx(alpha**q * distance(spec, x, y), rel=1e-12)


def test_external_kind_names():
    assert METRIC_KINDS == (
        "euclidean",
        "sqeuclidean",
        "cityblock",
        "chebyshev",
        "minkowski",
        "dsd",
    )
