import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matclust import metrics
from matclust.metrics import (
    DSD,
    METRIC_KINDS,
    DistanceSpec,
    NearestDistances,
    distance,
    nearest_centers,
    pairwise_distances,
    squared_norms,
    validate_spec,
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


class TestValidateSpec:
    def test_recommended_operating_point_accepted(self):
        spec = DistanceSpec(DSD, 1.523)
        assert validate_spec(spec) is spec

    def test_dsd_p_below_one_rejected(self):
        with pytest.raises(ValueError, match="below 1"):
            validate_spec(DistanceSpec(DSD, 0.5))

    def test_dsd_p_above_three_rejected(self):
        with pytest.raises(ValueError, match="above 3"):
            validate_spec(DistanceSpec(DSD, 3.01))

    def test_minkowski_p2_accepted(self):
        assert validate_spec(DistanceSpec("minkowski", 2)) is not None

    def test_minkowski_p_below_one_rejected(self):
        with pytest.raises(ValueError, match="below 1"):
            validate_spec(DistanceSpec("minkowski", 0.99))

    def test_nonfinite_p_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            validate_spec(DistanceSpec(DSD, math.nan))
        with pytest.raises(ValueError, match="finite"):
            validate_spec(DistanceSpec("minkowski", math.inf))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown metric"):
            validate_spec(DistanceSpec("cosine"))

    def test_p_on_nonparametric_kind_rejected(self):
        with pytest.raises(ValueError, match="does not take"):
            validate_spec(DistanceSpec("euclidean", 2.0))


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
    def test_bitwise_identical_to_scalar(self, spec, monkeypatch):
        rng = np.random.default_rng(7)
        pts = rng.random((30, 9))
        ctr = rng.random((5, 9))
        # 7-row blocks: the 30 rows span four full blocks and a ragged one
        monkeypatch.setattr(metrics, "_BLOCK_BYTES", 7 * ctr.nbytes)
        m = pairwise_distances(spec, pts, ctr)
        for i in range(pts.shape[0]):
            for j in range(ctr.shape[0]):
                assert m[i, j] == distance(spec, pts[i], ctr[j])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            pairwise_distances(DistanceSpec("euclidean"), [[1.0, 2.0]], [[1.0, 2.0, 3.0]])

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


def exact_nearest(spec, pts, ctr):
    return np.argmin(pairwise_distances(spec, pts, ctr), axis=1)


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


class TestNearestCenters:
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
        for pts, ctr in cases:
            assert np.array_equal(nearest_centers(spec, pts, ctr), exact_nearest(spec, pts, ctr))

    @staticmethod
    def exact_rows(monkeypatch, spec, pts, ctr):
        """Rows that nearest_centers recomputes with pairwise_distances."""
        seen = []

        def spy(spec_, rows, centers):
            seen.append(len(rows))
            return pairwise_distances(spec_, rows, centers)

        with monkeypatch.context() as patch:
            patch.setattr(metrics, "pairwise_distances", spy)
            labels = nearest_centers(spec, pts, ctr)
        assert np.array_equal(labels, exact_nearest(spec, pts, ctr))
        return sum(seen)

    @pytest.mark.parametrize(
        "spec",
        [DistanceSpec("euclidean"), DistanceSpec("sqeuclidean"), DistanceSpec(DSD, 1.523),
         DistanceSpec("cityblock")],
        ids=str,
    )
    def test_fallback_runs_only_where_the_bound_fails(self, spec, monkeypatch):
        rng = np.random.default_rng(5)
        ctr = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        separated = ctr[rng.integers(0, 3, 50)] + 0.01 * rng.random((50, 2))
        assert self.exact_rows(monkeypatch, spec, separated, ctr) == 0
        ties = np.array([[0.5, 0.0], [0.0, 0.5], [0.9, 0.0]])  # two exact ties
        assert self.exact_rows(monkeypatch, spec, ties, ctr) == 2
        # offset by 1e8 the rounding of the GEMM form exceeds the gaps; the
        # cityblock bound is relative, so the offset leaves it as it is
        offset_rows = 0 if spec.kind == "cityblock" else 50
        assert self.exact_rows(monkeypatch, spec, separated + 1e8, ctr + 1e8) == offset_rows

    def test_cityblock_near_ties_fall_back(self, monkeypatch):
        spec = DistanceSpec("cityblock")
        one_ulp = np.array([[1.0, 0.5], [np.nextafter(1.0, 2.0), 0.5], [9.0, 9.0]])
        pts = np.array([[0.0, 0.0], [9.5, 9.5]])
        # distances 1.5 and the next float up: one ulp apart
        assert pairwise_distances(spec, pts[:1], one_ulp)[0, 1] == np.nextafter(1.5, 2.0)
        assert self.exact_rows(monkeypatch, spec, pts, one_ulp) == 1
        # equal real sums that round apart by summation order
        order = np.array([[0.1, 0.2, 0.3], [0.3, 0.2, 0.1], [2.0, 2.0, 2.0]])
        assert self.exact_rows(monkeypatch, spec, np.zeros((1, 3)), order) == 1
        # one center, or all but one overflowing: certified while the nearest is finite
        rng = np.random.default_rng(11)
        pts = rng.random((20, 4))
        assert self.exact_rows(monkeypatch, spec, pts, pts[:1]) == 0
        far = np.concatenate([pts[:1], np.full((2, 4), 1e308), np.full((1, 4), -1e308)])
        with np.errstate(over="ignore"):  # the reference's far distances overflow
            assert self.exact_rows(monkeypatch, spec, pts, far) == 0
        # the runner-up counts as the largest float, so a nearest distance
        # that close to overflow is recomputed
        huge = np.array([[np.finfo(np.float64).max, 0.0]])
        assert self.exact_rows(monkeypatch, spec, huge, np.zeros((1, 2))) == 1

    def test_other_kinds_take_the_exact_path(self, monkeypatch):
        rng = np.random.default_rng(7)
        pts, ctr = rng.random((20, 3)), rng.random((4, 3))
        for spec in (DistanceSpec("chebyshev"), DistanceSpec("minkowski", 2.5)):
            assert self.exact_rows(monkeypatch, spec, pts, ctr) == 20

    @pytest.mark.parametrize("spec", NEAREST_SPECS, ids=str)
    def test_row_blocks(self, spec, monkeypatch):
        rng = np.random.default_rng(9)
        pts = rng.integers(0, 3, (30, 3)).astype(float)
        pts[::4] = rng.random((8, 3))
        ctr = rng.integers(0, 3, (5, 3)).astype(float)
        # 7-row blocks: the 30 rows span four full blocks and a ragged one
        monkeypatch.setattr(metrics, "_BLOCK_BYTES", 7 * ctr.nbytes)
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

    def test_zero_centers_rejected(self):
        with pytest.raises(ValueError, match="at least one centroid"):
            nearest_centers(DistanceSpec("euclidean"), [[1.0]], np.empty((0, 1)))


class TestNearestDistances:
    @staticmethod
    def exact_rows(monkeypatch, spec, pts, centers):
        """Rows each add recomputes with pairwise_distances; checks dist after each."""
        seen = []

        def spy(spec_, rows, ctr):
            seen[-1] += len(rows)
            return pairwise_distances(spec_, rows, ctr)

        nearest = NearestDistances(spec, pts)
        with monkeypatch.context() as patch:
            patch.setattr(metrics, "pairwise_distances", spy)
            for i in range(len(centers)):
                seen.append(0)
                dist = nearest.add(centers[i])
                reference = np.min(pairwise_distances(spec, pts, centers[: i + 1]), axis=1)
                assert dist.tobytes() == reference.tobytes()
        return seen

    @pytest.mark.parametrize("spec", NEAREST_SPECS, ids=str)
    @settings(max_examples=60, deadline=None)
    @given(problem=assignment_problems())
    def test_equals_min_of_exact_distances(self, spec, problem):
        pts, ctr = problem
        nearest = NearestDistances(spec, pts)
        for i, c in enumerate(ctr):
            reference = np.min(pairwise_distances(spec, pts, ctr[: i + 1]), axis=1)
            assert nearest.add(c).tobytes() == reference.tobytes()

    @pytest.mark.parametrize("spec", NEAREST_SPECS, ids=str)
    def test_row_norms_and_blocks(self, spec, monkeypatch):
        rng = np.random.default_rng(4)
        pts = rng.integers(0, 3, (30, 3)).astype(float)
        pts[::3] = rng.random((10, 3))
        ctr = pts[rng.integers(0, 30, 6)]
        # 7-row exact blocks and 2-row products: ragged blocks everywhere
        monkeypatch.setattr(metrics, "_BLOCK_BYTES", 7 * 24)
        monkeypatch.setattr(metrics, "_GEMV_BYTES_PER_ROW", 7 * 24 // 2 // 3)
        given_norms = NearestDistances(spec, pts, squared_norms(spec, pts))
        own_norms = NearestDistances(spec, pts)
        for i, c in enumerate(ctr):
            reference = np.min(pairwise_distances(spec, pts, ctr[: i + 1]), axis=1)
            assert given_norms.add(c).tobytes() == reference.tobytes()
            assert own_norms.add(c).tobytes() == reference.tobytes()

    @pytest.mark.parametrize(
        "spec", [DistanceSpec("euclidean"), DistanceSpec("sqeuclidean"), DistanceSpec(DSD, 1.523),
                 DistanceSpec(DSD, 1.0), DistanceSpec(DSD, 3.0)], ids=str,
    )
    def test_exact_rows_only_where_the_bound_fails(self, spec, monkeypatch):
        rng = np.random.default_rng(5)
        ctr = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        separated = ctr[rng.integers(0, 4, 200)] + 0.01 * rng.random((200, 2))
        # the first center is computed for every row, and each later one only
        # for the rows it moves nearer
        seen = self.exact_rows(monkeypatch, spec, separated, ctr)
        dist = pairwise_distances(spec, separated, ctr)
        nearer = [int(np.sum(dist[:, i] < dist[:, :i].min(axis=1))) for i in range(1, 4)]
        assert seen == [200, *nearer]
        assert sum(seen) < 3 * 200
        # offset by 1e8 the rounding of the GEMM form exceeds every gap
        seen = self.exact_rows(monkeypatch, spec, separated + 1e8, ctr + 1e8)
        assert seen == [200] * 4

    @pytest.mark.parametrize("spec", [DistanceSpec("euclidean"), DistanceSpec(DSD, 1.0)], ids=str)
    def test_relative_margin(self, spec, monkeypatch):
        # a new center whose squared distance is 1 + 30 eps against a
        # nearest of 1 is within (d + 36) eps + 3A, so it is recomputed;
        # at 1 + 60 eps it is proven no nearer
        eps = np.finfo(np.float64).eps
        pts = np.zeros((1, 1))
        assert self.exact_rows(monkeypatch, spec, pts, np.array([[1.0], [1.0 + 15 * eps]])) == [1, 1]
        assert self.exact_rows(monkeypatch, spec, pts, np.array([[1.0], [1.0 + 30 * eps]])) == [1, 0]

    def test_other_kinds_compute_every_row(self, monkeypatch):
        rng = np.random.default_rng(7)
        pts, ctr = rng.random((20, 3)), rng.random((4, 3))
        for spec in (DistanceSpec("cityblock"), DistanceSpec("chebyshev"),
                     DistanceSpec("minkowski", 2.5)):
            assert self.exact_rows(monkeypatch, spec, pts, ctr) == [20] * 4

    @pytest.mark.parametrize("spec", NEAREST_SPECS, ids=str)
    def test_overflow_and_nan_reach_the_exact_kernel(self, spec):
        huge = np.array([[1e200, -1e200], [0.5, 0.5], [-1e200, 1e200]])
        nearest = NearestDistances(spec, huge)
        with np.errstate(over="ignore", invalid="ignore"):
            for i, c in enumerate(huge):
                reference = np.min(pairwise_distances(spec, huge, huge[: i + 1]), axis=1)
                assert nearest.add(c).tobytes() == reference.tobytes()


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
