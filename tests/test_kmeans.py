import dataclasses
import itertools
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matclust import kmeans, metrics
from matclust.kmeans import (
    DEFAULT_SEED,
    ClusteringConfig,
    assign,
    fit,
    init_centroids,
    sse,
    update_centroids,
)
from matclust.metrics import (
    METRIC_KINDS,
    DistanceSpec,
    certificate_norms,
    nearest_centers,
    pairwise_distances,
)

EUCLID = DistanceSpec("euclidean")
BLOBS_1D = np.array([[0.0], [1.0], [9.0], [10.0]])
ALL_SPECS = [
    DistanceSpec(kind, {"minkowski": 2.5, "dsd": 1.523}.get(kind)) for kind in METRIC_KINDS
]

SEEDING_SPECS = ALL_SPECS + [DistanceSpec("dsd", 1.0), DistanceSpec("dsd", 3.0)]

# the two ways a fit starts: k-means++, or k distinct rows given as initial_centroids
STARTS = ["kmeans-plus-plus", "random-rows"]


def random_rows(data: np.ndarray, k: int, seed: int) -> np.ndarray:
    """k distinct rows of data, chosen by seed."""
    return data[np.random.default_rng(seed).choice(data.shape[0], size=k, replace=False)]


def start_config(start: str, data: np.ndarray, k: int, seed: int = DEFAULT_SEED, **fields):
    """A config that seeds with k-means++, or with random_rows(data, k, seed)."""
    rows = random_rows(data, k, seed) if start == "random-rows" else None
    return ClusteringConfig(k=k, seed=seed, initial_centroids=rows, **fields)


def reference_kmeans_pp(data: np.ndarray, config: ClusteringConfig) -> np.ndarray:
    """k-means++ that recomputes the distances to every chosen centroid."""
    rng = np.random.default_rng(config.seed)
    n = data.shape[0]
    chosen = [int(rng.integers(0, n))]
    for _ in range(1, config.k):
        weights = np.min(pairwise_distances(config.metric, data, data[chosen]), axis=1) ** 2
        total = weights.sum()
        if total > 0:
            chosen.append(int(rng.choice(n, p=weights / total)))
        else:
            chosen.append(int(rng.integers(0, n)))
    return data[chosen]


def reference_fit(data: np.ndarray, config: ClusteringConfig):
    """Plain Lloyd: full distance matrices, np.add.at sums, fit's stopping rule.

    Returns (centroids, assignments, sse history, converged)."""
    if config.initial_centroids is None:
        centroids = reference_kmeans_pp(data, config)
    else:
        centroids = np.array(config.initial_centroids, dtype=np.float64)
    labels, converged, history = None, False, []
    for _ in range(config.max_iter):
        new_labels = np.argmin(pairwise_distances(config.metric, data, centroids), axis=1)
        if labels is not None and np.array_equal(new_labels, labels):
            converged = True
            break
        labels = new_labels
        sums = np.zeros((config.k, data.shape[1]))
        np.add.at(sums, labels, data)
        counts = np.bincount(labels, minlength=config.k)
        new_centroids = np.empty_like(sums)
        for j in range(config.k):
            if counts[j]:
                new_centroids[j] = sums[j] / counts[j]
            else:
                far = pairwise_distances(config.metric, data, centroids[j : j + 1])[:, 0]
                new_centroids[j] = data[np.argmax(far)]
        centroids = new_centroids
        history.append(float(np.sum(np.sum((data - centroids[labels]) ** 2, axis=1))))
    if converged and (np.bincount(labels, minlength=config.k) == 0).any():
        raise ValueError("are empty at convergence")
    return centroids, labels, history, converged


@st.composite
def degenerate_problems(draw):
    """Data with exact ties, duplicates, constant columns, fewer distinct
    points than k and a 1e6 offset, and a k for it."""
    n = draw(st.integers(1, 40))
    dim = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["grid", "few-distinct", "random"]))
    if shape == "grid":  # ties and duplicates everywhere
        data = rng.integers(0, 3, (n, dim)).astype(np.float64)
    elif shape == "few-distinct":
        distinct = draw(st.integers(1, 3))
        data = rng.random((distinct, dim))[rng.integers(0, distinct, n)]
    else:
        data = rng.random((n, dim))
    if draw(st.booleans()):
        data[:, draw(st.integers(0, dim - 1))] = 0.25  # a constant column
    if draw(st.booleans()):
        data = data + 1e6
    return data, draw(st.integers(1, min(n, 6)))


def brute_force_sse(data: np.ndarray, k: int) -> float:
    """Exhaustive minimum SSE over all assignments of points to k clusters."""
    n = data.shape[0]
    best = np.inf
    for labels in itertools.product(range(k), repeat=n):
        labels = np.asarray(labels)
        total = 0.0
        for j in range(k):
            members = data[labels == j]
            if members.shape[0] == 0:
                continue
            mu = members.mean(axis=0)
            total += float(np.sum((members - mu) ** 2))
        best = min(best, total)
    return best


class TestInitCentroids:
    def test_same_seed_same_centroids(self):
        rng = np.random.default_rng(5)
        data = rng.random((50, 3))
        cfg = ClusteringConfig(k=4, metric=EUCLID, seed=99)
        a = init_centroids(data, cfg)
        b = init_centroids(data, cfg)
        assert np.array_equal(a, b)

    def test_kmeans_pp_k1_is_one_row(self):
        data = np.arange(6.0).reshape(-1, 1)
        cfg = ClusteringConfig(k=1, metric=EUCLID, seed=1)
        ctr = init_centroids(data, cfg)
        assert ctr.shape == (1, 1)
        assert float(ctr[0, 0]) in set(data[:, 0])

    def test_k_exceeds_dataset_rejected(self):
        cfg = ClusteringConfig(k=5, metric=EUCLID)
        with pytest.raises(ValueError, match="exceeds dataset size"):
            init_centroids(BLOBS_1D, cfg)

    def test_given_rows_of_the_wrong_width_rejected_at_fit(self):
        cfg = ClusteringConfig(k=2, metric=EUCLID, initial_centroids=np.ones((2, 3)))
        message = r"shape \(2, 3\) but the data has shape \(4, 1\)"
        for call in (fit, init_centroids):
            with pytest.raises(ValueError, match=message):
                call(BLOBS_1D, cfg)

    @pytest.mark.parametrize(
        "given, message",
        [
            (np.ones((3, 1)), r"k = 2 rows, got shape \(3, 1\)"),
            (np.ones(2), r"k = 2 rows, got shape \(2,\)"),
            (np.array([[0.0], [np.nan]]), "initial_centroids have a NaN or infinite entry"),
            (np.array([[-np.inf], [1.0]]), "initial_centroids have a NaN or infinite entry"),
        ],
        ids=["3 rows", "1-D", "nan", "inf"],
    )
    def test_unusable_given_rows_rejected_built_or_replaced(self, given, message):
        with pytest.raises(ValueError, match=message):
            ClusteringConfig(k=2, initial_centroids=given)
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(ClusteringConfig(k=2), initial_centroids=given)

    def test_replacing_k_checks_the_given_rows(self):
        cfg = ClusteringConfig(k=2, initial_centroids=np.ones((2, 1)))
        with pytest.raises(ValueError, match=r"k = 3 rows, got shape \(2, 1\)"):
            dataclasses.replace(cfg, k=3)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    def test_kmeans_pp_matches_full_recompute(self, spec):
        rng = np.random.default_rng(19)
        # duplicated rows give zero weights, as in the degenerate case
        data = np.concatenate([rng.random((60, 3)), np.zeros((10, 3))])
        for seed in range(4):
            for k in (2, 5, 8):
                cfg = ClusteringConfig(k=k, metric=spec, seed=seed)
                assert np.array_equal(init_centroids(data, cfg), reference_kmeans_pp(data, cfg))

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    @settings(max_examples=40, deadline=None)
    @given(problem=degenerate_problems(), seed=st.integers(0, 2**16))
    def test_kmeans_pp_matches_full_recompute_on_degenerate_data(self, spec, problem, seed):
        data, k = problem
        cfg = ClusteringConfig(k=k, metric=spec, seed=seed)
        expected = reference_kmeans_pp(data, cfg)
        assert init_centroids(data, cfg).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    def test_kmeans_pp_draws_as_rng_choice(self, spec):
        rng = np.random.default_rng(41)
        for n in (1, 2, 3, 17, 1000):
            # distinct rows, then copies of them: every chosen row and each
            # of its copies has weight zero at the following steps
            distinct = rng.random(((n + 1) // 2, 3))
            data = np.concatenate([distinct, distinct[: n // 2]])
            for seed in range(6):
                for k in sorted({1, min(n, 2), min(n, 16)}):
                    cfg = ClusteringConfig(k=k, metric=spec, seed=seed)
                    expected = reference_kmeans_pp(data, cfg)
                    assert init_centroids(data, cfg).tobytes() == expected.tobytes(), (n, seed, k)

    @pytest.mark.parametrize("spec", SEEDING_SPECS, ids=str)
    def test_kmeans_pp_computes_each_row_once_per_step(self, spec, monkeypatch):
        rng = np.random.default_rng(23)
        n, k = 800, 16
        means = rng.random((k, 3)) * 10.0
        data = means[rng.integers(0, k, n)] + 0.05 * rng.random((n, 3))
        cfg = ClusteringConfig(k=k, metric=spec, seed=5)
        core = metrics._exact
        for points in (data, data + 1e8):
            expected = reference_kmeans_pp(points, cfg)
            seen = []

            def spy(spec_, columns, centers):
                seen.append((columns.shape[1], centers.shape[0]))
                return core(spec_, columns, centers)

            with monkeypatch.context() as patch:
                patch.setattr(metrics, "_exact", spy)
                chosen = init_centroids(points, cfg)
            assert chosen.tobytes() == expected.tobytes()
            # the newest centroid against every row, for each step after the first
            assert {c for _, c in seen} == {1}
            assert sum(m for m, _ in seen) == (k - 1) * n

    @pytest.mark.parametrize("spec", SEEDING_SPECS, ids=str)
    def test_kmeans_pp_row_blocks(self, spec, monkeypatch):
        rng = np.random.default_rng(4)
        data = rng.integers(0, 3, (30, 3)).astype(float)
        data[::3] = rng.random((10, 3))
        configs = [ClusteringConfig(k=k, metric=spec, seed=seed)
                   for k in (2, 6) for seed in range(3)]
        expected = [reference_kmeans_pp(data, cfg).tobytes() for cfg in configs]
        # 7-row exact blocks: ragged blocks in every step
        monkeypatch.setattr(metrics, "_BLOCK_BYTES", 7 * 8 * 3)
        assert [init_centroids(data, cfg).tobytes() for cfg in configs] == expected

    @pytest.mark.parametrize("spec", SEEDING_SPECS, ids=str)
    def test_kmeans_pp_overflow_rejected_without_warning(self, spec):
        huge = np.array([[1e200, -1e200], [0.5, 0.5], [-1e200, 1e200]])
        for seed in range(3):
            cfg = ClusteringConfig(k=3, metric=spec, seed=seed)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="k-means\\+\\+ weights are not finite"):
                    init_centroids(huge, cfg)

    def test_given_rows_are_returned_as_a_float64_copy(self):
        given = np.array([[0], [9]])
        cfg = ClusteringConfig(k=2, metric=EUCLID, initial_centroids=given)
        ctr = init_centroids(BLOBS_1D, cfg)
        assert ctr.dtype == np.float64 and ctr.tolist() == [[0.0], [9.0]]
        ctr[0, 0] = 5.0
        assert given[0, 0] == 0

    def test_config_keeps_a_read_only_copy_of_the_given_rows(self):
        given = BLOBS_1D[[0, 2]].copy()
        cfg = ClusteringConfig(k=2, metric=EUCLID, initial_centroids=given)
        expected = fit(BLOBS_1D, cfg).to_json()
        given[1, 0] = np.nan
        assert cfg.initial_centroids.tolist() == [[0.0], [9.0]]
        assert fit(BLOBS_1D, cfg).to_json() == expected
        with pytest.raises(ValueError, match="read-only"):
            cfg.initial_centroids[0, 0] = 1.0


def exact_argmin(spec, points, centers, row_norms=None):
    """nearest_centers without a ranking: the argmin of every exact distance."""
    return np.argmin(pairwise_distances(spec, points, centers), axis=1)


class TestAssign:
    def test_single_centroid_all_zero(self):
        labels = assign(BLOBS_1D, [[5.0]], EUCLID)
        assert labels.tolist() == [0, 0, 0, 0]

    def test_two_blob_split(self):
        labels = assign(BLOBS_1D, [[0.5], [9.5]], EUCLID)
        assert labels.tolist() == [0, 0, 1, 1]

    def test_tie_breaks_to_lowest_index(self):
        labels = assign([[5.0]], [[4.0], [6.0]], EUCLID)
        assert labels.tolist() == [0]

    def test_zero_centroids_rejected(self):
        with pytest.raises(ValueError, match="at least one centroid"):
            assign(BLOBS_1D, np.empty((0, 1)), EUCLID)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    def test_fit_matches_exact_argmin_fit(self, spec, monkeypatch):
        rng = np.random.default_rng(71)
        grid = rng.integers(0, 4, (120, 3)).astype(float)  # ties everywhere
        for data in (grid, grid + 1e6, rng.random((200, 5))):
            for start in STARTS:
                cfg = start_config(start, data, 4, seed=3, metric=spec, max_iter=20)
                model = fit(data, cfg)
                with monkeypatch.context() as patch:
                    patch.setattr(kmeans, "nearest_centers", exact_argmin)
                    reference = fit(data, cfg)
                assert np.array_equal(model.centroids, reference.centroids)
                assert np.array_equal(model.assignments, reference.assignments)
                assert model.sse_per_iter == reference.sse_per_iter


class TestFitReference:
    @pytest.mark.parametrize("start", STARTS)
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    @settings(max_examples=30, deadline=None)
    @given(problem=degenerate_problems(), seed=st.integers(0, 2**16))
    def test_fit_equals_plain_lloyd_or_raises(self, spec, start, problem, seed):
        data, k = problem
        cfg = start_config(start, data, k, seed=seed, metric=spec, max_iter=20)
        try:
            expected = reference_fit(data, cfg)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                fit(data, cfg)
            return
        model = fit(data, cfg)
        centroids, labels, history, converged = expected
        assert model.centroids.tobytes() == centroids.tobytes()
        assert model.assignments.tobytes() == labels.tobytes()
        assert model.sse_per_iter == tuple(history)
        assert model.converged == converged
        if model.converged:
            assert np.array_equal(assign(data, model.centroids, spec), model.assignments)


class TestUpdateCentroids:
    def test_pair_mean(self):
        ctr = update_centroids(np.array([[0.0], [1.0]]), [0, 0], [[0.0]], EUCLID)
        assert ctr.tolist() == [[0.5]]

    def test_single_cluster_is_dataset_mean(self):
        ctr = update_centroids(BLOBS_1D, [0, 0, 0, 0], [[0.0]], EUCLID)
        assert ctr[0, 0] == BLOBS_1D.mean()

    def test_empty_cluster_reseeded_with_farthest_point(self):
        prev = np.array([[0.5], [3.0]])
        ctr = update_centroids(BLOBS_1D, [0, 0, 0, 0], prev_centroids=prev, metric=EUCLID)
        # cluster 1 is empty; farthest point from its former centroid 3.0 is 10.0
        assert ctr[1, 0] == 10.0

    def test_out_of_range_assignment_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 2\)"):
            update_centroids(BLOBS_1D, [0, 0, 0, 2], [[0.0], [1.0]], EUCLID)

    @pytest.mark.parametrize("prev", [[0.0, 9.0], [[0.0, 1.0], [9.0, 1.0]]], ids=["1-D", "2 wide"])
    def test_prev_centroids_that_do_not_fit_rejected(self, prev):
        # k is the number of prev_centroids, so they must be 2-D and as wide as the data
        with pytest.raises(ValueError, match=r"do not fit data of shape \(4, 1\)"):
            update_centroids(BLOBS_1D, [0, 0, 1, 1], prev, EUCLID)

    def test_sums_bitwise_equal_add_at(self):
        rng = np.random.default_rng(43)
        for trial in range(200):
            k, dim = rng.integers(1, 6), rng.integers(1, 40)
            n = rng.integers(k, 40)
            data = rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-300, 300)
            data[rng.random((n, dim)) < 0.1] = -0.0
            labels = rng.integers(0, k, n)
            labels[:k] = np.arange(k)  # no cluster is empty
            sums = np.zeros((k, dim))
            np.add.at(sums, labels, data)
            expected = sums / np.bincount(labels, minlength=k)[:, None]
            # int8 labels: label * d must not wrap
            got = update_centroids(
                data, labels.astype(np.int8) if trial % 2 else labels, np.zeros((k, dim)), EUCLID
            )
            assert got.tobytes() == expected.tobytes(), trial

    def test_row_major_data_is_not_copied(self, monkeypatch):
        # each attribute is read as data[:, t]: a column at a time, never a
        # column-major copy of the whole data; numpy reports its arrays to
        # tracemalloc. Two ranges, as on a 2-CPU host, each copy a column.
        monkeypatch.setattr(metrics, "usable_cpus", lambda: 2)
        n, d, k = 20_000, 25, 8
        rng = np.random.default_rng(53)
        data = rng.random((n, d))
        labels = np.arange(n) % k
        prev = data[:k].copy()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            got = update_centroids(data, labels, prev, EUCLID)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < data.nbytes
        assert got.tobytes() == update_centroids(np.asfortranarray(data), labels, prev, EUCLID).tobytes()

    @pytest.mark.parametrize("spec", [DistanceSpec("cityblock"), DistanceSpec("minkowski", 3.0)], ids=str)
    def test_reseed_on_overflowing_distances_rejected(self, spec):
        a = -0.6e308 + 1e290 * np.random.default_rng(47).random((2, 4))
        data = np.concatenate([a, -a])
        prev = np.stack([a[0], a[0], -a[0]])
        # cluster 1 is empty, and the points of cluster 2 are too far from
        # its former centroid for a finite distance
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="cluster 1 cannot be re-seeded.*normalize the data"):
                update_centroids(data, [0, 0, 2, 2], prev_centroids=prev, metric=spec)
            cfg = ClusteringConfig(k=3, metric=spec, initial_centroids=prev, max_iter=1)
            with pytest.raises(ValueError, match="normalize the data"):
                fit(data, cfg)


class TestSse:
    def test_zero_residuals(self):
        data = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert sse(data, data, [0, 1]) == 0.0

    def test_hand_oracle_pair(self):
        # {0, 1} with centroid 0.5: 0.25 + 0.25
        assert sse(np.array([[0.0], [1.0]]), [[0.5]], [0, 0]) == 0.5

    def test_two_blob_optimum_is_one(self):
        assert sse(BLOBS_1D, [[0.5], [9.5]], [0, 0, 1, 1]) == 1.0

    @staticmethod
    def assert_row_sum_bits(data, k=5, seed=0):
        """sse is bitwise np.sum of the row sums of the squared row-major
        residuals, for data row-major, column-major and strided; the terms
        span 32 orders of magnitude, so another order of addition would
        change the sum."""
        rng = np.random.default_rng(seed)
        ctr = rng.standard_normal((k, data.shape[1]))
        labels = rng.integers(0, k, data.shape[0])
        expected = float(np.sum(np.sum((np.ascontiguousarray(data) - ctr[labels]) ** 2, axis=1)))
        for view in layouts(data):
            assert sse(view, ctr, labels) == expected, (data.shape, view.strides)

    @staticmethod
    def spread(n, d, seed=1):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((n, d)) * 10.0 ** rng.integers(-8, 8, (n, d))

    # n = blocks * block_rows(d) + extra: one or two rows, and n just below,
    # at and above one, two and three row blocks, so that the last block is
    # full, short or of one row
    @pytest.mark.parametrize(
        "blocks, extra", [(0, 1), (0, 2), (1, -1), (1, 0), (1, 1), (2, -1), (2, 1), (3, 1)]
    )
    @pytest.mark.parametrize("d", [1, 7, 300])
    def test_bitwise_row_sums_around_a_block(self, d, blocks, extra):
        self.assert_row_sum_bits(self.spread(blocks * metrics.block_rows(d) + extra, d))

    # rows of an input of 3 blocks and a row at d = 7: all of them, a range
    # that starts and ends off a block boundary, one shorter than a block,
    # and an empty one
    STEP = metrics.block_rows(7)

    @pytest.mark.parametrize(
        "start, stop",
        [(0, 3 * STEP + 1), (STEP // 2, 2 * STEP + STEP // 4), (STEP + 10, STEP + 20), (9, 9)],
        ids=["all", "off-boundary", "short", "empty"],
    )
    @pytest.mark.parametrize("layout", range(3), ids=["C", "F", "strided"])
    def test_residual_blocks_tile_the_range(self, layout, start, stop):
        step, n = self.STEP, 3 * self.STEP + 1
        data = self.spread(n, 7)
        ctr = self.spread(5, 7, seed=2)
        labels = np.random.default_rng(3).integers(0, 5, n)
        bounds = []
        for rows, resid in kmeans.residual_blocks(layouts(data)[layout], ctr, labels, start, stop):
            expected = np.ascontiguousarray((data[rows] - ctr[labels[rows]]).T)
            assert resid.shape == expected.shape
            assert resid.tobytes() == expected.tobytes(), rows
            bounds.append((rows.start, rows.stop))
        # the blocks tile [start, stop) in order, each but the last whole
        assert bounds == [(b, min(b + step, stop)) for b in range(start, stop, step)]
        if bounds:
            assert bounds[-1][1] - bounds[-1][0] < step

    def test_empty_data_sums_to_zero(self):
        assert sse(np.zeros((0, 3)), np.zeros((1, 3)), np.zeros(0, dtype=int)) == 0.0

    @pytest.mark.parametrize("labels", [[0, 2], [-1, 0]])
    def test_out_of_range_assignment_rejected(self, labels):
        with pytest.raises(ValueError, match=r"assignments must lie in \[0, 2\)"):
            sse(np.zeros((2, 1)), np.zeros((2, 1)), labels)

    @pytest.mark.parametrize("centroids", [[[0.0, 1.0], [1.0, 2.0]], [0.0, 1.0]])
    def test_centroids_not_as_wide_as_data_rejected(self, centroids):
        # 1-column data used to broadcast against 2-column centroids
        with pytest.raises(ValueError, match="do not fit data of shape"):
            sse(np.array([[0.0], [1.0], [9.0]]), centroids, [0, 1, 1])


class TestAssignmentChecks:
    @pytest.mark.parametrize(
        "labels, message",
        [
            ([0, 1], "one assignment per point is required: 3 points"),
            ([0, 1, 1, 0], "one assignment per point is required: 3 points"),
            ([[0], [1], [1]], "one assignment per point is required: 3 points"),
            ([0.0, 1.0, 1.0], "assignments must be integers, got dtype float64"),
            ([False, True, True], "assignments must be integers, got dtype bool"),
        ],
        ids=["short", "long", "2-D", "float", "bool"],
    )
    def test_malformed_assignments_rejected_by_update_and_sse(self, labels, message):
        data = np.array([[0.0], [1.0], [9.0]])
        with pytest.raises(ValueError, match=message):
            update_centroids(data, labels, [[0.0], [1.0]], EUCLID)
        with pytest.raises(ValueError, match=message):
            sse(data, [[0.0], [1.0]], labels)


def layouts(data: np.ndarray) -> list[np.ndarray]:
    """data row-major, column-major and as a strided view of a larger array."""
    wide = np.zeros((2 * data.shape[0], data.shape[1] + 3))
    wide[::2, 1:-2] = data
    return [np.ascontiguousarray(data), np.asfortranarray(data), wide[::2, 1:-2]]


class TestLayouts:
    @staticmethod
    def datasets():
        rng = np.random.default_rng(29)
        spread = rng.standard_normal((300, 7)) * 10.0 ** rng.integers(-3, 4, 7)
        # ties everywhere, and an offset at which the GEMM ranking proves little
        grid = rng.integers(0, 4, (300, 7)) + 1e6
        return spread, grid

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    def test_fit_gives_the_same_model(self, spec):
        for data in self.datasets():
            for start in STARTS:
                cfg = start_config(start, data, 5, seed=4, metric=spec, max_iter=20)
                models = [fit(view, cfg) for view in layouts(data)]
                assert len({(m.to_json(), m.sse_per_iter) for m in models}) == 1

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    def test_steps_give_the_same_bits(self, spec):
        rng = np.random.default_rng(31)
        for data in self.datasets():
            ctr = data[:5] + 0.25
            labels = rng.integers(0, 5, data.shape[0])
            results = set()
            for view in layouts(data):
                results.add((
                    pairwise_distances(spec, view, ctr).tobytes(),
                    nearest_centers(spec, view, ctr).tobytes(),
                    nearest_centers(spec, view, ctr, certificate_norms(spec, view)).tobytes(),
                    update_centroids(view, labels, prev_centroids=ctr, metric=spec).tobytes(),
                    # cluster 4 is empty and re-seeded under the metric
                    update_centroids(view, labels % 4, prev_centroids=ctr, metric=spec).tobytes(),
                    sse(view, ctr, labels),
                ))
            assert len(results) == 1


class TestFit:
    def test_k1_converges_to_mean(self):
        model = fit(BLOBS_1D, ClusteringConfig(k=1, metric=EUCLID, seed=0))
        assert model.centroids[0, 0] == BLOBS_1D.mean()
        assert model.converged
        assert model.iterations_run <= 2

    def test_two_blobs_reach_global_optimum_from_good_init(self):
        cfg = ClusteringConfig(
            k=2,
            metric=EUCLID,
            initial_centroids=np.array([[1.0], [9.0]]),
        )
        model = fit(BLOBS_1D, cfg)
        assert sorted(model.centroids[:, 0].tolist()) == [0.5, 9.5]
        assert model.final_sse == 1.0
        assert model.final_sse == brute_force_sse(BLOBS_1D, 2)

    def test_brute_force_lower_bound_small_datasets(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            data = rng.random((n, 1))
            model = fit(data, ClusteringConfig(k=2, metric=EUCLID, seed=1))
            assert model.final_sse >= brute_force_sse(data, 2) - 1e-12

    def test_three_separated_classes_recovered(self):
        rng = np.random.default_rng(31)
        centers = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        sigma = 0.02  # centers are 50 sigma apart
        data = np.concatenate(
            [c + sigma * rng.standard_normal((60, 2)) for c in centers]
        )
        truth = np.repeat([0, 1, 2], 60)
        model = fit(data, ClusteringConfig(k=3, metric=EUCLID, seed=42))
        # majority-label cross-tabulation purity
        pure = 0
        for j in range(3):
            members = truth[model.assignments == j]
            if members.size:
                pure += np.bincount(members).max()
        assert pure / data.shape[0] >= 0.99

    def test_final_sse_recomputable(self):
        rng = np.random.default_rng(37)
        data = rng.random((80, 4))
        model = fit(data, ClusteringConfig(k=4, metric=DistanceSpec("dsd", 1.523), seed=2))
        again = sse(data, model.centroids, model.assignments)
        assert model.final_sse == pytest.approx(again, rel=1e-9)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            fit(np.empty((0, 2)), ClusteringConfig(k=1, metric=EUCLID))

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    def test_dataset_without_attributes_rejected(self, spec):
        cfg = ClusteringConfig(k=1, metric=spec)
        for call in (fit, init_centroids):
            with pytest.raises(ValueError, match="non-empty"):
                call(np.empty((5, 0)), cfg)

    @pytest.mark.parametrize("k", [2.5, True, "3", np.float64(2.0)])
    def test_non_integer_k_rejected(self, k):
        with pytest.raises(ValueError, match="k must be an integer"):
            fit(BLOBS_1D, ClusteringConfig(k=k, metric=EUCLID))

    @pytest.mark.parametrize(
        "bad, message",
        [
            (dict(max_iter=0), "max_iter must be >= 1"),
            (dict(max_iter=2.5), "max_iter must be an integer"),
            (dict(max_iter=True), "max_iter must be an integer"),
            (dict(seed=-1), "seed must be an integer >= 0, got -1"),
            (dict(seed=True), "seed must be an integer >= 0, got True"),
            (dict(seed=1.5), "seed must be an integer >= 0, got 1.5"),
            (dict(seed="3"), "seed must be an integer >= 0, got '3'"),
        ],
    )
    def test_bad_settings_rejected(self, bad, message):
        with pytest.raises(ValueError, match=message):
            fit(BLOBS_1D, ClusteringConfig(k=2, metric=EUCLID, **bad))

    def test_metric_that_is_not_a_spec_rejected_built_or_replaced(self):
        message = "a metric must be a DistanceSpec, got 'euclidean'"
        with pytest.raises(ValueError, match=message):
            ClusteringConfig(k=2, metric="euclidean")
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(ClusteringConfig(k=2), metric="euclidean")

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    def test_iterations_and_final_sse_derive_from_the_history(self, spec, monkeypatch):
        data = np.random.default_rng(37).random((200, 4))
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return assign(*args, **kwargs)

        monkeypatch.setattr(kmeans, "assign", counted)
        stops = set()
        for max_iter in (1, 2, 3, 100):
            for start in STARTS:
                calls.clear()
                cfg = start_config(start, data, 4, seed=3, metric=spec, max_iter=max_iter)
                model = fit(data, cfg)
                stops.add(model.converged)
                history = model.sse_per_iter
                # one assignment per centroid update, and a converged fit's
                # last one repeats the one before
                assert model.iterations_run == len(calls) == len(history) + model.converged
                assert model.converged or len(history) == max_iter
                again = sse(data, model.centroids, model.assignments)
                assert model.final_sse == history[-1] == again
                doc = json.loads(model.to_json())
                assert (doc["iterations"], doc["sse"]) == (model.iterations_run, model.final_sse)
        assert stops == {False, True}

    def test_model_stores_no_derived_number(self):
        names = [f.name for f in dataclasses.fields(kmeans.ClusterModel)]
        assert names == ["centroids", "assignments", "converged", "metric", "seed", "sse_per_iter"]

    def test_config_has_one_seeding_field(self):
        names = [f.name for f in dataclasses.fields(ClusteringConfig)]
        assert names == ["k", "metric", "seed", "max_iter", "initial_centroids"]

    def test_zero_k_rejected_built_or_replaced(self):
        with pytest.raises(ValueError, match="k must be >= 1, got 0"):
            ClusteringConfig(k=0)
        with pytest.raises(ValueError, match="k must be >= 1, got 0"):
            dataclasses.replace(ClusteringConfig(k=2), k=0)

    def test_numpy_integer_k_accepted(self):
        assert fit(BLOBS_1D, ClusteringConfig(k=np.int64(2), metric=EUCLID)).converged

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_rejected(self, bad):
        data = np.random.default_rng(73).random((50, 4))
        data[7, 2] = bad
        with pytest.raises(ValueError, match="row 7 of the dataset"):
            fit(data, ClusteringConfig(k=3))

    def test_first_non_finite_row_named_across_blocks(self, monkeypatch):
        data = np.random.default_rng(73).random((50, 4))
        data[[12, 13, 40], [0, 3, 1]] = [np.inf, np.nan, np.nan]
        monkeypatch.setattr(metrics, "_BLOCK_BYTES", 5 * 8 * 4)  # 5-row blocks
        with pytest.raises(ValueError, match="row 12 of the dataset"):
            fit(data, ClusteringConfig(k=3))

    def test_finiteness_check_holds_no_n_by_d_temporary(self):
        # numpy reports its arrays to tracemalloc; an n x d bool mask would
        # take data.size bytes, a row block of it a small share
        data = np.asfortranarray(np.random.default_rng(73).random((40_000, 25)))
        data[-1, -1] = np.nan
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            with pytest.raises(ValueError, match="row 39999 of the dataset"):
                fit(data, ClusteringConfig(k=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < data.size // 4

    @pytest.mark.parametrize("start", STARTS)
    @pytest.mark.parametrize(
        "spec", [DistanceSpec("sqeuclidean"), DistanceSpec("dsd", 1.523), DistanceSpec("cityblock")],
        ids=str,
    )
    def test_overflow_rejected(self, spec, start):
        data = np.random.default_rng(79).random((50, 4)) * 1e200
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="overflow.*normalize the data"):
                fit(data, start_config(start, data, 3, metric=spec))

    @pytest.mark.parametrize(
        "spec", [DistanceSpec("cityblock"), DistanceSpec("chebyshev"), DistanceSpec("minkowski", 2.0)],
        ids=str,
    )
    def test_centroid_sum_overflow_rejected_without_warning(self, spec):
        data = np.random.default_rng(0).random((50, 4)) * 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="SSE overflows float64; normalize the data"):
                fit(data, start_config("random-rows", data, 3, metric=spec))

    def test_converged_with_empty_cluster_rejected(self):
        with pytest.raises(ValueError, match=r"clusters \[1, 2\] are empty.* 1 distinct points"):
            fit(np.full((10, 2), 0.5), ClusteringConfig(k=3))

    def test_max_iter_stop_may_leave_cluster_empty(self):
        # every point is nearer 0 than 100, so cluster 1 empties and is
        # reseeded; the cap stops the run before the reseed is assigned
        cfg = ClusteringConfig(
            k=2, metric=EUCLID, initial_centroids=np.array([[0.0], [100.0]]), max_iter=1,
        )
        model = fit(np.array([[0.0], [1.0], [10.0]]), cfg)
        assert not model.converged
        assert model.assignments.tolist() == [0, 0, 0]


class TestProperties:
    def test_monotone_sse_euclidean_and_squared(self):
        rng = np.random.default_rng(41)
        for kind in ("euclidean", "sqeuclidean"):
            for _ in range(20):
                data = rng.random((200, 5))
                model = fit(
                    data, ClusteringConfig(k=4, metric=DistanceSpec(kind), seed=7)
                )
                diffs = np.diff(model.sse_per_iter)
                assert np.all(diffs <= 1e-9)

    def test_argmin_invariance_across_monotone_metrics(self):
        rng = np.random.default_rng(43)
        specs = [
            DistanceSpec("euclidean"),
            DistanceSpec("sqeuclidean"),
            DistanceSpec("dsd", 1.2),
            DistanceSpec("dsd", 1.523),
            DistanceSpec("dsd", 3.0),
        ]
        for _ in range(30):
            pts = rng.random((50, 6))
            ctr = rng.random((4, 6))
            reference = assign(pts, ctr, specs[0])
            for spec in specs[1:]:
                assert np.array_equal(assign(pts, ctr, spec), reference)

    def test_termination_within_max_iter(self):
        rng = np.random.default_rng(47)
        data = rng.random((100, 3))
        model = fit(
            data,
            ClusteringConfig(k=5, metric=DistanceSpec("chebyshev"), seed=3, max_iter=7),
        )
        assert model.iterations_run <= 7

    def test_idempotence_at_convergence(self):
        rng = np.random.default_rng(53)
        data = rng.random((120, 4))
        model = fit(data, ClusteringConfig(k=3, metric=EUCLID, seed=11))
        assert model.converged
        again = assign(data, model.centroids, EUCLID)
        assert np.array_equal(again, model.assignments)

    def test_determinism(self):
        rng = np.random.default_rng(59)
        data = rng.random((150, 5))
        cfg = ClusteringConfig(k=4, metric=DistanceSpec("dsd", 1.523), seed=17)
        a = fit(data, cfg)
        b = fit(data, cfg)
        assert np.array_equal(a.centroids, b.centroids)
        assert np.array_equal(a.assignments, b.assignments)
        assert a.final_sse == b.final_sse
        assert a.iterations_run == b.iterations_run

    def test_relabeling_equivalence(self):
        rng = np.random.default_rng(61)
        data = rng.random((60, 2))
        seeds = data[[3, 30, 55]]
        partitions = []
        for perm in itertools.permutations(range(3)):
            cfg = ClusteringConfig(k=3, metric=EUCLID, initial_centroids=seeds[list(perm)])
            model = fit(data, cfg)
            partition = frozenset(
                frozenset(np.flatnonzero(model.assignments == j).tolist())
                for j in range(3)
            )
            partitions.append(partition)
        assert len(set(partitions)) == 1


class TestClusterModelChecks:
    def build(self, **overrides):
        fields = dict(centroids=np.zeros((2, 1)), assignments=np.array([0, 1, 1]),
                      converged=False, metric=EUCLID, seed=0, sse_per_iter=(1.0,))
        fields.update(overrides)
        return kmeans.ClusterModel(**fields)

    def test_a_valid_model_is_built(self):
        assert self.build().final_sse == 1.0

    @pytest.mark.parametrize(
        "bad, message",
        [
            (dict(sse_per_iter=()), "sse_per_iter is empty"),
            (dict(centroids=np.zeros(3)), r"centroids must be a non-empty 2-D array, got shape \(3,\)"),
            (dict(centroids=np.zeros((0, 2))), "non-empty 2-D array"),
            (dict(centroids=np.zeros((2, 0))), "non-empty 2-D array"),
            (dict(assignments=np.zeros((3, 1), dtype=int)), r"1-D array, got shape \(3, 1\)"),
            (dict(assignments=np.array([0, 2, 1])), r"assignments must lie in \[0, 2\)"),
            (dict(assignments=np.array([0.0, 1.0])), "assignments must be integers"),
        ],
    )
    def test_inconsistent_model_rejected(self, bad, message):
        with pytest.raises(ValueError, match=message):
            self.build(**bad)

    def test_an_empty_history_fails_when_built_not_when_written(self):
        with pytest.raises(ValueError, match="sse_per_iter is empty"):
            kmeans.ClusterModel(np.zeros((1, 1)), np.zeros(3, int), False, EUCLID, 0, ())


class TestSerialization:
    def test_model_json_fields(self):
        model = fit(BLOBS_1D, ClusteringConfig(k=2, metric=DistanceSpec("dsd", 1.523), seed=5))
        doc = json.loads(model.to_json())
        assert set(doc) == {
            "centroids",
            "assignments",
            "iterations",
            "converged",
            "sse",
            "seed",
            "metric",
            "p",
        }
        assert doc["metric"] == "dsd"
        assert doc["p"] == 1.523
        assert doc["seed"] == 5
        assert len(doc["assignments"]) == 4

    def test_numpy_float_p_is_written_as_a_float(self):
        spec = DistanceSpec("dsd", np.float32(1.523))
        doc = json.loads(fit(BLOBS_1D, ClusteringConfig(k=2, metric=spec)).to_json())
        assert doc["p"] == float(np.float32(1.523))

    def test_numpy_integer_seed_gives_the_same_json(self):
        docs = {
            fit(BLOBS_1D, ClusteringConfig(k=np.int64(2), seed=seed)).to_json()
            for seed in (3, np.int64(3))
        }
        assert len(docs) == 1
