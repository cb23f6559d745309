import itertools
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matclust import kmeans, metrics
from matclust.kmeans import (
    CENTROID_SHIFT,
    INIT_EXPLICIT,
    INIT_KMEANS_PP,
    INIT_RANDOM,
    MAX_ITER,
    STABLE_ASSIGNMENTS,
    ClusteringConfig,
    assign,
    fit,
    init_centroids,
    sse,
    update_centroids,
)
from matclust.metrics import METRIC_KINDS, DistanceSpec, pairwise_distances, squared_norms

EUCLID = DistanceSpec("euclidean")
BLOBS_1D = np.array([[0.0], [1.0], [9.0], [10.0]])
ALL_SPECS = [
    DistanceSpec(kind, {"minkowski": 2.5, "dsd": 1.523}.get(kind)) for kind in METRIC_KINDS
]


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
    """Plain Lloyd: full distance matrices, np.add.at sums, fit's stopping rules.

    Returns (centroids, assignments, sse history, reason)."""
    if config.init == INIT_KMEANS_PP:
        centroids = reference_kmeans_pp(data, config)
    else:
        centroids = init_centroids(data, config)
    labels, reason, history = None, MAX_ITER, []
    for _ in range(config.max_iter):
        new_labels = np.argmin(pairwise_distances(config.metric, data, centroids), axis=1)
        sums = np.zeros((config.k, data.shape[1]))
        np.add.at(sums, new_labels, data)
        counts = np.bincount(new_labels, minlength=config.k)
        new_centroids = np.empty_like(sums)
        for j in range(config.k):
            if counts[j]:
                new_centroids[j] = sums[j] / counts[j]
            else:
                far = pairwise_distances(config.metric, data, centroids[j : j + 1])[:, 0]
                new_centroids[j] = data[np.argmax(far)]
        history.append(float(np.sum((data - new_centroids[new_labels]) ** 2)))
        shift = float(np.max(np.abs(new_centroids - centroids)))
        stable = labels is not None and np.array_equal(new_labels, labels)
        labels, centroids = new_labels, new_centroids
        if stable:
            reason = STABLE_ASSIGNMENTS
            break
        if shift <= config.shift_tol:
            reason = CENTROID_SHIFT
            break
    if reason != MAX_ITER and (np.bincount(labels, minlength=config.k) == 0).any():
        raise ValueError("are empty at convergence")
    return centroids, labels, history, reason


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
    def test_random_points_are_distinct_rows(self):
        data = np.arange(10.0).reshape(-1, 1)
        cfg = ClusteringConfig(k=4, metric=EUCLID, init=INIT_RANDOM, seed=3)
        ctr = init_centroids(data, cfg)
        assert len({float(c) for c in ctr[:, 0]}) == 4
        assert all(float(c) in set(data[:, 0]) for c in ctr[:, 0])

    def test_k_equals_n_is_permutation(self):
        data = np.arange(5.0).reshape(-1, 1)
        cfg = ClusteringConfig(k=5, metric=EUCLID, init=INIT_RANDOM, seed=0)
        ctr = init_centroids(data, cfg)
        assert sorted(ctr[:, 0].tolist()) == data[:, 0].tolist()

    def test_same_seed_same_centroids(self):
        rng = np.random.default_rng(5)
        data = rng.random((50, 3))
        for mode in (INIT_RANDOM, INIT_KMEANS_PP):
            cfg = ClusteringConfig(k=4, metric=EUCLID, init=mode, seed=99)
            a = init_centroids(data, cfg)
            b = init_centroids(data, cfg)
            assert np.array_equal(a, b)

    def test_kmeans_pp_k1_is_one_row(self):
        data = np.arange(6.0).reshape(-1, 1)
        cfg = ClusteringConfig(k=1, metric=EUCLID, init=INIT_KMEANS_PP, seed=1)
        ctr = init_centroids(data, cfg)
        assert ctr.shape == (1, 1)
        assert float(ctr[0, 0]) in set(data[:, 0])

    def test_k_exceeds_dataset_rejected(self):
        cfg = ClusteringConfig(k=5, metric=EUCLID)
        with pytest.raises(ValueError, match="exceeds dataset size"):
            init_centroids(BLOBS_1D, cfg)

    def test_explicit_wrong_shape_rejected(self):
        cfg = ClusteringConfig(
            k=2, metric=EUCLID, init=INIT_EXPLICIT, initial_centroids=np.ones((2, 3))
        )
        with pytest.raises(ValueError, match="shape"):
            init_centroids(BLOBS_1D, cfg)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    def test_kmeans_pp_matches_full_recompute(self, spec):
        rng = np.random.default_rng(19)
        # duplicated rows give zero weights, as in the degenerate case
        data = np.concatenate([rng.random((60, 3)), np.zeros((10, 3))])
        for seed in range(4):
            for k in (2, 5, 8):
                cfg = ClusteringConfig(k=k, metric=spec, init=INIT_KMEANS_PP, seed=seed)
                assert np.array_equal(init_centroids(data, cfg), reference_kmeans_pp(data, cfg))

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    @settings(max_examples=40, deadline=None)
    @given(problem=degenerate_problems(), seed=st.integers(0, 2**16))
    def test_kmeans_pp_matches_full_recompute_on_degenerate_data(self, spec, problem, seed):
        data, k = problem
        cfg = ClusteringConfig(k=k, metric=spec, init=INIT_KMEANS_PP, seed=seed)
        expected = reference_kmeans_pp(data, cfg)
        assert init_centroids(data, cfg).tobytes() == expected.tobytes()
        given_norms = init_centroids(data, cfg, row_norms=squared_norms(spec, data))
        assert given_norms.tobytes() == expected.tobytes()

    @staticmethod
    def seeding_rows(monkeypatch, data, cfg):
        """Rows that k-means++ computes with pairwise_distances."""
        seen = []

        def spy(spec_, rows, centers):
            seen.append(len(rows))
            return pairwise_distances(spec_, rows, centers)

        with monkeypatch.context() as patch:
            patch.setattr(metrics, "pairwise_distances", spy)
            chosen = init_centroids(data, cfg)
        assert chosen.tobytes() == reference_kmeans_pp(data, cfg).tobytes()
        return sum(seen)

    @pytest.mark.parametrize(
        "spec", [DistanceSpec("euclidean"), DistanceSpec("sqeuclidean"), DistanceSpec("dsd", 1.523)],
        ids=str,
    )
    def test_kmeans_pp_computes_few_rows_exactly(self, spec, monkeypatch):
        rng = np.random.default_rng(23)
        n, k = 800, 16
        means = rng.random((k, 3)) * 10.0
        data = means[rng.integers(0, k, n)] + 0.05 * rng.random((n, 3))
        cfg = ClusteringConfig(k=k, metric=spec, init=INIT_KMEANS_PP, seed=5)
        # every row for the first centroid, then mostly the rows each new one moves nearer
        assert n <= self.seeding_rows(monkeypatch, data, cfg) < 4 * n
        # offset by 1e8 the GEMM bound proves nothing: every row of every step
        assert self.seeding_rows(monkeypatch, data + 1e8, cfg) == (k - 1) * n

    def test_explicit_echoes_user_centroids(self):
        given = np.array([[0.5], [9.5]])
        cfg = ClusteringConfig(k=2, metric=EUCLID, init=INIT_EXPLICIT, initial_centroids=given)
        assert np.array_equal(init_centroids(BLOBS_1D, cfg), given)


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
            for init in (INIT_KMEANS_PP, INIT_RANDOM):
                cfg = ClusteringConfig(k=4, metric=spec, init=init, seed=3, max_iter=20)
                model = fit(data, cfg)
                with monkeypatch.context() as patch:
                    patch.setattr(
                        kmeans, "nearest_centers",
                        lambda s, p, c, _norms: np.argmin(pairwise_distances(s, p, c), axis=1),
                    )
                    reference = fit(data, cfg)
                assert np.array_equal(model.centroids, reference.centroids)
                assert np.array_equal(model.assignments, reference.assignments)
                assert model.sse_per_iter == reference.sse_per_iter


class TestFitReference:
    @pytest.mark.parametrize("init", [INIT_KMEANS_PP, INIT_RANDOM])
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    @settings(max_examples=30, deadline=None)
    @given(problem=degenerate_problems(), seed=st.integers(0, 2**16))
    def test_fit_equals_plain_lloyd_or_raises(self, spec, init, problem, seed):
        data, k = problem
        cfg = ClusteringConfig(k=k, metric=spec, init=init, seed=seed, max_iter=20)
        try:
            expected = reference_fit(data, cfg)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                fit(data, cfg)
            return
        model = fit(data, cfg)
        centroids, labels, history, reason = expected
        assert model.centroids.tobytes() == centroids.tobytes()
        assert model.assignments.tobytes() == labels.tobytes()
        assert model.sse_per_iter == tuple(history)
        assert model.converged_reason == reason


class TestUpdateCentroids:
    def test_pair_mean(self):
        ctr = update_centroids(np.array([[0.0], [1.0]]), [0, 0], 1)
        assert ctr.tolist() == [[0.5]]

    def test_single_cluster_is_dataset_mean(self):
        ctr = update_centroids(BLOBS_1D, [0, 0, 0, 0], 1)
        assert ctr[0, 0] == BLOBS_1D.mean()

    def test_empty_cluster_reseeded_with_farthest_point(self):
        prev = np.array([[0.5], [3.0]])
        ctr = update_centroids(BLOBS_1D, [0, 0, 0, 0], 2, prev_centroids=prev, metric=EUCLID)
        # cluster 1 is empty; farthest point from its former centroid 3.0 is 10.0
        assert ctr[1, 0] == 10.0

    def test_out_of_range_assignment_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 2\)"):
            update_centroids(BLOBS_1D, [0, 0, 0, 2], 2)

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
            got = update_centroids(data, labels.astype(np.int8) if trial % 2 else labels, k)
            assert got.tobytes() == expected.tobytes(), trial

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
                update_centroids(data, [0, 0, 2, 2], 3, prev_centroids=prev, metric=spec)
            cfg = ClusteringConfig(k=3, metric=spec, init=INIT_EXPLICIT,
                                   initial_centroids=prev, max_iter=1)
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

    def test_buffer_and_columns_give_the_same_bits(self):
        rng = np.random.default_rng(29)
        data = rng.standard_normal((300, 7)) * 10.0 ** rng.integers(-3, 4, 7)
        labels = rng.integers(0, 5, 300).astype(np.int8)
        ctr = rng.random((5, 7))
        buf = np.full_like(data, np.nan)
        columns = np.asfortranarray(data).T
        for _ in range(2):  # a reused buffer holds the last call's residuals
            assert sse(data, ctr, labels, out=buf) == float(np.sum((data - ctr[labels]) ** 2))
        assert (update_centroids(data, labels, 5, columns=columns).tobytes()
                == update_centroids(data, labels, 5).tobytes())

    @pytest.mark.parametrize("labels", [[0, 2], [-1, 0]])
    def test_out_of_range_assignment_rejected(self, labels):
        with pytest.raises(ValueError, match=r"assignments must lie in \[0, 2\)"):
            sse(np.zeros((2, 1)), np.zeros((2, 1)), labels)


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
            init=INIT_EXPLICIT,
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
            (dict(init="farthest"), "unknown init mode 'farthest'"),
        ],
    )
    def test_bad_settings_rejected(self, bad, message):
        with pytest.raises(ValueError, match=message):
            fit(BLOBS_1D, ClusteringConfig(k=2, metric=EUCLID, **bad))

    def test_numpy_integer_k_accepted(self):
        assert fit(BLOBS_1D, ClusteringConfig(k=np.int64(2), metric=EUCLID)).converged

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
    def test_non_finite_or_negative_shift_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="shift_tol must be finite and >= 0"):
            fit(BLOBS_1D, ClusteringConfig(k=2, metric=EUCLID, shift_tol=tol))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_rejected(self, bad):
        data = np.random.default_rng(73).random((50, 4))
        data[7, 2] = bad
        with pytest.raises(ValueError, match="row 7 of the dataset"):
            fit(data, ClusteringConfig(k=3))

    @pytest.mark.parametrize("init", [INIT_KMEANS_PP, INIT_RANDOM])
    @pytest.mark.parametrize(
        "spec", [DistanceSpec("sqeuclidean"), DistanceSpec("dsd", 1.523), DistanceSpec("cityblock")],
        ids=str,
    )
    def test_overflow_rejected(self, spec, init):
        data = np.random.default_rng(79).random((50, 4)) * 1e200
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="overflow.*normalize the data"):
                fit(data, ClusteringConfig(k=3, metric=spec, init=init))

    @pytest.mark.parametrize(
        "spec", [DistanceSpec("cityblock"), DistanceSpec("chebyshev"), DistanceSpec("minkowski", 2.0)],
        ids=str,
    )
    def test_centroid_sum_overflow_rejected_without_warning(self, spec):
        data = np.random.default_rng(0).random((50, 4)) * 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="SSE overflows float64; normalize the data"):
                fit(data, ClusteringConfig(k=3, metric=spec, init=INIT_RANDOM))

    def test_converged_with_empty_cluster_rejected(self):
        with pytest.raises(ValueError, match=r"clusters \[1, 2\] are empty.* 1 distinct points"):
            fit(np.full((10, 2), 0.5), ClusteringConfig(k=3))

    def test_max_iter_stop_may_leave_cluster_empty(self):
        # every point is nearer 0 than 100, so cluster 1 empties and is
        # reseeded; the cap stops the run before the reseed is assigned
        cfg = ClusteringConfig(
            k=2, metric=EUCLID, init=INIT_EXPLICIT,
            initial_centroids=np.array([[0.0], [100.0]]), max_iter=1,
        )
        model = fit(np.array([[0.0], [1.0], [10.0]]), cfg)
        assert model.converged_reason == MAX_ITER
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
        assert model.converged_reason in (STABLE_ASSIGNMENTS, CENTROID_SHIFT)
        if model.converged_reason == STABLE_ASSIGNMENTS:
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
            cfg = ClusteringConfig(
                k=3, metric=EUCLID, init=INIT_EXPLICIT, initial_centroids=seeds[list(perm)]
            )
            model = fit(data, cfg)
            partition = frozenset(
                frozenset(np.flatnonzero(model.assignments == j).tolist())
                for j in range(3)
            )
            partitions.append(partition)
        assert len(set(partitions)) == 1


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
