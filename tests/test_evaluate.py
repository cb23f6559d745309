import dataclasses
import importlib
import json
from fractions import Fraction

import numpy as np
import pytest

from matclust.evaluate import (
    EvaluationReport,
    OutlierPolicy,
    cluster_accuracy_pct,
    evaluate,
    flag_outliers,
)
from matclust.kmeans import ClusteringConfig, fit
from matclust.metrics import METRIC_KINDS, DistanceSpec, pairwise_distances

EUCLID = DistanceSpec("euclidean")
ALL_SPECS = [
    DistanceSpec(kind, {"minkowski": 2.5, "dsd": 1.523}.get(kind)) for kind in METRIC_KINDS
]


def fitted(data, k=2, seed=0, metric=EUCLID):
    return fit(np.asarray(data, dtype=np.float64), ClusteringConfig(k=k, metric=metric, seed=seed))


def outlier_share(clustered, total):
    """The outlier % as EvaluationReport computes it: 100 - accuracy."""
    return 100.0 - cluster_accuracy_pct(clustered, total)


class TestPercentages:
    def test_table_row_924_of_1000(self):
        # 314 + 329 + 281 = 924; 100 - 92.4 is 7.599999999999994, which the
        # paper's table prints to one decimal
        assert cluster_accuracy_pct(924, 1000) == 92.4
        assert round(outlier_share(924, 1000), 1) == 7.6

    def test_table_row_918_of_1000(self):
        # 320 + 311 + 287 = 918
        assert cluster_accuracy_pct(918, 1000) == 91.8
        assert round(outlier_share(918, 1000), 1) == 8.2

    def test_all_clustered(self):
        assert cluster_accuracy_pct(10, 10) == 100.0
        assert outlier_share(10, 10) == 0.0

    def test_near_total_instance(self):
        # 5096 of 5097 clustered
        assert outlier_share(5096, 5097) == pytest.approx(0.0196, abs=5e-5)
        assert cluster_accuracy_pct(5096, 5097) == pytest.approx(99.98, abs=5e-3)

    def test_total_zero_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            cluster_accuracy_pct(0, 0)

    def test_clustered_exceeding_total_rejected(self):
        with pytest.raises(ValueError):
            cluster_accuracy_pct(11, 10)

    def test_complement_identity_in_rationals(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            total = int(rng.integers(1, 10_000))
            clustered = int(rng.integers(0, total + 1))
            acc = Fraction(100 * clustered, total)
            out = Fraction(100 * (total - clustered), total)
            assert acc + out == 100


class TestFlagOutliers:
    def test_policy_none_flags_nothing(self):
        data = np.random.default_rng(5).random((20, 2))
        model = fitted(data)
        flags = flag_outliers(data, model, OutlierPolicy(kind="none"))
        assert not flags.any()

    def test_sigma_policy_flags_far_point(self):
        # 10 points within 0.1 of the centroid plus one at distance ~10;
        # with 11 members the far point's z-score is sqrt(10) > 3
        near = np.array([[0.05 * np.cos(t), 0.05 * np.sin(t)] for t in np.linspace(0, 6, 10)])
        far = np.array([[10.0, 0.0]])
        data = np.concatenate([near, far])
        model = fit(
            data,
            ClusteringConfig(k=1, metric=EUCLID, initial_centroids=np.zeros((1, 2)), max_iter=1),
        )
        flags = flag_outliers(data, model, OutlierPolicy(kind="sigma", c=3.0))
        assert flags.tolist() == [False] * 10 + [True]
        # direct mean + 3 * population-sigma computation agrees
        d = np.linalg.norm(data - model.centroids[0], axis=1)
        assert d[-1] > d.mean() + 3.0 * d.std()

    def test_quantile_one_flags_nothing(self):
        data = np.random.default_rng(7).random((30, 3))
        model = fitted(data, k=3)
        flags = flag_outliers(data, model, OutlierPolicy(kind="quantile", q=1.0))
        assert not flags.any()

    def test_sigma_monotone_in_c(self):
        data = np.random.default_rng(11).standard_normal((200, 2))
        model = fitted(data, k=2)
        counts = [
            flag_outliers(data, model, OutlierPolicy(kind="sigma", c=c)).sum()
            for c in (0.5, 1.0, 1.5, 2.0, 3.0)
        ]
        assert counts == sorted(counts, reverse=True)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    @pytest.mark.parametrize(
        "policy",
        [OutlierPolicy(kind="sigma", c=1.0), OutlierPolicy(kind="quantile", q=0.8)],
        ids=lambda p: p.kind,
    )
    def test_matches_full_matrix_reference(self, spec, policy):
        data = np.random.default_rng(29).standard_normal((150, 4))
        model = fitted(data, k=4, metric=spec)
        full = pairwise_distances(spec, data, model.centroids)
        dists = full[np.arange(data.shape[0]), model.assignments]
        expected = np.zeros(data.shape[0], dtype=bool)
        for j in range(4):
            members = model.assignments == j
            dj = dists[members]
            if policy.kind == "sigma":
                cutoff = dj.mean() + policy.c * dj.std()
            else:
                cutoff = np.quantile(dj, policy.q)
            expected[members] = dj > cutoff
        assert expected.any()
        assert np.array_equal(flag_outliers(data, model, policy), expected)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    @pytest.mark.parametrize(
        "policy",
        [OutlierPolicy(kind="sigma", c=1.0), OutlierPolicy(kind="quantile", q=0.8)],
        ids=lambda p: p.kind,
    )
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_one_distance_call_matches_per_cluster_reference(
        self, monkeypatch, spec, policy, order
    ):
        data = np.asarray(np.random.default_rng(31).random((400, 9)), order=order)
        model = fitted(data, k=5, metric=spec)
        labels = model.assignments
        expected = np.zeros(data.shape[0], dtype=bool)
        reference = np.empty(data.shape[0])
        for j in range(5):
            members = labels == j
            dj = pairwise_distances(spec, data[members], model.centroids[j : j + 1])[:, 0]
            reference[members] = dj
            if policy.kind == "sigma":
                cutoff = dj.mean() + policy.c * dj.std()
            else:
                cutoff = np.quantile(dj, policy.q)
            expected[members] = dj > cutoff
        calls = []

        def spy(*args):
            calls.append(pairwise_distances(*args))
            return calls[-1]

        # matclust.evaluate, the attribute, is the function of that name
        module = importlib.import_module("matclust.evaluate")
        monkeypatch.setattr(module, "pairwise_distances", spy)
        flags = flag_outliers(data, model, policy)
        assert len(calls) == 1 and calls[0].shape == (data.shape[0], 1)
        assert np.array_equal(calls[0][:, 0], reference)
        assert expected.any()
        assert np.array_equal(flags, expected)

    def test_bad_parameters_rejected(self):
        data = np.random.default_rng(13).random((10, 2))
        model = fitted(data)
        with pytest.raises(ValueError, match="c > 0"):
            flag_outliers(data, model, OutlierPolicy(kind="sigma", c=0.0))
        with pytest.raises(ValueError, match="q in"):
            flag_outliers(data, model, OutlierPolicy(kind="quantile", q=1.5))
        with pytest.raises(ValueError, match="unknown outlier policy"):
            flag_outliers(data, model, OutlierPolicy(kind="zscore"))

    @pytest.mark.parametrize("kind", ["none", "sigma", "quantile"])
    @pytest.mark.parametrize(
        "c, q", [(np.nan, 0.5), (np.inf, 0.5), (-np.inf, 0.5), (3.0, np.nan), (3.0, np.inf)]
    )
    def test_non_finite_c_or_q_rejected(self, kind, c, q):
        with pytest.raises(ValueError, match="c and q must be finite"):
            OutlierPolicy(kind=kind, c=c, q=q)

    def test_unknown_kind_rejected_built_or_replaced(self):
        with pytest.raises(ValueError, match="unknown outlier policy 'zscore'"):
            OutlierPolicy(kind="zscore")
        with pytest.raises(ValueError, match="unknown outlier policy 'zscore'"):
            dataclasses.replace(OutlierPolicy(), kind="zscore")


class TestEvaluate:
    def test_policy_none_fixpoint(self):
        data = np.random.default_rng(17).random((10, 2))
        model = fitted(data, k=3)
        report = evaluate(data, model, OutlierPolicy(kind="none"))
        sizes = np.bincount(model.assignments, minlength=3)
        assert report.per_cluster_counts == tuple(sizes)
        assert report.cluster_accuracy_pct == 100.0
        assert report.outlier_pct == 0.0

    def test_one_flagged_of_ten(self):
        near = np.concatenate(
            [np.random.default_rng(19).random((9, 2)) * 0.01, [[50.0, 50.0]]]
        )
        model = fit(
            near,
            ClusteringConfig(k=1, metric=EUCLID, initial_centroids=np.zeros((1, 2)), max_iter=1),
        )
        report = evaluate(near, model, OutlierPolicy(kind="quantile", q=0.9))
        assert report.clustered == 9
        assert report.cluster_accuracy_pct == 90.0
        assert report.outlier_pct == 10.0

    def test_counts_plus_flags_cover_total(self):
        data = np.random.default_rng(23).standard_normal((300, 3))
        model = fitted(data, k=3)
        policy = OutlierPolicy(kind="sigma", c=1.0)
        report = evaluate(data, model, policy)
        flagged = flag_outliers(data, model, policy).sum()
        assert sum(report.per_cluster_counts) + flagged == report.total

    def test_complement_exact_in_report(self):
        data = np.random.default_rng(29).standard_normal((100, 2))
        model = fitted(data, k=2)
        report = evaluate(data, model, OutlierPolicy(kind="sigma", c=1.5))
        assert report.cluster_accuracy_pct + report.outlier_pct == 100.0

    @pytest.mark.parametrize("rows", [10, 100])
    @pytest.mark.parametrize("kind", ["none", "sigma", "quantile"])
    def test_dataset_of_another_length_rejected(self, rows, kind):
        rng = np.random.default_rng(31)
        model = fitted(rng.random((50, 2)), k=2)
        match = rf"the dataset has {rows} rows but the model assigns 50 points"
        for run in (evaluate, flag_outliers):
            with pytest.raises(ValueError, match=match):
                run(rng.random((rows, 2)), model, OutlierPolicy(kind=kind))


class TestReportSerialization:
    def make_report(self):
        data = np.random.default_rng(31).random((50, 2))
        model = fitted(data, k=3, metric=DistanceSpec("dsd", 1.523), seed=9)
        return evaluate(data, model, OutlierPolicy(kind="sigma", c=3.0))

    def test_json_round_trip(self):
        report = self.make_report()
        doc = json.loads(report.to_json())
        assert doc["metric"] == "dsd"
        assert doc["p"] == 1.523
        assert doc["seed"] == 9
        assert doc["accuracy_pct"] + doc["outlier_pct"] == 100.0

    def test_numpy_integer_seed_gives_the_same_json(self):
        data = np.random.default_rng(31).random((50, 2))
        docs = {
            evaluate(data, fitted(data, k=3, seed=seed), OutlierPolicy()).to_json()
            for seed in (9, np.int64(9))
        }
        assert len(docs) == 1

    def test_csv_layout(self):
        report = self.make_report()
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "metric,p,instance_size,c1,c2,c3,accuracy_pct,outlier_pct,seed"
        cells = lines[1].split(",")
        assert cells[0] == "dsd"
        assert float(cells[1]) == 1.523
        assert int(cells[2]) == report.total
