"""Hand-worked cases for the benchmark's reference checks.

Run with ``python3 -m pytest bench``.
"""

import math

import numpy as np
import pytest

import reference as ref


def test_read_csv_with_and_without_labels(tmp_path):
    labelled = tmp_path / "a.csv"
    labelled.write_text("x,y,class\n1,2.5e1,metal\n-3,4,polymer\n")
    points, labels = ref.read_csv(labelled)
    assert points.tolist() == [[1.0, 25.0], [-3.0, 4.0]]
    assert labels == ["metal", "polymer"]
    bare = tmp_path / "b.csv"
    bare.write_text("x,y\n1,2\n")
    points, labels = ref.read_csv(bare)
    assert points.tolist() == [[1.0, 2.0]] and labels is None


def test_minmax_normalize_maps_columns_to_unit_range():
    raw = np.array([[0.0, 10.0, 7.0], [5.0, 30.0, 7.0], [10.0, 20.0, 7.0]])
    expected = [[0.0, 0.0, 0.0], [0.5, 1.0, 0.0], [1.0, 0.5, 0.0]]
    assert ref.minmax_normalize(raw).tolist() == expected


@pytest.mark.parametrize(
    "kind, p, expected",
    [
        # x - c = (3, -4)
        ("sqeuclidean", None, 25.0),
        ("euclidean", None, 5.0),
        ("cityblock", None, 7.0),
        ("chebyshev", None, 4.0),
        ("minkowski", 1.0, 7.0),
        ("minkowski", 2.0, 5.0),
        ("dsd", 1.5, 5.0),
        ("dsd", 3.0, 25.0),
        ("dsd", 1.0, 25.0 ** (1.0 / 3.0)),
    ],
)
def test_distance_kinds(kind, p, expected):
    d = ref.distances(kind, p, np.array([[4.0, -2.0]]), np.array([[1.0, 2.0]]))
    assert d.shape == (1, 1)
    assert math.isclose(d[0, 0], expected, rel_tol=1e-15)


def test_distances_span_row_blocks(monkeypatch):
    monkeypatch.setattr(ref, "BLOCK_ROWS", 2)
    pts = np.array([[0.0], [1.0], [2.0], [3.0], [4.0]])
    ctr = np.array([[0.0], [4.0]])
    d = ref.distances("cityblock", None, pts, ctr)
    assert d.tolist() == [[0, 4], [1, 3], [2, 2], [3, 1], [4, 0]]


def test_member_means_skip_empty_clusters():
    pts = np.array([[0.0, 0.0], [2.0, 4.0], [10.0, 10.0]])
    means = ref.member_means(pts, np.array([0, 0, 2]), 3)
    assert sorted(means) == [0, 2]
    assert means[0].tolist() == [1.0, 2.0] and means[2].tolist() == [10.0, 10.0]


def test_sse_sums_squared_residuals():
    pts = np.array([[0.0, 0.0], [2.0, 4.0], [10.0, 10.0]])
    ctr = np.array([[1.0, 2.0], [10.0, 10.0]])
    # (1 + 4) + (1 + 4) + 0
    assert ref.sse(pts, ctr, np.array([0, 0, 1])) == 10.0


def test_sigma_rule_uses_population_std():
    # Cluster 0: nineteen points at distance 1 and one at 21. Mean 2,
    # population std sqrt((19 * 1 + 361) / 20) = sqrt(19) ~ 4.36, so the
    # cutoff is ~15.08 and only the far point is dropped. Cluster 1 has one
    # point: std 0, cutoff equals its distance, and it is kept.
    dist = np.array([1.0] * 19 + [21.0, 5.0])
    labels = np.array([0] * 20 + [1])
    kept, borderline = ref.sigma_clustered(dist, labels, k=3)
    assert kept == 20
    assert borderline == 1  # the singleton sits exactly on its cutoff


def test_purity_counts_majority_class_per_cluster():
    labels = np.array([0, 0, 0, 1, 1])
    classes = ["a", "a", "b", "b", "b"]
    assert ref.purity(labels, classes) == 4 / 5
