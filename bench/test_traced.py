"""Hand-worked cases for the per-layer metrics of the traced run.

Run with ``python3 -m pytest bench``.
"""

import pytest

from traced import layer_metrics


def span(name, parent, t0, t1, **attrs):
    return {"name": name, "parent": parent, "t0": t0, "t1": t1, **attrs}


def test_self_time_and_counts_of_nested_spans():
    spans = [
        span("cli.main", -1, 0.0, 10.0),
        span("data.load_csv", 0, 0.0, 2.0, rows=100),
        span("kmeans.fit", 0, 2.0, 9.0, iterations=3, via="cli"),
        span("kmeans.init_centroids", 2, 2.0, 4.0),
        span("metrics.pairwise_distances", 3, 2.0, 3.0, evals=200, temp_bytes=4000),
        span("metrics.pairwise_distances", 2, 5.0, 9.0, evals=300, temp_bytes=6000),
    ]
    m, problems = layer_metrics(spans)
    assert problems == []
    assert m["cli.self_s"] == pytest.approx(1.0)
    assert m["kmeans.fit_s"] == pytest.approx(7.0)
    assert m["metrics.pairwise_distances_s"] == pytest.approx(5.0)
    assert m["metrics.pairwise_distances_calls"] == 2
    assert m["metrics.distance_evals"] == 500
    assert m["metrics.distance_evals_per_s"] == pytest.approx(100.0)
    assert m["metrics.temp_bytes_computed"] == 6000
    assert m["kmeans.init_distance_evals"] == 200
    assert m["kmeans.iterations"] == 3 and m["sweep.cells"] == 0
    assert m["data.load_csv_rows_per_s"] == pytest.approx(50.0)


def test_a_rate_whose_layer_never_ran_is_a_problem_not_an_error():
    m, problems = layer_metrics([span("cli.main", -1, 0.0, 1.0)])
    assert m["data.load_csv_rows_per_s"] == 0.0
    assert m["metrics.distance_evals_per_s"] == 0.0
    assert len(problems) == 2
