import dataclasses
import json

import numpy as np
import pytest

from matclust import sweep
from matclust.data import generate_synthetic
from matclust.evaluate import EvaluationReport, OutlierPolicy
from matclust.metrics import DSD, DistanceSpec
from matclust.normalize import fit_transform
from matclust.sweep import (
    DEFAULT_COMPARISON_METRICS,
    DEFAULT_INSTANCE_SIZES,
    DEFAULT_P_GRID,
    SweepPlan,
    SweepResult,
    SweepRow,
    emit_figure_data,
    run_sweep,
    shuffle_dataset,
)


def dsd_grid(*ps):
    return tuple(DistanceSpec(DSD, p) for p in ps)


@pytest.fixture(scope="module")
def small_data():
    ds = generate_synthetic(3, 6, 240, seed=42)
    _, normalized = fit_transform(ds.points)
    return normalized


def small_plan(**overrides):
    defaults = dict(
        metrics=dsd_grid(1.0, 1.5, 1.523),
        instance_sizes=(60, 120, 240),
        k=3,
        seed=42,
        policy=OutlierPolicy(kind="sigma", c=3.0),
    )
    defaults.update(overrides)
    return SweepPlan(**defaults)


class TestPlanValidation:
    def test_default_grid_matches_protocol(self):
        assert DEFAULT_P_GRID == (1.0, 1.2, 1.34, 1.42, 1.45, 1.5, 1.523, 1.55, 1.56, 3.0)
        assert DEFAULT_INSTANCE_SIZES == (1000, 2000, 3000, 4000, 5097)

    def test_decreasing_sizes_rejected(self, small_data):
        with pytest.raises(ValueError, match="non-decreasing"):
            run_sweep(small_plan(instance_sizes=(120, 60)), small_data)

    @pytest.mark.parametrize("sizes, bad", [((-5, 60), -5), ((0,), 0), ((60, 0, 120), 0)])
    def test_size_below_one_named(self, small_data, sizes, bad):
        with pytest.raises(ValueError, match=rf"^instance size must be >= 1, got {bad}$"):
            run_sweep(small_plan(instance_sizes=sizes), small_data)

    def test_oversized_instance_rejected(self, small_data):
        with pytest.raises(ValueError, match="exceeds dataset size"):
            run_sweep(small_plan(instance_sizes=(60, 500)), small_data)

    def test_out_of_range_p_rejected(self, small_data):
        with pytest.raises(ValueError, match="below 1"):
            run_sweep(small_plan(metrics=dsd_grid(0.5)), small_data)

    @pytest.mark.parametrize(
        "bad, message",
        [
            (dict(k=2.5), "k must be an integer"),
            (dict(k=True), "k must be an integer"),
            (dict(k=0), "k must be >= 1"),
            (dict(max_iter=0), "max_iter must be >= 1"),
            (dict(seed=-1), "seed must be an integer >= 0, got -1"),
            (dict(seed=True), "seed must be an integer >= 0, got True"),
            (dict(seed=2.0), "seed must be an integer >= 0, got 2.0"),
            (dict(policy="sigma"), "a policy must be an OutlierPolicy, got 'sigma'"),
        ],
    )
    def test_fit_settings_rejected_before_any_cell(self, small_data, monkeypatch, bad, message):
        calls = []
        monkeypatch.setattr(sweep, "fit", lambda *a: calls.append(a))
        for metrics in (dsd_grid(1.5), DEFAULT_COMPARISON_METRICS):
            with pytest.raises(ValueError, match=message):
                run_sweep(small_plan(metrics=metrics, jobs=2, **bad), small_data)
        assert calls == []

    def test_validation_happens_before_fitting(self, small_data, monkeypatch):
        # a valid grid of 200 p values by four sizes, the last one larger
        # than the data: the error comes before any of its 800 cells is fitted
        calls = []
        monkeypatch.setattr(sweep, "fit", lambda *a: calls.append(a))
        plan = small_plan(metrics=dsd_grid(*np.linspace(1.0, 3.0, 200)),
                          instance_sizes=(60, 120, 240, 241))
        message = r"largest instance size \(241\) exceeds dataset size \(240\)"
        with pytest.raises(ValueError, match=message):
            run_sweep(plan, small_data)
        assert calls == []

    def test_grid_stored_as_tuples(self):
        metrics, sizes = list(dsd_grid(1.0, 1.5)), [60, 120]
        plan = small_plan(metrics=metrics, instance_sizes=sizes)
        metrics.append(metrics[0])
        sizes.append(120)
        assert plan.metrics == dsd_grid(1.0, 1.5)
        assert plan.instance_sizes == (60, 120)
        assert hash(plan) == hash(small_plan(metrics=dsd_grid(1.0, 1.5), instance_sizes=(60, 120)))

    @pytest.mark.parametrize(
        "bad, message",
        [
            (dict(jobs=0), "jobs must be >= 1, got 0"),
            (dict(jobs=1.5), "jobs must be an integer, got 1.5"),
            (dict(jobs=True), "jobs must be an integer, got True"),
            (dict(instance_sizes=(60.0, 120.0)), "instance size must be an integer, got 60.0"),
            (dict(instance_sizes=(60, True)), "instance size must be an integer, got True"),
            (dict(instance_sizes=(60, 120, 120)),
             r"instance size 120 is repeated in \(60, 120, 120\)"),
            (dict(instance_sizes=(60, 60, 50)), r"must be non-decreasing, got \(60, 60, 50\)"),
            (dict(metrics=dsd_grid(1.5, 2, 1.5)),
             r"metric DistanceSpec\(kind='dsd', p=1.5\) is repeated in the grid"),
            (dict(metrics=(DistanceSpec("euclidean"), *DEFAULT_COMPARISON_METRICS)),
             r"metric DistanceSpec\(kind='euclidean', p=None\) is repeated"),
        ],
        ids=["jobs 0", "jobs 1.5", "jobs True", "sizes 60.0 120.0", "size True",
             "sizes 60 120 120", "sizes 60 60 50", "p 1.5 2 1.5", "euclidean twice"],
    )
    def test_bad_jobs_or_sizes_rejected_built_or_replaced(self, bad, message):
        with pytest.raises(ValueError, match=message):
            SweepPlan(**bad)
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(small_plan(), **bad)

    def test_empty_grid_rejected_when_built(self):
        with pytest.raises(ValueError, match="at least one metric is required"):
            small_plan(metrics=())
        with pytest.raises(ValueError, match="at least one metric is required"):
            dataclasses.replace(small_plan(), metrics=())

    def test_metric_that_is_not_a_spec_rejected_built_or_replaced(self):
        message = "a metric must be a DistanceSpec, got 'euclidean'"
        with pytest.raises(ValueError, match=message):
            SweepPlan(metrics=("euclidean",))
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(small_plan(), metrics=(DistanceSpec("euclidean"), "euclidean"))

    def test_plan_holds_one_grid_and_no_init(self):
        names = [f.name for f in dataclasses.fields(SweepPlan)]
        assert names == [
            "metrics", "instance_sizes", "k", "seed", "policy", "max_iter", "jobs",
        ]
        assert SweepPlan().metrics == DEFAULT_COMPARISON_METRICS

    @pytest.mark.parametrize(
        "metrics, mode",
        [
            (dsd_grid(1.5), "p-sweep"),
            (dsd_grid(*DEFAULT_P_GRID), "p-sweep"),
            (DEFAULT_COMPARISON_METRICS, "metric-comparison"),
            ((DistanceSpec("euclidean"),), "metric-comparison"),
            ((*dsd_grid(1.5), DistanceSpec("euclidean")), "metric-comparison"),
        ],
    )
    def test_mode_follows_the_grid(self, metrics, mode):
        assert small_plan(metrics=metrics).mode == mode


class TestPSweep:
    def test_single_cell(self, small_data):
        res = run_sweep(small_plan(metrics=dsd_grid(1.5), instance_sizes=(60,)), small_data)
        assert len(res.rows) == 1
        row = res.rows[0]
        assert row.report.metric == "dsd" and row.report.p == 1.5 and row.report.total == 60

    def test_full_grid_is_complete_and_p_major(self, small_data):
        res = run_sweep(small_plan(), small_data)
        assert len(res.rows) == 9
        expected_order = [(p, s) for p in (1.0, 1.5, 1.523) for s in (60, 120, 240)]
        assert [(r.report.p, r.report.total) for r in res.rows] == expected_order

    def test_determinism(self, small_data):
        a = run_sweep(small_plan(), small_data)
        b = run_sweep(small_plan(), small_data)
        assert a.to_csv() == b.to_csv()

    def test_jobs_do_not_change_rows(self, small_data):
        a = run_sweep(small_plan(jobs=1), small_data)
        b = run_sweep(small_plan(jobs=4), small_data)
        assert a.to_csv() == b.to_csv()

    def test_prefix_nesting(self, small_data):
        shuffled = shuffle_dataset(small_data, 42)
        assert np.array_equal(shuffled[:60], shuffled[:120][:60])


class TestMetricComparison:
    def test_six_by_three_grid(self, small_data):
        res = run_sweep(small_plan(metrics=DEFAULT_COMPARISON_METRICS), small_data)
        assert len(res.rows) == 18
        assert [r.report.metric for r in res.rows[::3]] == [
            "minkowski",
            "cityblock",
            "euclidean",
            "sqeuclidean",
            "chebyshev",
            "dsd",
        ]

    def test_dsd_row_records_operating_p(self, small_data):
        res = run_sweep(small_plan(metrics=DEFAULT_COMPARISON_METRICS), small_data)
        dsd_rows = [r.report for r in res.rows if r.report.metric == "dsd"]
        assert all(r.p == 1.523 for r in dsd_rows)

    def test_single_metric_single_size(self, small_data):
        plan = small_plan(metrics=(DistanceSpec("euclidean"),), instance_sizes=(60,))
        res = run_sweep(plan, small_data)
        assert len(res.rows) == 1

    def test_dsd_15_row_matches_euclidean_row(self, small_data):
        sweep_res = run_sweep(small_plan(metrics=dsd_grid(1.5)), small_data)
        cmp_res = run_sweep(
            small_plan(metrics=(DistanceSpec("euclidean"),)), small_data
        )
        for a, b in zip(sweep_res.rows, cmp_res.rows):
            assert a.report.total == b.report.total
            assert a.report.per_cluster_counts == b.report.per_cluster_counts


class TestFigureData:
    def test_fig3_from_p_sweep(self, small_data, tmp_path):
        res = run_sweep(small_plan(), small_data)
        written = emit_figure_data(res, tmp_path)
        assert written == [str(tmp_path / "fig3.csv")]
        lines = (tmp_path / "fig3.csv").read_text().strip().split("\n")
        assert lines[0] == "p,accuracy_pct,outlier_pct"
        assert len(lines) == 1 + 3  # one data row per p, at the largest size

    def test_fig4_fig5_from_comparison(self, small_data, tmp_path):
        res = run_sweep(small_plan(metrics=DEFAULT_COMPARISON_METRICS), small_data)
        emit_figure_data(res, tmp_path)
        fig4 = (tmp_path / "fig4.csv").read_text().strip().split("\n")
        fig5 = (tmp_path / "fig5.csv").read_text().strip().split("\n")
        assert fig4[0] == "metric,outlier_pct"
        assert fig5[0] == "metric,accuracy_pct"
        assert len(fig4) == len(fig5) == 1 + 6

    def test_empty_result_rejected(self, small_data, tmp_path):
        res = run_sweep(small_plan(metrics=dsd_grid(1.5), instance_sizes=(60,)), small_data)
        empty = type(res)(rows=(), plan=res.plan)
        with pytest.raises(ValueError, match="empty"):
            emit_figure_data(empty, tmp_path)
        assert not (tmp_path / "fig3.csv").exists()


class TestResultSerialization:
    def test_csv_schema(self, small_data):
        res = run_sweep(small_plan(), small_data)
        lines = res.to_csv().strip().split("\n")
        assert lines[0] == "metric,p,instance_size,c1,c2,c3,accuracy_pct,outlier_pct,seed"
        assert len(lines) == 1 + 9

    def test_json_carries_plan_and_wall_times(self, small_data):
        res = run_sweep(small_plan(), small_data)
        doc = json.loads(res.to_json())
        assert doc["mode"] == "p-sweep"
        assert doc["shuffle_seed"] == 42
        assert doc["plan"]["instance_sizes"] == [60, 120, 240]
        assert doc["plan"]["metrics"] == [["dsd", 1.0], ["dsd", 1.5], ["dsd", 1.523]]
        assert doc["plan"]["init"] == "kmeans-plus-plus"
        assert sorted(doc["plan"]) == [
            "init", "instance_sizes", "k", "max_iter", "metrics", "policy", "seed",
        ]
        assert all(row["wall_ms"] >= 0 for row in doc["rows"])
        assert all("iterations" in row for row in doc["rows"])

    def test_numpy_integers_give_the_same_json(self, small_data):
        def rendered(plan):
            result = run_sweep(plan, small_data)
            rows = tuple(dataclasses.replace(r, wall_ms=0.0) for r in result.rows)
            return SweepResult(rows=rows, plan=plan).to_json()

        plan = small_plan()
        as_numpy = dataclasses.replace(
            plan, instance_sizes=tuple(np.array(plan.instance_sizes)),
            k=np.int64(plan.k), seed=np.int64(plan.seed),
        )
        assert rendered(as_numpy) == rendered(plan)

    @pytest.mark.parametrize("p", [None, 1.523, 2])
    def test_csv_row_matches_evaluation_report(self, p):
        plan = SweepPlan(k=2)
        report = EvaluationReport(
            per_cluster_counts=(3069, 2014), total=5097, policy=plan.policy,
            metric="dsd", p=p, seed=7,
        )
        assert report.cluster_accuracy_pct == 99.72532862468118
        row = SweepRow(report=report, iterations=4, wall_ms=1.5)
        text = SweepResult(rows=(row,), plan=plan).to_csv()
        assert report.to_csv() == text
        p_cell = {None: "", 1.523: "1.5229999999999999", 2: "2"}[p]
        assert text.split("\n")[1] == (
            f"dsd,{p_cell},5097,3069,2014,99.725328624681183,0.27467137531881747,7"
        )
