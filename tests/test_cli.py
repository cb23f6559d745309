import json

import numpy as np
import pytest

from matclust import cli, sweep
from matclust.cli import main
from matclust.evaluate import evaluate
from matclust.kmeans import fit


@pytest.fixture()
def dataset_csv(tmp_path):
    path = tmp_path / "mat.csv"
    rc = main(
        ["gen", "--classes", "3", "--dims", "6", "--count", "300", "--seed", "42",
         "-o", str(path)]
    )
    assert rc == 0
    return path


class TestGen:
    def test_row_count_and_manifest(self, tmp_path):
        out = tmp_path / "mat.csv"
        rc = main(["gen", "--classes", "3", "--dims", "4", "--count", "50", "-o", str(out)])
        assert rc == 0
        assert len(out.read_text().strip().split("\n")) == 51
        manifest = json.loads((tmp_path / "mat.csv.manifest.json").read_text())
        assert manifest["command"] == "gen"
        assert manifest["seed"] == 42  # default seed materialized
        assert manifest["rows_written"] == 50

    def test_count_zero_rejected(self, tmp_path, capsys):
        rc = main(["gen", "--count", "0", "-o", str(tmp_path / "x.csv")])
        assert rc != 0
        assert "count" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_same_command_twice_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            main(["gen", "--classes", "2", "--dims", "3", "--count", "40", "-o", str(out)])
        assert a.read_bytes() == b.read_bytes()


class TestFit:
    def test_recommended_operating_point(self, dataset_csv, tmp_path):
        out = tmp_path / "run"
        rc = main(
            ["fit", "-i", str(dataset_csv), "-o", str(out), "--k", "3",
             "--metric", "dsd", "--p", "1.523", "--seed", "42"]
        )
        assert rc == 0
        model = json.loads((out / "model.json").read_text())
        assert model["metric"] == "dsd" and model["p"] == 1.523
        assert len(model["assignments"]) == 300
        report = json.loads((out / "report.json").read_text())
        assert report["accuracy_pct"] + report["outlier_pct"] == 100.0
        assert (out / "report.csv").exists()
        assert (out / "stats.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "fit" and manifest["p"] == 1.523

    def test_minkowski_defaults_to_p_2(self, dataset_csv, tmp_path):
        out = tmp_path / "run"
        assert main(["fit", "-i", str(dataset_csv), "-o", str(out), "--metric", "minkowski"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["p"] is None and manifest["p_effective"] == 2.0
        assert json.loads((out / "model.json").read_text())["p"] == 2.0

    def test_invalid_p_exits_nonzero_without_outputs(self, dataset_csv, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["fit", "-i", str(dataset_csv), "-o", str(out), "--metric", "dsd", "--p", "9"])
        assert rc != 0
        assert "above 3" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_cell_exits_nonzero_without_outputs(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_text("a,b\n0,1\n1,nan\n2,3\n4,5\n")
        out = tmp_path / "run"
        rc = main(["fit", "-i", str(src), "-o", str(out), "--k", "2"])
        assert rc == 2
        assert "row 3 has a non-finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("body, row", [(b"a,b\n0,1\n1,\xe92\n2,3\n", 3), (b"\xe9,b\n0,1\n", 1)])
    def test_byte_that_is_not_utf8_exits_2_naming_the_row(self, tmp_path, capsys, body, row):
        src = tmp_path / "bad.csv"
        src.write_bytes(body)
        out = tmp_path / "run"
        rc = main(["fit", "-i", str(src), "-o", str(out), "--k", "2"])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {src}: row {row} is not valid UTF-8\n"
        assert not out.exists()

    def test_failed_fit_leaves_no_output_dir(self, tmp_path, capsys):
        src = tmp_path / "same.csv"
        src.write_text("a,b\n" + "0.5,0.5\n" * 10)
        out = tmp_path / "run"
        rc = main(["fit", "-i", str(src), "-o", str(out), "--k", "3"])
        assert rc == 2
        assert "empty at convergence" in capsys.readouterr().err
        assert not out.exists()

    def test_overflow_without_normalization_exits_2(self, tmp_path, capsys):
        src = tmp_path / "huge.csv"
        src.write_text("a,b\n" + "".join(f"{i}e200,{i % 3}e200\n" for i in range(1, 9)))
        out = tmp_path / "run"
        rc = main(["fit", "-i", str(src), "-o", str(out), "--k", "2", "--no-normalize"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "normalize the data" in err
        assert not out.exists()

    def test_policy_none_gives_full_accuracy(self, dataset_csv, tmp_path):
        out = tmp_path / "run"
        rc = main(
            ["fit", "-i", str(dataset_csv), "-o", str(out), "--metric", "euclidean",
             "--outlier-policy", "none"]
        )
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["accuracy_pct"] == 100.0

    def test_no_normalize_skips_stats(self, dataset_csv, tmp_path):
        out = tmp_path / "run"
        rc = main(
            ["fit", "-i", str(dataset_csv), "-o", str(out), "--metric", "euclidean",
             "--no-normalize"]
        )
        assert rc == 0
        assert not (out / "stats.json").exists()

    def test_fit_and_evaluate_get_one_column_major_array(self, dataset_csv, tmp_path, monkeypatch):
        # kmeans.fit copies nothing, and outlier profiling reads by column
        handed = []

        def spy(real):
            def call(points, *rest):
                handed.append(points)
                return real(points, *rest)
            return call

        monkeypatch.setattr(cli, "fit", spy(fit))
        monkeypatch.setattr(cli, "evaluate", spy(evaluate))
        for flags in ([], ["--no-normalize"]):
            handed.clear()
            out = tmp_path / f"run{len(flags)}"
            assert main(["fit", "-i", str(dataset_csv), "-o", str(out), *flags]) == 0
            assert len(handed) == 2 and handed[0] is handed[1]
            assert handed[0].flags.f_contiguous and handed[0].dtype == np.float64


class TestSweep:
    def test_one_by_one_plan(self, dataset_csv, tmp_path):
        out = tmp_path / "run"
        rc = main(
            ["sweep", "-i", str(dataset_csv), "-o", str(out),
             "--p-values", "1.5", "--instances", "100"]
        )
        assert rc == 0
        lines = (out / "sweep.csv").read_text().strip().split("\n")
        assert len(lines) == 2
        assert (out / "fig3.csv").exists()
        assert (out / "sweep.json").exists()

    def test_byte_identical_across_jobs(self, dataset_csv, tmp_path):
        outs = []
        for name, jobs in (("r1", "1"), ("r2", "3")):
            out = tmp_path / name
            rc = main(
                ["sweep", "-i", str(dataset_csv), "-o", str(out),
                 "--p-values", "1.0", "1.523", "--instances", "100", "200",
                 "--jobs", jobs]
            )
            assert rc == 0
            outs.append(out)
        assert (outs[0] / "sweep.csv").read_bytes() == (outs[1] / "sweep.csv").read_bytes()
        assert (outs[0] / "fig3.csv").read_bytes() == (outs[1] / "fig3.csv").read_bytes()

    def test_missing_input_fails(self, tmp_path, capsys):
        rc = main(["sweep", "-i", str(tmp_path / "none.csv"), "-o", str(tmp_path / "o")])
        assert rc != 0


class TestCompare:
    def test_six_metric_rows(self, dataset_csv, tmp_path):
        out = tmp_path / "run"
        rc = main(
            ["compare", "-i", str(dataset_csv), "-o", str(out), "--instances", "150", "300"]
        )
        assert rc == 0
        lines = (out / "sweep.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 6 * 2
        assert (out / "fig4.csv").exists() and (out / "fig5.csv").exists()

    def test_failed_compare_leaves_no_output_dir(self, tmp_path, capsys):
        src = tmp_path / "same.csv"
        src.write_text("a,b\n" + "0.5,0.5\n" * 10)
        out = tmp_path / "run"
        rc = main(["compare", "-i", str(src), "-o", str(out), "--k", "3",
                   "--instances", "10", "--jobs", "1"])
        assert rc == 2
        assert "empty at convergence" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_materializes_defaults(self, dataset_csv, tmp_path):
        out = tmp_path / "run"
        main(["compare", "-i", str(dataset_csv), "-o", str(out), "--instances", "100"])
        manifest = json.loads((out / "manifest.json").read_text())
        for key in ("seed", "k", "max_iter", "outlier_policy", "jobs"):
            assert key in manifest and manifest[key] is not None
        assert "tol" not in manifest


class TestSweepJson:
    @pytest.mark.parametrize(
        "command, mode, grid",
        [
            ("sweep", "p-sweep", [["dsd", p] for p in sweep.DEFAULT_P_GRID]),
            ("compare", "metric-comparison",
             [["minkowski", 1.5], ["cityblock", None], ["euclidean", None],
              ["sqeuclidean", None], ["chebyshev", None], ["dsd", 1.523]]),
        ],
    )
    def test_plan_lists_exactly_the_grid_that_ran(
        self, dataset_csv, tmp_path, command, mode, grid
    ):
        out = tmp_path / "run"
        rc = main([command, "-i", str(dataset_csv), "-o", str(out), "--instances", "100",
                   "--jobs", "1"])
        assert rc == 0
        doc = json.loads((out / "sweep.json").read_text())
        assert doc["mode"] == mode
        assert doc["plan"]["metrics"] == grid
        assert "p_values" not in doc["plan"]
        assert doc["plan"]["init"] == "kmeans-plus-plus"
        assert [[row["metric"], row["p"]] for row in doc["rows"]] == grid


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("command", ["sweep", "compare"])
def test_each_cell_fits_and_evaluates_one_column_major_array(
    dataset_csv, tmp_path, monkeypatch, command, jobs
):
    fitted = {}  # the model of each cell's fit and the array it was handed
    handed = []  # the arrays of each evaluation and of the fit of its model

    def fit_spy(points, config):
        model = fit(points, config)
        fitted[id(model)] = (model, points)
        return model

    def evaluate_spy(points, model, policy):
        handed.append((points, fitted[id(model)][1]))
        return evaluate(points, model, policy)

    monkeypatch.setattr(sweep, "fit", fit_spy)
    monkeypatch.setattr(sweep, "evaluate", evaluate_spy)
    out = tmp_path / "run"
    assert main([command, "-i", str(dataset_csv), "-o", str(out), "--instances", "100", "300",
                 "--jobs", jobs]) == 0
    assert len(handed) == len(fitted) == 2 * (6 if command == "compare" else 10)
    for evaluated, fit_on in handed:
        assert evaluated is fit_on
        assert evaluated.flags.f_contiguous and evaluated.shape[1] == 6


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


class TestOutputs:
    def test_every_json_file_is_strict_and_newline_terminated(self, dataset_csv, tmp_path):
        runs = [
            ["fit", "-o", str(tmp_path / "fit")],
            ["fit", "--metric", "cityblock", "--outlier-policy", "quantile",
             "-o", str(tmp_path / "fit-q")],
            ["sweep", "--p-values", "1.5", "3", "--instances", "100", "-o", str(tmp_path / "sweep")],
            ["compare", "--instances", "100", "--jobs", "2", "-o", str(tmp_path / "compare")],
        ]
        for argv in runs:
            assert main([argv[0], "-i", str(dataset_csv), *argv[1:]]) == 0
        files = sorted(tmp_path.rglob("*.json"))
        names = {f.name for f in files}
        assert names == {
            "mat.csv.manifest.json", "model.json", "report.json", "stats.json",
            "sweep.json", "manifest.json",
        }
        for f in files:
            text = f.read_text(encoding="utf-8")
            assert text.endswith("\n") and not text.endswith("\n\n"), f
            json.loads(text, parse_constant=_reject_constant)

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "--outlier-policy", "quantile", "--outlier-q", "inf"],
            ["fit", "--outlier-c", "inf", "--outlier-q", "nan"],
            ["fit", "--outlier-c", "inf"],
            ["fit", "--outlier-policy", "none", "--outlier-q", "nan"],
            ["sweep", "--outlier-c", "nan", "--p-values", "1.5", "--instances", "100"],
            ["compare", "--outlier-policy", "quantile", "--outlier-c", "nan",
             "--instances", "100"],
        ],
        ids=" ".join,
    )
    def test_non_finite_option_exits_2_without_outputs(self, dataset_csv, tmp_path, capsys, argv):
        out = tmp_path / "run"
        rc = main([argv[0], "-i", str(dataset_csv), "-o", str(out), *argv[1:]])
        assert rc == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "sweep", "compare"])
    def test_range_overflow_exits_2_with_one_error_line(self, tmp_path, capsys, command):
        src = tmp_path / "x.csv"
        src.write_text("a,b\n-1e308,1\n1e308,2\n0,3\n")
        out = tmp_path / "run"
        sizes = [] if command == "fit" else ["--instances", "3"]
        rc = main([command, "-i", str(src), "-o", str(out), "--k", "2", *sizes])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: attribute 0 cannot be normalized: its range, from -1e+308 to 1e+308, "
            "is not a finite float64\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep", "compare"])
    @pytest.mark.parametrize("sizes, bad", [(["-5", "100"], "-5"), (["0"], "0")])
    def test_instance_size_below_one_exits_2_without_outputs(
        self, dataset_csv, tmp_path, capsys, command, sizes, bad
    ):
        out = tmp_path / "run"
        rc = main([command, "-i", str(dataset_csv), "-o", str(out), "--instances", *sizes])
        assert rc == 2
        assert f"instance size must be >= 1, got {bad}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv", [["fit"], ["sweep", "--instances", "100"], ["compare", "--instances", "100"]],
        ids=" ".join,
    )
    def test_negative_seed_exits_2_by_name_before_any_shuffle(
        self, dataset_csv, tmp_path, capsys, monkeypatch, argv
    ):
        calls = []
        monkeypatch.setattr(sweep, "shuffle_dataset", lambda *a: calls.append(a))
        out = tmp_path / "run"
        rc = main([argv[0], "-i", str(dataset_csv), "-o", str(out), "--seed", "-1", *argv[1:]])
        assert rc == 2
        assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()
        assert calls == []

    def test_gen_negative_seed_exits_2_before_writing(self, tmp_path, capsys):
        out = tmp_path / "mat.csv"
        rc = main(["gen", "--count", "20", "--seed", "-1", "-o", str(out)])
        assert rc == 2
        assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--k", "0", "--p-values", "1.5", "2", "--jobs", "2"],
            ["sweep", "--max-iter", "0", "--p-values", "1.5"],
            ["compare", "--max-iter", "0", "--jobs", "2"],
        ],
        ids=" ".join,
    )
    def test_bad_fit_setting_stops_sweep_before_any_cell(
        self, dataset_csv, tmp_path, capsys, monkeypatch, argv
    ):
        calls = []
        monkeypatch.setattr(sweep, "fit", lambda *a: calls.append(a))
        out = tmp_path / "run"
        rc = main([argv[0], "-i", str(dataset_csv), "-o", str(out), "--instances", "100",
                   *argv[1:]])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()
        assert calls == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fit", "--k", "0"], "k must be >= 1, got 0"),
            (["fit", "--max-iter", "0"], "max_iter must be >= 1, got 0"),
            (["sweep", "--jobs", "0"], "jobs must be >= 1, got 0"),
            (["compare", "--outlier-c", "nan", "--jobs", "1"],
             "outlier c must be finite, got nan"),
            (["sweep", "--p-values", "1.5", "1.5"],
             "metric DistanceSpec(kind='dsd', p=1.5) is repeated in the grid"),
            (["compare", "--instances", "3", "3"], "instance size 3 is repeated in (3, 3)"),
        ],
        ids=["fit --k 0", "fit --max-iter 0", "sweep --jobs 0", "compare --outlier-c nan --jobs 1",
             "sweep --p-values 1.5 1.5", "compare --instances 3 3"],
    )
    def test_bad_setting_exits_2_before_loading_the_input(
        self, dataset_csv, tmp_path, capsys, monkeypatch, argv, message
    ):
        calls = []
        monkeypatch.setattr(cli, "load_csv", lambda *a: calls.append(a))
        out = tmp_path / "run"
        rc = main([argv[0], "-i", str(dataset_csv), "-o", str(out), *argv[1:]])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "sweep", "compare"])
    def test_removed_tol_option_exits_2_as_unknown(self, dataset_csv, tmp_path, capsys, command):
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as stop:
            main([command, "-i", str(dataset_csv), "-o", str(out), "--tol", "1e-9"])
        assert stop.value.code == 2
        assert "unrecognized arguments: --tol 1e-9" in capsys.readouterr().err
        assert not out.exists()
