import numpy as np
import pytest

from matclust.data import (
    ClassSpec,
    Dataset,
    default_material_specs,
    fmt_float,
    generate_synthetic,
    load_csv,
    save_dataset_csv,
    save_report,
)
from matclust.kmeans import ClusteringConfig, fit
from matclust.metrics import DistanceSpec
from matclust.normalize import fit_transform


class TestLoadCsv:
    def test_basic_parse(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,b\n1,2\n3,4\n")
        ds = load_csv(f)
        assert ds.n_points == 2 and ds.dimension == 2
        assert ds.labels is None
        assert ds.attribute_names == ("a", "b")
        assert ds.points.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_class_column_becomes_labels(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,b,class\n1,2,metal\n3,4,polymer\n")
        ds = load_csv(f)
        assert ds.dimension == 2
        assert ds.labels == ("metal", "polymer")

    def test_non_numeric_cell_names_row(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,b\n1,abc\n")
        with pytest.raises(ValueError, match="row 2"):
            load_csv(f)

    def test_ragged_row_rejected(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ValueError, match="row 3"):
            load_csv(f)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv")

    def test_empty_body_rejected(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,b\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(f)

    def test_scientific_notation_accepted(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a\n1.5e-3\n")
        assert load_csv(f).points[0, 0] == 1.5e-3

    def test_thousands_separator_rejected(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,b\n\"1,000\",2\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_csv(f)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e400"])
    def test_non_finite_cell_names_row(self, tmp_path, cell):
        f = tmp_path / "d.csv"
        # the blank line is skipped but still counts toward the row number
        f.write_text(f"a,b\n1,2\n\n3,{cell}\n5,nan\n")
        with pytest.raises(ValueError, match="row 4 has a non-finite"):
            load_csv(f)


class TestRoundTrip:
    def test_dataset_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        ds = Dataset(
            points=rng.standard_normal((40, 5)) * 10.0 ** rng.integers(-3, 8, size=5),
            labels=tuple(rng.choice(["metal", "ceramic"], size=40)),
            attribute_names=tuple(f"attr{i}" for i in range(5)),
        )
        path = tmp_path / "rt.csv"
        save_dataset_csv(ds, path)
        back = load_csv(path)
        assert back.n_points == ds.n_points and back.dimension == ds.dimension
        assert np.array_equal(back.points, ds.points)
        assert back.labels == ds.labels

    def test_fmt_float_round_trips(self):
        for v in (0.1, 1e-300, 12345.6789, 2.0 / 3.0, 9.9e7):
            assert float(fmt_float(v)) == v


class TestGenerateSynthetic:
    def test_empty_class_contributes_nothing(self):
        specs = [
            ClassSpec("a", 5, "uniform", ((0.0, 1.0),)),
            ClassSpec("b", 0, "uniform", ((0.0, 1.0),)),
            ClassSpec("c", 5, "uniform", ((5.0, 6.0),)),
        ]
        ds = generate_synthetic(specs, seed=1)
        assert ds.n_points == 10
        assert "b" not in ds.labels

    def test_determinism(self):
        specs = default_material_specs(3, 4, 30)
        a = generate_synthetic(specs, seed=5)
        b = generate_synthetic(specs, seed=5)
        assert np.array_equal(a.points, b.points)
        assert a.labels == b.labels

    def test_label_conservation(self):
        specs = [
            ClassSpec("x", 7, "normal", ((0.0, 1.0),)),
            ClassSpec("y", 13, "normal", ((10.0, 1.0),)),
        ]
        ds = generate_synthetic(specs, seed=2)
        assert ds.labels.count("x") == 7
        assert ds.labels.count("y") == 13

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError, match="low"):
            ClassSpec("bad", 1, "uniform", ((2.0, 1.0),)).validate()
        with pytest.raises(ValueError, match="sigma"):
            ClassSpec("bad", 1, "normal", ((0.0, 0.0),)).validate()
        with pytest.raises(ValueError, match="attribute count"):
            generate_synthetic(
                [
                    ClassSpec("a", 1, "uniform", ((0.0, 1.0),)),
                    ClassSpec("b", 1, "uniform", ((0.0, 1.0), (0.0, 1.0))),
                ],
                seed=0,
            )

    def test_default_specs_shape(self):
        specs = default_material_specs()
        assert sum(s.count for s in specs) == 5097
        assert all(len(s.params) == 25 for s in specs)
        assert [s.name for s in specs] == ["polymer", "ceramic", "metal"]

    def test_separated_classes_recovered_by_kmeans(self):
        # generator construction guarantees >= 5 sigma separation; purity is
        # checked by majority-label cross-tabulation
        specs = default_material_specs(3, 25, 600)
        ds = generate_synthetic(specs, seed=42)
        _, normalized = fit_transform(ds.points)
        model = fit(normalized, ClusteringConfig(k=3, metric=DistanceSpec("euclidean"), seed=42))
        truth = np.array([{"polymer": 0, "ceramic": 1, "metal": 2}[c] for c in ds.labels])
        pure = sum(
            np.bincount(truth[model.assignments == j]).max()
            for j in range(3)
            if (model.assignments == j).any()
        )
        assert pure / ds.n_points >= 0.99

    def test_attribute_scales_span_magnitudes(self):
        specs = default_material_specs(3, 25, 90)
        ds = generate_synthetic(specs, seed=0)
        spans = ds.points.max(axis=0) - ds.points.min(axis=0)
        assert spans.max() / spans.min() > 1e6


class TestSaveReport:
    class Dummy:
        def to_csv(self):
            return "a,b\n1,2\n"

        def to_json(self):
            return '{"a": 1}'

    def test_csv_and_json(self, tmp_path):
        save_report(self.Dummy(), tmp_path / "r.csv", "csv")
        save_report(self.Dummy(), tmp_path / "r.json", "json")
        assert (tmp_path / "r.csv").read_text() == "a,b\n1,2\n"
        assert (tmp_path / "r.json").read_text() == '{"a": 1}'

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="unknown format"):
            save_report(self.Dummy(), tmp_path / "r.xml", "xml")

    def test_unwritable_path_names_path(self, tmp_path):
        target = tmp_path / "no_such_dir" / "r.csv"
        with pytest.raises(OSError, match="no_such_dir"):
            save_report(self.Dummy(), target, "csv")
