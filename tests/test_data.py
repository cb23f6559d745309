import csv
import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from matclust import data
from matclust.data import (
    Dataset,
    csv_text,
    fmt_float,
    generate_synthetic,
    json_text,
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

    def test_crlf_line_endings(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_bytes(b"a,b,class\r\n1,2,metal\r\n3,4,polymer\r\n")
        ds = load_csv(f)
        assert ds.points.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert ds.labels == ("metal", "polymer")

    def test_blank_lines_skipped_but_counted(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,b\n1,2\n\n\n3,4\n\n")
        assert load_csv(f).points.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        f.write_text("a,b\n1,2\n\n\n3,x\n\n")
        with pytest.raises(ValueError, match="row 5 has a non-numeric attribute cell"):
            load_csv(f)

    def test_whitespace_only_line_is_a_row(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,b\n1,2\n   \n3,4\n")
        with pytest.raises(ValueError, match="row 3 has 1 cells, expected 2"):
            load_csv(f)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a,b\n1,2,3\n4,5,6\n", "row 2 has 3 cells, expected 2"),
            ("a,b,class\n1,2,x\n3,4,y,z\n", "row 3 has 4 cells, expected 3"),
        ],
    )
    def test_extra_column_rejected(self, tmp_path, text, message):
        f = tmp_path / "d.csv"
        f.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_csv(f)

    @pytest.mark.parametrize("cell", ['"1,000"', "1_000", "\u0661", "1e", "", "0x10"])
    def test_cell_outside_grammar_names_row(self, tmp_path, cell):
        f = tmp_path / "d.csv"
        f.write_text(f"a,b,class\n1,2,x\n\n3,{cell},y\n", encoding="utf-8")
        with pytest.raises(ValueError, match="row 4 has a non-numeric attribute cell"):
            load_csv(f)

    def test_non_numeric_row_reported_before_earlier_non_finite_row(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,b\n1,nan\n2,abc\n")
        with pytest.raises(ValueError, match="row 3 has a non-numeric"):
            load_csv(f)

    def test_surrounding_whitespace_and_quotes_accepted(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text('a,b,class\n 1.5 ,"\t-2e3","a ""b"", c"\n', encoding="utf-8")
        ds = load_csv(f)
        assert ds.points.tolist() == [[1.5, -2000.0]]
        assert ds.labels == ('a "b", c',)

    def test_header_only_file_rejected_without_warning(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,b,class\n\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no data rows"):
                load_csv(f)

    def test_points_are_c_contiguous_float64(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,b,class\n1,2,x\n3,4,y\n")
        points = load_csv(f).points
        assert points.dtype == np.float64 and points.flags.c_contiguous

    def test_valid_input_skips_the_row_diagnosis(self, tmp_path, monkeypatch):
        def fail(*args):
            raise AssertionError("the diagnostic pass ran on valid input")

        monkeypatch.setattr(data, "_first_bad_row", fail)
        f = tmp_path / "d.csv"
        f.write_text("a,b,class\n1,2,x\n\n3,4,y\n")
        assert load_csv(f).n_points == 2

    def test_rejected_when_diagnosis_finds_no_row(self, tmp_path, monkeypatch):
        # a cell pass laxer than np.loadtxt must not turn a rejection into a load
        monkeypatch.setattr(data, "_parse_cell", float)
        f = tmp_path / "d.csv"
        f.write_text("a,b\n1,1_000\n")
        with pytest.raises(ValueError, match="no single row was found at fault"):
            load_csv(f)


# Finite floats over the whole range, subnormals and -0.0 included, plus
# labels with the characters CSV quoting must survive.
_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [5e-324, -2.5e-310, -0.0, 1e300, -1e-300, 1.7976931348623157e308]
)
_LABELS = st.text(alphabet=st.sampled_from(list('ab ,"\n\u00e9')), max_size=6)


@st.composite
def _datasets(draw):
    n = draw(st.integers(1, 6))
    d = draw(st.integers(1, 4))
    labels = draw(st.none() | st.lists(_LABELS, min_size=n, max_size=n).map(tuple))
    return Dataset(
        points=draw(hnp.arrays(np.float64, (n, d), elements=_FLOATS)),
        labels=labels,
        attribute_names=tuple(f"attr{i + 1}" for i in range(d)),
    )


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

    @settings(max_examples=150, deadline=None)
    @given(ds=_datasets())
    def test_save_load_round_trip_bitwise(self, tmp_path_factory, ds):
        path = tmp_path_factory.mktemp("rt") / "rt.csv"
        save_dataset_csv(ds, path)
        back = load_csv(path)
        assert back.points.tobytes() == ds.points.tobytes()
        assert back.labels == ds.labels
        assert back.attribute_names == ds.attribute_names

    def test_bytes_equal_csv_writer_rows(self, tmp_path):
        rng = np.random.default_rng(17)
        labels = ["a,b", 'say "hi"', "two\nlines", "cr\rhere", "", " spaced ", "é", "plain"]
        ds = Dataset(
            points=rng.standard_normal((40, 3)) * 10.0 ** rng.integers(-300, 300, 3),
            labels=tuple(rng.choice(labels, 40)),
            attribute_names=("x", "y,z", "w"),
        )
        for dataset in (ds, Dataset(points=ds.points, labels=None)):
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            header = list(dataset.attribute_names) or ["attr1", "attr2", "attr3"]
            writer.writerow(header + (["class"] if dataset.labels else []))
            for i, row in enumerate(dataset.points):
                label = [dataset.labels[i]] if dataset.labels else []
                writer.writerow([fmt_float(x) for x in row] + label)
            path = tmp_path / "out.csv"
            save_dataset_csv(dataset, path)
            assert path.read_bytes() == buf.getvalue().encode("utf-8")

    def test_fmt_float_round_trips(self):
        for v in (0.1, 1e-300, 12345.6789, 2.0 / 3.0, 9.9e7):
            assert float(fmt_float(v)) == v


class TestGenerateSynthetic:
    def test_more_classes_than_points_leaves_classes_empty(self):
        # as `gen --classes 5 --count 3` writes: one point in each of the
        # first three classes, none in the last two
        ds = generate_synthetic(5, 2, 3, seed=1)
        assert ds.n_points == 3
        assert sorted(ds.labels) == ["class-1", "class-2", "class-3"]

    def test_determinism(self):
        a = generate_synthetic(3, 4, 30, seed=5)
        b = generate_synthetic(3, 4, 30, seed=5)
        assert np.array_equal(a.points, b.points)
        assert a.labels == b.labels

    def test_label_conservation(self):
        # 20 points over 3 classes: the first 20 % 3 = 2 classes get one more
        ds = generate_synthetic(3, 1, 20, seed=2)
        assert [ds.labels.count(c) for c in ("polymer", "ceramic", "metal")] == [7, 7, 6]

    @pytest.mark.parametrize("seed", [-1, False, 0.5])
    def test_bad_seed_rejected_by_name(self, seed):
        with pytest.raises(ValueError, match=rf"seed must be an integer >= 0, got {seed!r}"):
            generate_synthetic(2, 2, 10, seed)

    @pytest.mark.parametrize("name", ["classes", "dims", "count"])
    @pytest.mark.parametrize(
        "bad, message",
        [(0, "must be >= 1, got 0"), (True, "must be an integer, got True"),
         (2.0, "must be an integer, got 2.0")],
    )
    def test_bad_size_rejected_by_name(self, name, bad, message):
        sizes = dict(classes=3, dims=2, count=10)
        sizes[name] = bad
        with pytest.raises(ValueError, match=rf"^{name} {message}$"):
            generate_synthetic(**sizes, seed=0)

    def test_default_shape(self):
        ds = generate_synthetic(3, 25, 5097, seed=42)
        assert ds.points.shape == (5097, 25)
        assert [ds.labels.count(c) for c in ("polymer", "ceramic", "metal")] == [1699] * 3

    def test_separated_classes_recovered_by_kmeans(self):
        # generator construction guarantees >= 5 sigma separation; purity is
        # checked by majority-label cross-tabulation
        ds = generate_synthetic(3, 25, 600, seed=42)
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
        ds = generate_synthetic(3, 25, 90, seed=0)
        spans = ds.points.max(axis=0) - ds.points.min(axis=0)
        assert spans.max() / spans.min() > 1e6


class TestRenderers:
    def test_csv_text_cells(self):
        text = csv_text(["a", "b", "c"], [("x", None, 3), (1.523, 2.0, 0.1)])
        assert text == "a,b,c\nx,,3\n1.5229999999999999,2,0.10000000000000001\n"

    def test_json_text_is_compact_and_newline_terminated(self):
        assert json_text({"a": [1, 2.5], "b": None}) == '{"a": [1, 2.5], "b": null}\n'

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_json_text_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            json_text({"tol": bad})


class TestSaveReport:
    def test_csv_and_json(self, tmp_path):
        save_report("a,b\n1,2\n", tmp_path / "r.csv")
        save_report('{"a":1}\n', tmp_path / "r.json")
        assert (tmp_path / "r.csv").read_bytes() == b"a,b\n1,2\n"
        assert (tmp_path / "r.json").read_bytes() == b'{"a":1}\n'

    def test_unwritable_path_names_path(self, tmp_path):
        target = tmp_path / "no_such_dir" / "r.csv"
        with pytest.raises(OSError, match="no_such_dir"):
            save_report("a\n", target)
