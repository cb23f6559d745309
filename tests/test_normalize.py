import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matclust.normalize import FeatureStats, fit, fit_transform, transform
from test_kmeans import layouts


class TestFit:
    def test_two_point_extremes(self):
        stats = fit([[0.0], [10.0]])
        assert stats.min[0] == 0.0 and stats.max[0] == 10.0

    def test_single_point_degenerate(self):
        stats = fit([[5.0]])
        assert stats.min[0] == stats.max[0] == 5.0

    def test_componentwise_scan(self):
        # frozen from a by-hand componentwise min/max scan
        stats = fit([[1.0, 9.0], [3.0, 2.0], [0.0, 4.0]])
        assert stats.min.tolist() == [0.0, 2.0]
        assert stats.max.tolist() == [3.0, 9.0]

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fit(np.empty((0, 3)))

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            fit([[1.0, 2.0], [3.0]])

    @pytest.mark.parametrize(
        "data, message",
        [
            ([[-1e308, 1.0], [1e308, 2.0], [0.0, 3.0]],
             r"attribute 0 cannot be normalized: its range, from -1e\+308 to 1e\+308,"),
            ([[1.0, 1.7e308], [2.0, -1.7e308]],
             r"attribute 1 cannot be normalized: its range, from -1.7e\+308 to 1.7e\+308,"),
            ([[1.0, np.inf], [2.0, 0.0]], r"attribute 1 .* from 0.0 to inf,"),
        ],
        ids=["overflow", "overflow in attribute 1", "infinite"],
    )
    def test_range_that_is_not_finite_rejected_without_warning(self, data, message):
        # filterwarnings = error turns any numpy warning into a failure
        for call in (fit, fit_transform):
            with pytest.raises(ValueError, match=message + " is not a finite float64"):
                call(np.array(data))

    def test_zero_extremes_are_positive_in_any_layout(self):
        # which zero numpy's min and max keep among -0.0 and +0.0 depends on
        # the layout and, for column-major data, on the SIMD path
        rng = np.random.default_rng(5)
        for _ in range(75):
            n, d = int(rng.integers(1, 40)), int(rng.integers(1, 9))
            data = rng.choice([-0.0, 0.0, 1.0, -1.0], size=(n, d), p=[0.4, 0.4, 0.1, 0.1])
            stats = [fit(view) for view in layouts(data)]
            for s in stats:
                assert s.min.tobytes() == stats[0].min.tobytes()
                assert s.max.tobytes() == stats[0].max.tobytes()
                for extreme in (s.min, s.max):
                    assert not np.signbit(extreme[extreme == 0]).any()
            assert np.array_equal(stats[0].min, data.min(axis=0))
            assert np.array_equal(stats[0].max, data.max(axis=0))


class TestTransform:
    STATS = FeatureStats(min=np.array([0.0, 2.0]), max=np.array([10.0, 2.0]))

    def test_min_maps_to_zero(self):
        out = transform(self.STATS, [0.0, 2.0])
        assert out.tolist() == [0.0, 0.0]

    def test_max_maps_to_one_and_degenerate_to_zero(self):
        out = transform(self.STATS, [10.0, 2.0])
        assert out[0] == 1.0
        assert out[1] == 0.0  # degenerate attribute stays inert

    def test_midpoint(self):
        assert transform(self.STATS, [5.0, 2.0])[0] == 0.5

    def test_no_clamping_out_of_sample(self):
        out = transform(self.STATS, [-5.0, 2.0])
        assert out[0] == -0.5

    def test_bitwise_the_divide_into_zeros_and_input_untouched(self):
        rng = np.random.default_rng(13)
        data = rng.standard_normal((50, 6)) * 10.0 ** rng.integers(-3, 8, 6)
        data[:, 2] = 7.5  # a constant column
        stats = fit(data)
        span = stats.max - stats.min
        for v in (data, data[3], data * 3.0 - 1.0):  # out-of-sample rows too
            before = v.copy()
            shifted = v - stats.min
            expected = np.divide(shifted, span, out=np.zeros_like(shifted), where=span != 0)
            assert transform(stats, v).tobytes() == expected.tobytes()
            assert v.tobytes() == before.tobytes()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            transform(self.STATS, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("v", [5.0, np.zeros((3, 4, 2))], ids=["scalar", "3-D"])
    def test_neither_vector_nor_matrix_rejected_by_shape(self, v):
        with pytest.raises(ValueError, match=re.escape(f"got shape {np.shape(v)}") + "$"):
            transform(self.STATS, v)


class TestFitTransform:
    def test_extremes_map_to_bounds(self):
        _, out = fit_transform([[0.0], [10.0]])
        assert out.tolist() == [[0.0], [1.0]]

    def test_degenerate_rule(self):
        _, out = fit_transform([[5.0]])
        assert out.tolist() == [[0.0]]

    def test_closed_form_values(self):
        # frozen from direct (v - min) / (max - min) evaluation per cell
        _, out = fit_transform([[1.0, 9.0], [3.0, 2.0], [0.0, 4.0]])
        expected = np.array([[1.0 / 3.0, 1.0], [1.0, 0.0], [0.0, 2.0 / 7.0]])
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_column_major_output(self, order):
        # kmeans.fit holds its data column-major: it makes no copy of this
        data = np.asarray(np.random.default_rng(2).random((50, 4)), order=order)
        data[:, 2] = 7.0
        _, out = fit_transform(data)
        assert out.flags.f_contiguous and out.shape == (50, 4)
        span = data.max(axis=0) - data.min(axis=0)
        expected = np.zeros_like(data)
        live = span != 0
        expected[:, live] = (data[:, live] - data.min(axis=0)[live]) / span[live]
        assert out.tobytes(order="C") == expected.tobytes(order="C")


datasets = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.lists(
        st.lists(
            st.floats(-1e8, 1e8, allow_nan=False, allow_infinity=False),
            min_size=n,
            max_size=n,
        ),
        min_size=1,
        max_size=30,
    )
)


class TestProperties:
    @settings(max_examples=150, deadline=None)
    @given(data=datasets)
    def test_range_and_extremes(self, data):
        stats, out = fit_transform(data)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
        assert np.all(transform(stats, stats.min) == 0.0)
        span = stats.max - stats.min
        ones = transform(stats, stats.max)
        assert np.all(ones[span > 0] == 1.0)
        assert np.all(ones[span == 0] == 0.0)

    @settings(max_examples=150, deadline=None)
    @given(data=datasets)
    def test_invertibility_non_degenerate(self, data):
        stats, out = fit_transform(data)
        span = stats.max - stats.min
        recovered = out * span + stats.min
        original = np.asarray(data, dtype=np.float64)
        mask = span > 0
        # error scale is the larger of the value and its attribute's span:
        # values near zero inside a wide-span attribute cannot beat the
        # cancellation floor of (v - min) + min
        scale = np.maximum(np.abs(original), span[None, :])
        assert np.all(
            np.abs(recovered[:, mask] - original[:, mask]) <= 1e-12 * scale[:, mask]
        )

    @settings(max_examples=100, deadline=None)
    @given(data=datasets)
    def test_order_preservation(self, data):
        stats, _ = fit_transform(data)
        arr = np.asarray(data, dtype=np.float64)
        order = np.argsort(arr[:, 0], kind="stable")
        transformed = transform(stats, arr)[order, 0]
        assert np.all(np.diff(transformed) >= 0.0)


class TestSerialization:
    def test_to_json(self):
        stats = fit([[1.0, 9.0], [3.0, 2.0], [0.0, 4.0]])
        assert json.loads(stats.to_json()) == {"min": [0.0, 2.0], "max": [3.0, 9.0]}
