"""Tests for symmetric/unsigned quantization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QuantizationError
from repro.lowp import (
    QuantParams,
    dequantize,
    int_range,
    quantize_with,
    symmetric_quantize,
    symmetric_quantize_slices,
    unsigned_quantize,
)


class TestIntRange:
    def test_signed(self):
        assert int_range(8) == (-128, 127)
        assert int_range(4) == (-8, 7)

    def test_unsigned(self):
        assert int_range(8, signed=False) == (0, 255)
        assert int_range(4, signed=False) == (0, 15)

    def test_invalid_bits(self):
        with pytest.raises(QuantizationError):
            int_range(0)
        with pytest.raises(QuantizationError):
            int_range(33)


class TestSymmetric:
    def test_extremes_map_to_qmax(self):
        x = np.array([-1.0, 0.0, 1.0])
        q, p = symmetric_quantize(x, 8)
        assert q[2] == 127 and q[0] == -127
        assert q[1] == 0

    def test_range_respected(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=1000)
        q, p = symmetric_quantize(x, 4)
        assert q.min() >= -8 and q.max() <= 7

    def test_round_trip_error_bounded(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=500)
        q, p = symmetric_quantize(x, 8)
        err = np.abs(dequantize(q, p) - x)
        assert err.max() <= p.scale / 2 + 1e-9

    def test_lower_bits_higher_error(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=2000)
        errs = []
        for bits in (16, 8, 4):
            q, p = symmetric_quantize(x, bits)
            errs.append(float(np.abs(dequantize(q, p) - x).mean()))
        assert errs[0] < errs[1] < errs[2]

    def test_all_zero_input(self):
        q, p = symmetric_quantize(np.zeros(4), 8)
        assert p.scale == 1.0
        np.testing.assert_array_equal(q, 0)


class TestUnsigned:
    def test_softmax_like_input(self):
        x = np.array([0.0, 0.25, 0.5, 1.0])
        q, p = unsigned_quantize(x, 8)
        assert q[-1] == 255 and q[0] == 0

    def test_rejects_negative(self):
        with pytest.raises(QuantizationError):
            unsigned_quantize(np.array([-0.1, 0.5]), 8)


class TestParams:
    def test_bad_scale(self):
        with pytest.raises(QuantizationError):
            QuantParams(scale=0.0, bits=8)
        with pytest.raises(QuantizationError):
            QuantParams(scale=float("nan"), bits=8)

    def test_quantize_with_clips(self):
        p = QuantParams(scale=0.1, bits=4)
        q = quantize_with(np.array([100.0, -100.0]), p)
        assert q[0] == 7 and q[1] == -8


@settings(max_examples=50)
@given(
    st.lists(
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False), min_size=1, max_size=64
    ),
    st.sampled_from([4, 8, 16]),
)
def test_quantize_round_trip_property(vals, bits):
    x = np.array(vals)
    q, p = symmetric_quantize(x, bits)
    assert q.min() >= p.qmin and q.max() <= p.qmax
    # dequantized values within half a step of the original
    assert np.all(np.abs(dequantize(q, p) - x) <= p.scale * 0.5 + 1e-6)


class TestSymmetricQuantizeSlices:
    def test_each_slice_matches_symmetric_quantize(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 6, 7)) * np.array([1, 0, 1e-310, 1e3, 1e-300])[
            :, None, None
        ]
        q, scales = symmetric_quantize_slices(x, 8)
        assert q.dtype == np.int8 and scales.shape == (5,)
        for i in range(5):
            qi, pi = symmetric_quantize(x[i], 8)
            np.testing.assert_array_equal(q[i], qi)
            assert scales[i] == pi.scale
        assert scales[1] == 1.0  # all-zero slice
        assert scales[2] == np.finfo(np.float64).tiny  # subnormal amax floor

    def test_integer_input_takes_a_float_amax(self):
        # int8 |-128| wraps to -128: the amax must be taken in float64
        x = np.array([[[-128, 5], [3, 127]], [[-128, 0], [0, 0]], [[1, -2], [0, 0]]],
                     dtype=np.int8)
        for bits in (8, 4):
            q, scales = symmetric_quantize_slices(x, bits)
            for i in range(len(x)):
                qi, pi = symmetric_quantize(x[i], bits)
                np.testing.assert_array_equal(q[i], qi)
                assert scales[i] == pi.scale
        assert scales[0] == 128 / 7 and scales[1] == 128 / 7
