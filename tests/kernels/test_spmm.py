"""Tests for Magicube SpMM."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, PrecisionError, ShapeError
from repro.formats import dense_to_srbcrs
from repro.kernels import MagicubeSpMM, SpMMConfig, StrictSpMM
from tests.conftest import make_structured_sparse


def run_spmm(rng, l_bits, r_bits, v=8, sparsity=0.7, m=32, k=64, n=64, **cfg_kwargs):
    kern = MagicubeSpMM(SpMMConfig(l_bits=l_bits, r_bits=r_bits, **cfg_kwargs))
    dense = make_structured_sparse(rng, m, k, v, sparsity, bits=l_bits)
    lhs = dense_to_srbcrs(dense, v, kern.required_stride)
    lo, hi = -(1 << (r_bits - 1)), (1 << (r_bits - 1)) - 1
    rhs = rng.integers(lo, hi + 1, size=(k, n))
    res = kern(lhs, rhs)
    return dense, rhs, res


class TestCorrectness:
    @pytest.mark.parametrize("l,r", [(8, 8), (4, 4), (16, 8), (16, 16), (8, 4), (16, 4), (12, 4)])
    def test_matches_dense_reference(self, rng, l, r):
        dense, rhs, res = run_spmm(rng, l, r)
        np.testing.assert_array_equal(res.output, dense.astype(np.int64) @ rhs)

    @pytest.mark.parametrize("v", [2, 4, 8])
    def test_vector_lengths(self, rng, v):
        dense, rhs, res = run_spmm(rng, 8, 8, v=v)
        np.testing.assert_array_equal(res.output, dense.astype(np.int64) @ rhs)

    @pytest.mark.parametrize("sparsity", [0.5, 0.9, 0.98])
    def test_sparsities(self, rng, sparsity):
        dense, rhs, res = run_spmm(rng, 8, 8, sparsity=sparsity, m=64, k=128)
        np.testing.assert_array_equal(res.output, dense.astype(np.int64) @ rhs)

    def test_strict_mode_matches_fast(self, rng):
        cfg = SpMMConfig(l_bits=16, r_bits=4)
        kern = MagicubeSpMM(cfg)
        dense = make_structured_sparse(rng, 16, 64, 8, 0.6, bits=16)
        lhs = dense_to_srbcrs(dense, 8, kern.required_stride)
        rhs = rng.integers(-8, 8, size=(64, 32))
        fast = kern(lhs, rhs).output
        strict = StrictSpMM(cfg)(lhs, rhs).output
        np.testing.assert_array_equal(fast, strict)

    def test_empty_matrix(self, rng):
        kern = MagicubeSpMM(SpMMConfig())
        lhs = dense_to_srbcrs(np.zeros((16, 32), dtype=np.int32), 8, 16)
        rhs = rng.integers(-128, 128, size=(32, 16))
        res = kern(lhs, rhs)
        np.testing.assert_array_equal(res.output, 0)

    def test_unsigned_lhs(self, rng):
        """Softmax-output path: unsigned 8-bit LHS, signed int8 RHS."""
        kern = MagicubeSpMM(SpMMConfig(l_bits=8, r_bits=8, l_signed=False))
        dense = make_structured_sparse(rng, 16, 32, 8, 0.5, bits=8, signed=False)
        lhs = dense_to_srbcrs(dense, 8, 16)
        rhs = rng.integers(-128, 128, size=(32, 16))
        res = kern(lhs, rhs)
        np.testing.assert_array_equal(res.output, dense.astype(np.int64) @ rhs)

    def test_fused_dequantization(self, rng):
        kern = MagicubeSpMM(SpMMConfig())
        dense = make_structured_sparse(rng, 16, 32, 8, 0.5)
        lhs = dense_to_srbcrs(dense, 8, 16)
        rhs = rng.integers(-128, 128, size=(32, 16))
        res = kern(lhs, rhs, scale=0.25)
        np.testing.assert_allclose(res.dequantized, res.output * 0.25, rtol=1e-6)


class TestValidation:
    def test_wrong_stride(self, rng):
        kern = MagicubeSpMM(SpMMConfig(l_bits=4, r_bits=4))  # needs stride 32
        dense = make_structured_sparse(rng, 16, 32, 8, 0.5, bits=4)
        lhs = dense_to_srbcrs(dense, 8, 16)
        with pytest.raises(ShapeError, match="stride 32"):
            kern(lhs, rng.integers(-8, 8, size=(32, 16)))

    def test_rhs_shape_mismatch(self, rng):
        kern = MagicubeSpMM(SpMMConfig())
        dense = make_structured_sparse(rng, 16, 32, 8, 0.5)
        lhs = dense_to_srbcrs(dense, 8, 16)
        with pytest.raises(ShapeError):
            kern(lhs, rng.integers(-128, 128, size=(16, 16)))

    def test_rhs_range_checked(self, rng):
        kern = MagicubeSpMM(SpMMConfig(l_bits=8, r_bits=4))
        dense = make_structured_sparse(rng, 16, 32, 8, 0.5)
        lhs = dense_to_srbcrs(dense, 8, 32)
        with pytest.raises(PrecisionError):
            kern(lhs, rng.integers(-128, 128, size=(32, 16)))

    def test_lhs_range_checked(self, rng):
        kern = MagicubeSpMM(SpMMConfig(l_bits=4, r_bits=4))
        dense = make_structured_sparse(rng, 16, 32, 8, 0.5, bits=8)
        dense[dense > 7] = 100  # force out of int4 range
        dense[0, 0] = 100
        lhs = dense_to_srbcrs(dense, 8, 32)
        with pytest.raises(PrecisionError):
            kern(lhs, rng.integers(-8, 8, size=(32, 16)))

    def test_unsupported_pair(self):
        with pytest.raises(PrecisionError):
            MagicubeSpMM(SpMMConfig(l_bits=8, r_bits=16))

    def test_bad_bsn(self):
        with pytest.raises(ConfigError):
            SpMMConfig(bsn=48)


class TestAccounting:
    def test_useful_ops(self, rng):
        dense, rhs, res = run_spmm(rng, 8, 8, n=64)
        nnz = int((dense.reshape(-1, 8, 64).any(axis=1)).sum()) * 8
        assert res.stats.useful_ops == 2 * nnz * 64

    def test_emulation_multiplies_mmas(self, rng):
        dense = make_structured_sparse(rng, 32, 64, 8, 0.7, bits=8)
        lhs = dense_to_srbcrs(dense, 8, 16)
        rhs = rng.integers(-128, 128, size=(64, 64))
        res88 = MagicubeSpMM(SpMMConfig(l_bits=8, r_bits=8))(lhs, rhs)
        res168 = MagicubeSpMM(SpMMConfig(l_bits=16, r_bits=8))(lhs, rhs)
        assert res168.stats.mma_ops["int8"] == 2 * res88.stats.mma_ops["int8"]

    def test_stacking_halves_mmas(self, rng):
        """V=4 + 2 digit products -> stacked into the same MMA count as native."""
        dense = make_structured_sparse(rng, 32, 64, 4, 0.7, bits=8)
        lhs = dense_to_srbcrs(dense, 4, 16)
        rhs = rng.integers(-128, 128, size=(64, 64))
        res88 = MagicubeSpMM(SpMMConfig(l_bits=8, r_bits=8))(lhs, rhs)
        res168 = MagicubeSpMM(SpMMConfig(l_bits=16, r_bits=8))(lhs, rhs)
        assert res168.stats.mma_ops["int8"] == res88.stats.mma_ops["int8"]

    def test_conflict_degree_recorded(self, rng):
        _, _, good = run_spmm(rng, 8, 8, conflict_free=True)
        _, _, bad = run_spmm(rng, 8, 8, conflict_free=False)
        assert good.stats.notes["conflict_degree"] == 1
        assert bad.stats.notes["conflict_degree"] > 1
        assert bad.stats.smem_transaction_cycles > good.stats.smem_transaction_cycles

    def test_shuffle_reduces_epilogue(self, rng):
        _, _, fast = run_spmm(rng, 4, 4, index_shuffle=True)
        _, _, slow = run_spmm(rng, 4, 4, index_shuffle=False)
        assert slow.stats.epilogue_cycles > fast.stats.epilogue_cycles

    def test_prefetch_flag(self, rng):
        _, _, res = run_spmm(rng, 8, 8, prefetch=False)
        assert not res.stats.prefetch

    def test_lower_precision_less_rhs_traffic(self, rng):
        _, _, res8 = run_spmm(rng, 8, 8)
        _, _, res4 = run_spmm(rng, 8, 4)
        assert (
            res4.stats.traffic.by_stream["rhs"][0]
            < res8.stats.traffic.by_stream["rhs"][0]
        )

    def test_variant_names(self):
        assert MagicubeSpMM(SpMMConfig(conflict_free=False)).variant_name() == "basic"
        assert (
            MagicubeSpMM(SpMMConfig(l_bits=4, r_bits=4)).variant_name()
            == "conflict-free + prefetch + col-index-shuffling"
        )

    def test_rhs_unique_traffic_capped_at_matrix_size(self, rng):
        _, rhs, res = run_spmm(rng, 8, 8, sparsity=0.3, m=64, k=64, n=64)
        assert res.stats.traffic.by_stream["rhs"][1] <= 64 * 64


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([(8, 8), (16, 8), (8, 4)]),
    st.sampled_from([2, 4, 8]),
)
def test_spmm_property(seed, pair, v):
    l, r = pair
    rng = np.random.default_rng(seed)
    kern = MagicubeSpMM(SpMMConfig(l_bits=l, r_bits=r))
    dense = make_structured_sparse(rng, 16, 64, v, 0.7, bits=l)
    lhs = dense_to_srbcrs(dense, v, kern.required_stride)
    rhs = rng.integers(-(1 << (r - 1)), 1 << (r - 1), size=(64, 24))
    res = kern(lhs, rhs)
    np.testing.assert_array_equal(res.output, dense.astype(np.int64) @ rhs)
