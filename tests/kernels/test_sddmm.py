"""Tests for Magicube SDDMM."""

import numpy as np
import pytest

from repro.errors import ConfigError, PrecisionError, ShapeError
from repro.formats import SRBCRSMatrix, dense_to_bcrs
from repro.kernels import MagicubeSDDMM, SDDMMConfig, StrictSDDMM
from tests.conftest import make_structured_sparse


def make_mask(rng, m, n, v, sparsity):
    pattern = make_structured_sparse(rng, m, n, v, sparsity, bits=2)
    pattern[pattern != 0] = 1
    return dense_to_bcrs(pattern, v)


def run_sddmm(rng, l_bits, r_bits, v=8, sparsity=0.7, m=32, k=64, n=64, **cfg):
    kern = MagicubeSDDMM(SDDMMConfig(l_bits=l_bits, r_bits=r_bits, **cfg))
    lo, hi = -(1 << (l_bits - 1)), (1 << (l_bits - 1)) - 1
    a = rng.integers(lo, hi + 1, size=(m, k))
    lo, hi = -(1 << (r_bits - 1)), (1 << (r_bits - 1)) - 1
    b = rng.integers(lo, hi + 1, size=(k, n))
    mask = make_mask(rng, m, n, v, sparsity)
    return a, b, mask, kern(a, b, mask)


def reference(a, b, mask):
    """Dense product sampled at the mask's nonzero vectors."""
    full = a.astype(np.int64) @ b.astype(np.int64)
    dense_mask = (mask.to_dense() != 0).astype(np.int64)
    # expand mask to whole vectors: a kept vector samples all V rows
    v = mask.vector_length
    strips = mask.shape[0] // v
    keep = dense_mask.reshape(strips, v, -1).any(axis=1)
    keep_full = np.repeat(keep, v, axis=0)
    return full * keep_full


class TestCorrectness:
    @pytest.mark.parametrize("l,r", [(8, 8), (4, 4), (16, 16)])
    def test_matches_reference(self, rng, l, r):
        a, b, mask, res = run_sddmm(rng, l, r)
        np.testing.assert_array_equal(res.output.to_dense(), reference(a, b, mask))

    @pytest.mark.parametrize("v", [2, 4, 8])
    def test_vector_lengths(self, rng, v):
        a, b, mask, res = run_sddmm(rng, 8, 8, v=v)
        np.testing.assert_array_equal(res.output.to_dense(), reference(a, b, mask))

    def test_strict_matches_fast(self, rng):
        cfg = SDDMMConfig(l_bits=16, r_bits=16)
        a = rng.integers(-(1 << 15), 1 << 15, size=(16, 32))
        b = rng.integers(-(1 << 15), 1 << 15, size=(32, 32))
        mask = make_mask(rng, 16, 32, 8, 0.5)
        fast = MagicubeSDDMM(cfg)(a, b, mask).output.to_dense()
        strict = StrictSDDMM(cfg)(a, b, mask).output.to_dense()
        np.testing.assert_array_equal(fast, strict)

    def test_topology_preserved(self, rng):
        a, b, mask, res = run_sddmm(rng, 8, 8)
        np.testing.assert_array_equal(res.output.col_indices, mask.col_indices)
        np.testing.assert_array_equal(res.output.row_ptrs, mask.row_ptrs)

    def test_srbcrs_output_format(self, rng):
        a, b, mask, res = run_sddmm(rng, 8, 8, output_format="srbcrs")
        assert isinstance(res.output, SRBCRSMatrix)
        np.testing.assert_array_equal(res.output.to_dense(), reference(a, b, mask))

    def test_empty_mask(self, rng):
        kern = MagicubeSDDMM(SDDMMConfig())
        a = rng.integers(-10, 10, size=(16, 32))
        b = rng.integers(-10, 10, size=(32, 16))
        mask = dense_to_bcrs(np.zeros((16, 16), dtype=np.int32), 8)
        res = kern(a, b, mask)
        assert res.output.nnz == 0


class TestValidation:
    def test_k_must_align_to_bsk(self, rng):
        kern = MagicubeSDDMM(SDDMMConfig(l_bits=4, r_bits=4))  # BSk=32
        a = rng.integers(-8, 8, size=(16, 48))
        b = rng.integers(-8, 8, size=(48, 16))
        mask = make_mask(rng, 16, 16, 8, 0.5)
        with pytest.raises(ShapeError, match="BSk"):
            kern(a, b, mask)

    def test_range_checked(self, rng):
        kern = MagicubeSDDMM(SDDMMConfig(l_bits=4, r_bits=4))
        a = rng.integers(-100, 100, size=(16, 32))
        b = rng.integers(-8, 8, size=(32, 16))
        with pytest.raises(PrecisionError):
            kern(a, b, make_mask(rng, 16, 16, 8, 0.5))

    def test_mask_shape_checked(self, rng):
        kern = MagicubeSDDMM(SDDMMConfig())
        a = rng.integers(-8, 8, size=(16, 32))
        b = rng.integers(-8, 8, size=(32, 16))
        with pytest.raises(ShapeError):
            kern(a, b, make_mask(rng, 16, 32, 8, 0.5))

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            SDDMMConfig(warps=0)
        with pytest.raises(ConfigError):
            SDDMMConfig(output_format="coo")


class TestAccounting:
    def test_useful_ops(self, rng):
        a, b, mask, res = run_sddmm(rng, 8, 8, k=64)
        assert res.stats.useful_ops == 2 * 64 * mask.nnz

    def test_emulation_quadruples_mmas(self, rng):
        a = rng.integers(-128, 128, size=(32, 64))
        b = rng.integers(-128, 128, size=(64, 64))
        mask = make_mask(rng, 32, 64, 8, 0.7)
        res88 = MagicubeSDDMM(SDDMMConfig(l_bits=8, r_bits=8))(a, b, mask)
        res1616 = MagicubeSDDMM(SDDMMConfig(l_bits=16, r_bits=16))(a, b, mask)
        assert res1616.stats.mma_ops["int8"] == 4 * res88.stats.mma_ops["int8"]

    def test_prefetch_removes_serial_bytes(self, rng):
        _, _, _, basic = run_sddmm(rng, 8, 8, prefetch_lhs=False)
        _, _, _, pf = run_sddmm(rng, 8, 8, prefetch_lhs=True)
        assert basic.stats.serial_bytes > 0
        assert pf.stats.serial_bytes == 0

    def test_lhs_serial_bytes_small_vs_rhs(self, rng):
        """Why Fig. 13 shows no prefetch benefit: the A tile is a tiny
        share of the traffic (it is reused by all warps)."""
        _, _, _, res = run_sddmm(rng, 8, 8, m=64, k=128, n=128, prefetch_lhs=False)
        rhs_bytes = res.stats.traffic.by_stream["rhs"][0]
        assert res.stats.serial_bytes < 0.3 * rhs_bytes
