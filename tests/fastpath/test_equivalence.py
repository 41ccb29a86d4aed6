"""Fastpath kernels are bit-exact against the emulation kernels.

The whole contract of :mod:`repro.fastpath` is "identical bits,
different wall-clock": every cell of this grid compares the vectorized
kernels against the strip-loop emulation across Table-IV pairs,
topologies, tile knobs, epilogue settings, edge layouts (empty and
all-padding strips) and grouped launches — exact array equality,
never allclose.
"""

import numpy as np
import pytest

from repro.core.matrix import SparseMatrix
from repro.dlmc.generator import MatrixSpec, generate_matrix
from repro.fastpath import (
    FastpathSDDMM,
    FastpathSpMM,
    sparse_softmax_quantized_fast,
)
from repro.errors import ShapeError
from repro.formats.convert import dense_to_bcrs
from repro.formats.srbcrs import PAD_INDEX, SRBCRSMatrix
from repro.kernels.sddmm import MagicubeSDDMM, SDDMMConfig
from repro.kernels.softmax import sparse_softmax_quantized
from repro.kernels.spmm import MagicubeSpMM, SpMMConfig
from repro.lowp.quantize import int_range

SPMM_PAIRS = [(16, 16), (16, 8), (8, 8), (16, 4), (12, 4), (8, 4), (4, 4)]
SDDMM_PAIRS = [(16, 16), (8, 8), (4, 4)]
TOPOLOGIES = [  # (rows, cols, V, sparsity)
    (64, 64, 2, 0.7),
    (128, 128, 4, 0.9),
    (96, 96, 8, 0.5),
]


def _spmm_operands(l_bits, r_bits, rows, cols, v, sparsity, n=48, seed=3):
    spec = MatrixSpec("transformer", rows, cols, sparsity=sparsity, seed=seed)
    dense = generate_matrix(spec, vector_length=v, bits=l_bits)
    stride = MagicubeSpMM(SpMMConfig(l_bits=l_bits, r_bits=r_bits)).required_stride
    lhs = SRBCRSMatrix.from_dense(dense, v, stride)
    lo, hi = int_range(r_bits, True)
    rng = np.random.default_rng(seed)
    rhs = rng.integers(lo, hi + 1, size=(cols, n), dtype=np.int64)
    return lhs, rhs


class TestSpmmEquivalence:
    @pytest.mark.parametrize("l_bits,r_bits", SPMM_PAIRS)
    @pytest.mark.parametrize("rows,cols,v,sparsity", TOPOLOGIES)
    def test_bit_exact_across_grid(self, l_bits, r_bits, rows, cols, v, sparsity):
        lhs, rhs = _spmm_operands(l_bits, r_bits, rows, cols, v, sparsity)
        cfg = SpMMConfig(l_bits=l_bits, r_bits=r_bits)
        slow = MagicubeSpMM(cfg)(lhs, rhs, scale=0.02)
        fast = FastpathSpMM(cfg)(lhs, rhs, scale=0.02)
        np.testing.assert_array_equal(slow.output, fast.output)
        np.testing.assert_array_equal(slow.dequantized, fast.dequantized)

    @pytest.mark.parametrize("bsn", [32, 64, 128])
    @pytest.mark.parametrize("fuse_dequant", [True, False])
    def test_knobs_do_not_change_bits(self, bsn, fuse_dequant):
        lhs, rhs = _spmm_operands(8, 8, 64, 64, 4, 0.8)
        cfg = SpMMConfig(l_bits=8, r_bits=8, bsn=bsn, fuse_dequant=fuse_dequant)
        slow = MagicubeSpMM(cfg)(lhs, rhs, scale=0.01)
        fast = FastpathSpMM(cfg)(lhs, rhs, scale=0.01)
        np.testing.assert_array_equal(slow.output, fast.output)
        if fuse_dequant:
            np.testing.assert_array_equal(slow.dequantized, fast.dequantized)
        else:
            assert slow.dequantized is None and fast.dequantized is None

    def test_no_scale_skips_dequant(self):
        lhs, rhs = _spmm_operands(8, 4, 64, 64, 2, 0.6)
        fast = FastpathSpMM(l_bits=8, r_bits=4)(lhs, rhs)
        assert fast.dequantized is None

    def test_accounting_identical(self):
        lhs, rhs = _spmm_operands(8, 8, 64, 64, 4, 0.8)
        cfg = SpMMConfig(l_bits=8, r_bits=8)
        slow = MagicubeSpMM(cfg)(lhs, rhs).stats
        fast = FastpathSpMM(cfg)(lhs, rhs).stats
        assert slow.name == fast.name
        assert slow.traffic.total_dram_bytes == fast.traffic.total_dram_bytes
        assert slow.smem_transaction_cycles == fast.smem_transaction_cycles
        assert slow.epilogue_cycles == fast.epilogue_cycles

    def test_stats_are_not_aliased_between_calls(self):
        # the fastpath memoizes accounting per request class; results
        # must still be independently mutable
        lhs, rhs = _spmm_operands(8, 8, 64, 64, 4, 0.8)
        kern = FastpathSpMM(l_bits=8, r_bits=8)
        s1, s2 = kern(lhs, rhs).stats, kern(lhs, rhs).stats
        assert s1 is not s2
        s1.notes["poked"] = True
        assert "poked" not in s2.notes

    def test_strict_routes_through_emulation_algebra(self):
        lhs, rhs = _spmm_operands(8, 4, 64, 64, 2, 0.6)
        cfg = SpMMConfig(l_bits=8, r_bits=4)
        strict = FastpathSpMM(cfg)(lhs, rhs, strict=True)
        fast = FastpathSpMM(cfg)(lhs, rhs)
        np.testing.assert_array_equal(strict.output, fast.output)

    def test_float64_fallback_is_exact(self):
        # L16-R16 exceeds the float32 mantissa bound -> float64 path
        lhs, rhs = _spmm_operands(16, 16, 64, 64, 4, 0.5)
        kern = FastpathSpMM(l_bits=16, r_bits=16)
        assert kern._accum_dtype(lhs.shape[1]) == np.float64
        slow = MagicubeSpMM(l_bits=16, r_bits=16)(lhs, rhs)
        np.testing.assert_array_equal(slow.output, kern(lhs, rhs).output)


class TestSddmmEquivalence:
    @pytest.mark.parametrize("l_bits,r_bits", SDDMM_PAIRS)
    @pytest.mark.parametrize("rows,cols,v,sparsity", TOPOLOGIES)
    def test_bit_exact_across_grid(self, l_bits, r_bits, rows, cols, v, sparsity):
        spec = MatrixSpec("transformer", rows, cols, sparsity=sparsity, seed=5)
        mask = dense_to_bcrs(generate_matrix(spec, vector_length=v, bits=8), v)
        rng = np.random.default_rng(5)
        k = 64
        lo, hi = int_range(l_bits, True)
        a = rng.integers(lo, hi + 1, size=(rows, k), dtype=np.int64)
        lo, hi = int_range(r_bits, True)
        b = rng.integers(lo, hi + 1, size=(k, cols), dtype=np.int64)
        cfg = SDDMMConfig(l_bits=l_bits, r_bits=r_bits)
        slow = MagicubeSDDMM(cfg)(a, b, mask)
        fast = FastpathSDDMM(cfg)(a, b, mask)
        np.testing.assert_array_equal(
            np.asarray(slow.output.values), np.asarray(fast.output.values)
        )

    @pytest.mark.parametrize("output_format", ["bcrs", "srbcrs"])
    def test_output_format_preserved(self, output_format):
        spec = MatrixSpec("transformer", 64, 64, sparsity=0.7, seed=2)
        mask = dense_to_bcrs(generate_matrix(spec, vector_length=4, bits=8), 4)
        rng = np.random.default_rng(2)
        a = rng.integers(-128, 128, size=(64, 32), dtype=np.int64)
        b = rng.integers(-128, 128, size=(32, 64), dtype=np.int64)
        cfg = SDDMMConfig(l_bits=8, r_bits=8, output_format=output_format)
        slow = MagicubeSDDMM(cfg)(a, b, mask)
        fast = FastpathSDDMM(cfg)(a, b, mask)
        assert type(slow.output) is type(fast.output)
        np.testing.assert_array_equal(
            np.asarray(slow.output.values), np.asarray(fast.output.values)
        )

    def test_strict_routes_through_emulation_algebra(self):
        spec = MatrixSpec("transformer", 64, 64, sparsity=0.7, seed=2)
        mask = dense_to_bcrs(generate_matrix(spec, vector_length=4, bits=8), 4)
        rng = np.random.default_rng(2)
        a = rng.integers(-8, 8, size=(64, 32), dtype=np.int64)
        b = rng.integers(-8, 8, size=(32, 64), dtype=np.int64)
        cfg = SDDMMConfig(l_bits=4, r_bits=4)
        strict = FastpathSDDMM(cfg)(a, b, mask, strict=True)
        fast = FastpathSDDMM(cfg)(a, b, mask)
        np.testing.assert_array_equal(
            np.asarray(strict.output.values), np.asarray(fast.output.values)
        )


class TestSoftmaxEquivalence:
    @pytest.mark.parametrize("out_bits", [8, 16])
    @pytest.mark.parametrize("rows,cols,v,sparsity", TOPOLOGIES)
    def test_bit_exact_across_grid(self, out_bits, rows, cols, v, sparsity):
        spec = MatrixSpec("transformer", rows, cols, sparsity=sparsity, seed=9)
        topo = dense_to_bcrs(generate_matrix(spec, vector_length=v, bits=8), v)
        rng = np.random.default_rng(9)
        scores = type(topo)(
            shape=topo.shape,
            vector_length=v,
            row_ptrs=topo.row_ptrs,
            col_indices=topo.col_indices,
            values=rng.integers(-127, 128, size=(topo.num_vectors, v)).astype(
                np.int64
            ),
        )
        slow = sparse_softmax_quantized(scores, scale=0.05, out_bits=out_bits)
        fast = sparse_softmax_quantized_fast(scores, scale=0.05, out_bits=out_bits)
        np.testing.assert_array_equal(slow.output.values, fast.output.values)
        assert slow.params == fast.params


class TestBackendCrossCheck:
    def test_fastpath_matches_strict_backend(self):
        # three implementations, one answer: digit-decomposition
        # algebra, strip-loop emulation, vectorized fastpath
        from repro.runtime import get_backend

        spec = MatrixSpec("transformer", 64, 64, sparsity=0.7, seed=11)
        dense = generate_matrix(spec, vector_length=4, bits=8)
        lhs = SparseMatrix.from_dense(dense, vector_length=4, precision="L8-R4")
        rng = np.random.default_rng(11)
        rhs = rng.integers(-8, 8, size=(64, 32), dtype=np.int64)
        cfg = SpMMConfig(l_bits=8, r_bits=4)
        outs = [
            get_backend(name).execute(
                "spmm", "A100", config=cfg, lhs=lhs, rhs=rhs
            ).output
            for name in ("magicube-strict", "magicube-emulation",
                         "fastpath-vectorized")
        ]
        np.testing.assert_array_equal(outs[0], outs[1])
        np.testing.assert_array_equal(outs[1], outs[2])


def _manual_srbcrs(v=4, stride=16, k=40, seed=0):
    """Four strips by hand: regular, empty, all padding (every slot
    PAD_INDEX over nonzero garbage values), and regular again with
    garbage in its padding slots — which both kernels must ignore."""
    rng = np.random.default_rng(seed)
    counts = [5, 0, 16, 20]  # valid vectors per strip
    row_starts = np.array([0, 16, 16, 32])
    cols = np.full(64, PAD_INDEX, dtype=np.int32)
    cols[0:5] = rng.choice(k, 5, replace=False)
    cols[32:52] = rng.choice(k, 20, replace=False)
    values = rng.integers(1, 100, size=64 * v)  # garbage in padding too
    return SRBCRSMatrix(
        shape=(4 * v, k), vector_length=v, stride=stride,
        row_starts=row_starts, row_ends=row_starts + np.array(counts),
        col_indices=cols, values=values,
    )


class TestSpmmEdgeLayouts:
    def test_empty_and_all_padding_strips(self):
        lhs = _manual_srbcrs()
        rhs = np.random.default_rng(1).integers(-128, 128, size=(40, 24))
        cfg = SpMMConfig(l_bits=8, r_bits=8)
        slow = MagicubeSpMM(cfg)(lhs, rhs, scale=0.5)
        fast = FastpathSpMM(cfg)(lhs, rhs, scale=0.5)
        np.testing.assert_array_equal(slow.output, fast.output)
        np.testing.assert_array_equal(slow.dequantized, fast.dequantized)
        assert not fast.output[4:12].any()  # empty + all-padding strips

    def test_matrix_without_vectors(self):
        lhs = SRBCRSMatrix.from_dense(np.zeros((16, 32), dtype=np.int64), 8, 16)
        rhs = np.ones((32, 8), dtype=np.int64)
        out = FastpathSpMM(l_bits=8, r_bits=8)(lhs, rhs).output
        np.testing.assert_array_equal(out, np.zeros((16, 8), dtype=np.int64))

    def test_grouped_float64_path(self):
        # L16-R16 exceeds the float32 mantissa bound -> float64, grouped
        lhs, _ = _spmm_operands(16, 16, 64, 64, 4, 0.5)
        rng = np.random.default_rng(8)
        values = rng.integers(-(2**15), 2**15, size=(3,) + lhs.values.shape)
        grouped = lhs.with_values(values)
        rhs = rng.integers(-(2**15), 2**15, size=(3, 64, 16))
        kern = FastpathSpMM(l_bits=16, r_bits=16)
        assert kern._accum_dtype(lhs.shape[1]) == np.float64
        scales = np.array([0.5, 1e-3, 2.0])
        fast = kern(grouped, rhs, scale=scales)
        slow = MagicubeSpMM(l_bits=16, r_bits=16)(grouped, rhs, scale=scales)
        np.testing.assert_array_equal(slow.output, fast.output)
        np.testing.assert_array_equal(slow.dequantized, fast.dequantized)
        for g in range(3):
            one = MagicubeSpMM(l_bits=16, r_bits=16)(
                grouped.slice(g), rhs[g], scale=scales[g]
            )
            np.testing.assert_array_equal(one.output, fast.output[g])
            np.testing.assert_array_equal(one.dequantized, fast.dequantized[g])


class TestGroupedLaunches:
    def _mask(self, v=4, seed=6):
        spec = MatrixSpec("transformer", 64, 64, sparsity=0.7, seed=seed)
        return dense_to_bcrs(generate_matrix(spec, vector_length=v, bits=8), v)

    def test_sddmm_grouped_equals_slices(self):
        mask = self._mask()
        rng = np.random.default_rng(6)
        a = rng.integers(-128, 128, size=(5, 64, 32))
        b = rng.integers(-128, 128, size=(5, 32, 64))
        cfg = SDDMMConfig(l_bits=8, r_bits=8)
        fast = FastpathSDDMM(cfg)(a, b, mask)
        slow = MagicubeSDDMM(cfg)(a, b, mask)
        assert fast.output.slices == 5
        np.testing.assert_array_equal(fast.output.values, slow.output.values)
        for g in range(5):
            one = MagicubeSDDMM(cfg)(a[g], b[g], mask).output.values
            np.testing.assert_array_equal(fast.output.slice(g).values, one)
        single = MagicubeSDDMM(cfg)(a[0], b[0], mask).stats
        assert fast.stats.useful_ops == 5 * single.useful_ops
        assert fast.stats.grid.blocks == 5 * single.grid.blocks

    def test_softmax_grouped_equals_slices(self):
        mask = self._mask(v=8)
        rng = np.random.default_rng(7)
        scores = mask.with_values(
            rng.integers(-127, 128, size=(4, mask.num_vectors, 8))
        )
        scales = np.array([0.05, 0.01, 0.2, 0.0])
        fast = sparse_softmax_quantized_fast(scores, scales, out_bits=16)
        slow = sparse_softmax_quantized(scores, scales, out_bits=16)
        np.testing.assert_array_equal(fast.output.values, slow.output.values)
        for g in range(4):
            one = sparse_softmax_quantized(scores.slice(g), scales[g], 16)
            np.testing.assert_array_equal(fast.output.values[g], one.output.values)
        assert fast.stats.useful_ops == 4 * one.stats.useful_ops

    def test_grouped_spmm_requires_matching_slices(self):
        lhs, rhs = _spmm_operands(8, 8, 64, 64, 4, 0.8)
        with pytest.raises(ShapeError):
            FastpathSpMM(l_bits=8, r_bits=8)(lhs, np.stack([rhs, rhs]))
