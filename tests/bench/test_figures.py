"""Smoke tests for the experiment definitions and reporting."""

import numpy as np
import pytest

from repro.bench.figures import (
    fig13_sddmm_precision,
    fig14_spmm_speedup,
    fig17_latency,
)
from repro.bench.report import render_series, render_table
from repro.bench.runner import (
    build_sddmm_workload,
    build_spmm_workload,
    geomean,
    magicube_sddmm_stats,
    magicube_spmm_stats,
    time_cublas,
    time_magicube_spmm,
    tops_magicube_spmm,
)
from repro.dlmc.generator import MatrixSpec
from repro.kernels.sddmm import MagicubeSDDMM, SDDMMConfig
from repro.kernels.spmm import MagicubeSpMM, SpMMConfig


class TestRunner:
    def test_geomean(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        assert geomean([3.0]) == pytest.approx(3.0)
        assert np.isnan(geomean([]))

    def test_spmm_workload_consistency(self):
        spec = MatrixSpec("rn50", 64, 128, 0.7, 1)
        w = build_spmm_workload(spec, 8, 64)
        # both precisions share the vector-level pattern (individual
        # elements may differ: random draws can hit 0 inside a vector)
        keep8 = (w.dense8 != 0).reshape(8, 8, 128).any(axis=1)
        keep4 = (w.dense4 != 0).reshape(8, 8, 128).any(axis=1)
        np.testing.assert_array_equal(keep8, keep4)
        np.testing.assert_array_equal(w.srbcrs16.to_dense(), w.dense8)
        np.testing.assert_array_equal(w.srbcrs32.to_dense(), w.dense4)
        assert w.rhs8.shape == (128, 64)

    def test_sddmm_workload_alignment(self):
        spec = MatrixSpec("rn50", 64, 128, 0.7, 2)
        w = build_sddmm_workload(spec, 8, 64)
        assert w.a8.shape == (64, 64)
        assert w.b8.shape == (64, 128)
        assert w.mask.shape == (64, 128)

    def test_time_positive_all_libraries(self):
        spec = MatrixSpec("rn50", 64, 128, 0.8, 3)
        w = build_spmm_workload(spec, 8, 64)
        assert time_magicube_spmm(w, 8, 8) > 0
        assert time_cublas(w, "fp16") > 0
        assert tops_magicube_spmm(w, 8, 8) > 0

    @pytest.mark.parametrize("l,r,cfg", [
        (8, 8, {}),
        (4, 4, {"bsn": 128}),
        (16, 8, {"conflict_free": False}),
        (8, 4, {"prefetch": False, "index_shuffle": False}),
    ])
    def test_priced_spmm_stats_match_launch(self, l, r, cfg):
        w = build_spmm_workload(MatrixSpec("rn50", 64, 128, 0.8, 4), 8, 64)
        kern = MagicubeSpMM(SpMMConfig(l_bits=l, r_bits=r, **cfg))
        lhs = w.srbcrs16 if kern.required_stride == 16 else w.srbcrs32
        launched = kern(lhs, w.rhs8 if r >= 8 else w.rhs4).stats
        assert magicube_spmm_stats(w, l, r, **cfg) == launched

    @pytest.mark.parametrize("l,r,cfg", [
        (8, 8, {}),
        (4, 4, {"prefetch_lhs": True}),
        (16, 16, {"warps": 2}),
    ])
    def test_priced_sddmm_stats_match_launch(self, l, r, cfg):
        w = build_sddmm_workload(MatrixSpec("rn50", 64, 128, 0.7, 5), 8, 64)
        kern = MagicubeSDDMM(SDDMMConfig(l_bits=l, r_bits=r, **cfg))
        a, b = {16: (w.a16, w.b16), 8: (w.a8, w.b8), 4: (w.a4, w.b4)}[l]
        assert magicube_sddmm_stats(w, l, r, **cfg) == kern(a, b, w.mask).stats


class TestReport:
    def test_render_table_aligns(self):
        out = render_table(["a", "bb"], [[1, 2.5], ["x", 3.0]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "2.50" in out and "3.00" in out

    def test_render_series_oom(self):
        out = render_series("x", [1, 2], {"lib": [1.0, None]})
        assert "OOM" in out


class TestFigureSmoke:
    """count=1 runs of the sweeps produce well-formed structures."""

    def test_fig13_structure(self):
        res = fig13_sddmm_precision(count=1, k=128)
        assert set(res) == {0.5, 0.7, 0.8, 0.9, 0.95, 0.98}
        cell = res[0.9]["L8-R8"]
        assert cell["basic"] > 0 and cell["prefetch"] > 0

    def test_fig14_structure(self):
        res = fig14_spmm_speedup(count=1, n_values=(128,), v_values=(8,))
        panel = res[(8, 128)]
        libs = set(next(iter(panel.values())))
        assert "Magicube (L8-R8)" in libs and "vectorSparse (fp16)" in libs

    def test_fig17_panels(self):
        res = fig17_latency()
        assert len(res) == 8  # 2 sparsities x 2 seqs x 2 head counts
        for panel in res.values():
            assert set(panel) == {2, 8}
