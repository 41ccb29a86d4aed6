"""Core operands and precisions, and one-shot SpMM / SDDMM calls
through the typed ``repro.api.run`` surface."""

import numpy as np
import pytest

from repro import (
    Precision,
    PrecisionError,
    ShapeError,
    SparseMatrix,
    api,
    parse_precision,
    supported_precisions,
)
from repro.formats import dense_to_bcrs
from tests.conftest import make_structured_sparse


class TestPrecisionParsing:
    def test_parse_ok(self):
        p = parse_precision("L8-R4")
        assert (p.l_bits, p.r_bits) == (8, 4)
        assert p.name == "L8-R4"
        assert not p.is_native
        assert p.native_bits == 4

    def test_native(self):
        assert parse_precision("L8-R8").is_native
        assert parse_precision("L4-R4").is_native

    def test_bad_format(self):
        with pytest.raises(PrecisionError):
            parse_precision("8x4")

    def test_outside_table4(self):
        with pytest.raises(PrecisionError):
            parse_precision("L4-R8")
        with pytest.raises(PrecisionError):
            parse_precision("L16-R8", op="sddmm")

    def test_supported_lists(self):
        assert "L12-R4" in supported_precisions("spmm")
        assert supported_precisions("sddmm") == ["L16-R16", "L8-R8", "L4-R4"]


class TestSparseMatrix:
    def test_from_dense(self, rng):
        d = make_structured_sparse(rng, 32, 64, 8, 0.7)
        m = SparseMatrix.from_dense(d, vector_length=8)
        assert m.shape == (32, 64)
        assert m.vector_length == 8
        np.testing.assert_array_equal(m.to_dense(), d)

    def test_precision_sets_stride(self, rng):
        d = make_structured_sparse(rng, 16, 64, 8, 0.5, bits=4)
        m8 = SparseMatrix.from_dense(d, 8, precision="L8-R8")
        m4 = SparseMatrix.from_dense(d, 8, precision="L4-R4")
        assert m8.srbcrs.stride == 16
        assert m4.srbcrs.stride == 32

    def test_from_bcrs(self, rng):
        d = make_structured_sparse(rng, 16, 32, 4, 0.5)
        m = SparseMatrix.from_bcrs(dense_to_bcrs(d, 4))
        np.testing.assert_array_equal(m.to_dense(), d)

    def test_properties(self, rng):
        d = make_structured_sparse(rng, 16, 32, 8, 0.8)
        m = SparseMatrix.from_dense(d, 8)
        assert 0.5 < m.sparsity < 1.0
        assert m.nnz == int(
            (d.reshape(2, 8, 32).any(axis=1)).sum() * 8
        )


class TestSpmmApi:
    def test_end_to_end(self, rng):
        d = make_structured_sparse(rng, 32, 64, 8, 0.7)
        a = SparseMatrix.from_dense(d, 8)
        rhs = rng.integers(-128, 128, size=(64, 32))
        r = api.run(api.SpmmRequest(lhs=a, rhs=rhs, precision="L8-R8"))
        np.testing.assert_array_equal(r.output, d.astype(np.int64) @ rhs)
        assert r.time_s > 0
        assert r.tops > 0

    def test_restride_on_precision_change(self, rng):
        d = make_structured_sparse(rng, 16, 64, 8, 0.5, bits=4)
        a = SparseMatrix.from_dense(d, 8, precision="L8-R8")  # stride 16
        rhs = rng.integers(-8, 8, size=(64, 16))
        # L4-R4 needs stride 32: restrides
        r = api.run(api.SpmmRequest(lhs=a, rhs=rhs, precision="L4-R4"))
        np.testing.assert_array_equal(r.output, d.astype(np.int64) @ rhs)

    def test_dequant_scale(self, rng):
        d = make_structured_sparse(rng, 16, 32, 8, 0.5)
        a = SparseMatrix.from_dense(d, 8)
        rhs = rng.integers(-128, 128, size=(32, 16))
        r = api.run(api.SpmmRequest(lhs=a, rhs=rhs, scale=0.5))
        np.testing.assert_allclose(r.output, (d.astype(np.int64) @ rhs) * 0.5)

    def test_ablation_knobs_accepted(self, rng):
        d = make_structured_sparse(rng, 16, 32, 8, 0.5)
        a = SparseMatrix.from_dense(d, 8)
        rhs = rng.integers(-128, 128, size=(32, 16))
        r = api.run(api.SpmmRequest(
            lhs=a, rhs=rhs, knobs={"conflict_free": False, "prefetch": False}
        ))
        assert r.stats.notes["variant"] == "basic"


class TestSddmmApi:
    def test_end_to_end(self, rng):
        mask_d = (make_structured_sparse(rng, 16, 32, 8, 0.5) != 0).astype(np.int32)
        mask = SparseMatrix.from_dense(mask_d, 8)
        a = rng.integers(-128, 128, size=(16, 64))
        b = rng.integers(-128, 128, size=(64, 32))
        r = api.run(api.SddmmRequest(a=a, b=b, mask=mask, precision="L8-R8"))
        full = a.astype(np.int64) @ b
        got = r.output.to_dense()
        keep = got != 0
        np.testing.assert_array_equal(got[keep], full[keep])

    def test_mask_type_check(self, rng):
        with pytest.raises(ShapeError):
            api.run(api.SddmmRequest(
                a=np.zeros((8, 16), dtype=np.int64),
                b=np.zeros((16, 8), dtype=np.int64),
                mask=np.zeros((8, 8)),
            ))

    def test_device_selection(self, rng):
        mask_d = (make_structured_sparse(rng, 16, 32, 8, 0.5) != 0).astype(np.int32)
        mask = SparseMatrix.from_dense(mask_d, 8)
        a = rng.integers(-128, 128, size=(16, 64))
        b = rng.integers(-128, 128, size=(64, 32))
        request = api.SddmmRequest(a=a, b=b, mask=mask)
        t_a100 = api.run(request, device="A100").time_s
        t_h100 = api.run(request, device="H100").time_s
        assert t_h100 < t_a100  # H100: more SMs, higher bandwidth


class TestPrecisionObject:
    def test_dataclass_fields(self):
        p = Precision(l_bits=16, r_bits=4, op="spmm")
        assert p.native_bits == 4


class TestPlanInjection:
    """Pre-built configs (serving plans) bypass precision parsing."""

    def test_spmm_config_matches_precision_path(self, rng):
        from repro.kernels.spmm import SpMMConfig

        d = make_structured_sparse(rng, 32, 64, 8, 0.7)
        a = SparseMatrix.from_dense(d, 8)
        rhs = rng.integers(-128, 128, size=(64, 32))
        by_name = api.run(api.SpmmRequest(lhs=a, rhs=rhs, precision="L8-R8"))
        by_config = api.run(
            api.SpmmRequest(lhs=a, rhs=rhs, config=SpMMConfig(l_bits=8, r_bits=8))
        )
        np.testing.assert_array_equal(by_config.output, by_name.output)
        assert by_config.time_s == by_name.time_s

    def test_spmm_config_and_kwargs_conflict(self, rng):
        from repro.errors import ConfigError
        from repro.kernels.spmm import SpMMConfig

        d = make_structured_sparse(rng, 16, 32, 8, 0.5)
        a = SparseMatrix.from_dense(d, 8)
        rhs = rng.integers(-128, 128, size=(32, 16))
        with pytest.raises(ConfigError):
            api.run(api.SpmmRequest(
                lhs=a, rhs=rhs, config=SpMMConfig(), knobs={"bsn": 32}
            ))
        with pytest.raises(ConfigError):
            api.run(api.SpmmRequest(
                lhs=a, rhs=rhs, precision="L8-R8", config=SpMMConfig()
            ))
        with pytest.raises(ConfigError):
            api.run(api.SpmmRequest(
                lhs=a, rhs=rhs, l_signed=False, config=SpMMConfig()
            ))

    def test_sddmm_config_and_named_params_conflict(self, rng):
        from repro.errors import ConfigError
        from repro.kernels.sddmm import SDDMMConfig

        mask_d = (make_structured_sparse(rng, 16, 32, 8, 0.5) != 0).astype(np.int32)
        mask = SparseMatrix.from_dense(mask_d, 8)
        a = rng.integers(-128, 128, size=(16, 64))
        b = rng.integers(-128, 128, size=(64, 32))
        with pytest.raises(ConfigError):
            api.run(api.SddmmRequest(
                a=a, b=b, mask=mask, output_format="srbcrs", config=SDDMMConfig()
            ))
        with pytest.raises(ConfigError):
            api.run(api.SddmmRequest(
                a=a, b=b, mask=mask, precision="L8-R8", config=SDDMMConfig()
            ))

    def test_sddmm_config_injection(self, rng):
        from repro.kernels.sddmm import SDDMMConfig

        mask_d = (make_structured_sparse(rng, 16, 32, 8, 0.5) != 0).astype(np.int32)
        mask = SparseMatrix.from_dense(mask_d, 8)
        a = rng.integers(-128, 128, size=(16, 64))
        b = rng.integers(-128, 128, size=(64, 32))
        by_name = api.run(
            api.SddmmRequest(a=a, b=b, mask=mask, precision="L8-R8")
        )
        by_config = api.run(api.SddmmRequest(
            a=a, b=b, mask=mask, config=SDDMMConfig(l_bits=8, r_bits=8)
        ))
        np.testing.assert_array_equal(
            by_config.output.to_dense(), by_name.output.to_dense()
        )

    def test_srbcrs_for_memoizes(self, rng):
        d = make_structured_sparse(rng, 16, 64, 8, 0.5, bits=4)
        a = SparseMatrix.from_dense(d, 8, precision="L8-R8")  # stride 16
        first = a.srbcrs_for(32)
        assert a.srbcrs_for(32) is first  # converted once
        assert a.srbcrs_for(16) is a.srbcrs
