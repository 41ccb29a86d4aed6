"""Tests for format conversions."""

import numpy as np
import pytest

from repro.formats import (
    bcrs_to_srbcrs,
    dense_to_bcrs,
    dense_to_srbcrs,
    srbcrs_to_bcrs,
)
from repro.formats.convert import blocked_ell_equivalent
from repro.formats.validate import validate_bcrs, validate_srbcrs
from tests.conftest import make_structured_sparse


class TestBcrsSrbcrs:
    @pytest.mark.parametrize("v", [2, 4, 8])
    def test_bcrs_to_srbcrs_matches_direct(self, rng, v):
        d = make_structured_sparse(rng, 32, 96, v, 0.7)
        via_bcrs = bcrs_to_srbcrs(dense_to_bcrs(d, v), stride=16)
        direct = dense_to_srbcrs(d, v, 16)
        np.testing.assert_array_equal(via_bcrs.values, direct.values)
        np.testing.assert_array_equal(via_bcrs.col_indices, direct.col_indices)
        np.testing.assert_array_equal(via_bcrs.row_starts, direct.row_starts)
        validate_srbcrs(via_bcrs)

    @pytest.mark.parametrize("v", [2, 4, 8])
    def test_round_trip(self, rng, v):
        d = make_structured_sparse(rng, 32, 96, v, 0.8)
        bcrs = dense_to_bcrs(d, v)
        back = srbcrs_to_bcrs(bcrs_to_srbcrs(bcrs, stride=16))
        np.testing.assert_array_equal(back.to_dense(), d)
        validate_bcrs(back)

    def test_stride32_int4_path(self, rng):
        d = make_structured_sparse(rng, 16, 128, 8, 0.6, bits=4)
        sr = bcrs_to_srbcrs(dense_to_bcrs(d, 8), stride=32)
        assert sr.stride == 32
        np.testing.assert_array_equal(sr.to_dense(), d)


class TestBlockedEllEquivalent:
    def test_preserves_values(self, rng):
        d = make_structured_sparse(rng, 32, 64, 8, 0.8)
        m = blocked_ell_equivalent(d, vector_length=8, block_size=8)
        np.testing.assert_array_equal(m.to_dense(), d)

    def test_coarser_blocks_store_more(self, rng):
        """bs x bs blocks capture whole tiles: cuSPARSE's granularity tax."""
        d = make_structured_sparse(rng, 64, 64, 8, 0.9)
        ell = blocked_ell_equivalent(d, vector_length=8, block_size=8)
        kept_scalars = ell.nnz
        true_nnz_vectors = int(d.reshape(8, 8, 64).any(axis=1).sum()) * 8
        assert kept_scalars >= true_nnz_vectors


class TestGroupedConversion:
    def test_grouped_equals_per_slice(self, rng):
        bcrs = dense_to_bcrs(make_structured_sparse(rng, 32, 96, 8, 0.7), 8)
        values = rng.integers(0, 1000, size=(3,) + bcrs.values.shape)
        sr = bcrs_to_srbcrs(bcrs.with_values(values), stride=16)
        assert sr.slices == 3
        for g in range(3):
            one = bcrs_to_srbcrs(bcrs.with_values(values[g]), stride=16)
            np.testing.assert_array_equal(sr.slice(g).values, one.values)
            np.testing.assert_array_equal(
                sr.slice(g).to_dense(), bcrs.with_values(values[g]).to_dense()
            )

    def test_layout_derived_once_per_topology(self, rng):
        bcrs = dense_to_bcrs(make_structured_sparse(rng, 32, 96, 4, 0.7), 4)
        first = bcrs_to_srbcrs(bcrs, stride=16)
        again = bcrs_to_srbcrs(bcrs.with_values(bcrs.values * 3), stride=16)
        assert again.col_indices is first.col_indices
        assert again.layout_memo is first.layout_memo
        np.testing.assert_array_equal(again.values, first.values * 3)
        other = bcrs_to_srbcrs(bcrs, stride=32)  # a different layout
        assert other.layout_memo is not first.layout_memo
        np.testing.assert_array_equal(other.to_dense(), first.to_dense())
