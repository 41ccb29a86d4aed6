"""Tests for BCRS with 1-D blocks (vectorSparse encoding)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FormatError
from repro.formats import BCRSMatrix, dense_to_bcrs
from tests.conftest import make_structured_sparse


class TestRoundTrip:
    @pytest.mark.parametrize("v", [2, 4, 8])
    def test_random(self, rng, v):
        d = make_structured_sparse(rng, 32, 64, v, 0.7)
        m = dense_to_bcrs(d, v)
        assert m.vector_length == v
        np.testing.assert_array_equal(m.to_dense(), d)

    def test_figure2_example_structure(self):
        """A strip keeps a column iff any of its V rows is nonzero."""
        d = np.zeros((4, 6), dtype=np.int32)
        d[0, 1] = 5          # vector (strip 0, col 1): [5, 0]
        d[1, 1] = 0
        d[2, 3] = 7          # vector (strip 1, col 3)
        d[3, 3] = 8
        m = dense_to_bcrs(d, 2)
        assert m.num_vectors == 2
        np.testing.assert_array_equal(m.col_indices, [1, 3])
        np.testing.assert_array_equal(m.values[0], [5, 0])
        np.testing.assert_array_equal(m.values[1], [7, 8])

    def test_empty_strip(self):
        d = np.zeros((8, 8), dtype=np.int32)
        d[0, 0] = 1  # only strip 0 nonempty
        m = dense_to_bcrs(d, 4)
        assert m.vectors_per_strip().tolist() == [1, 0]
        np.testing.assert_array_equal(m.to_dense(), d)


class TestInvariants:
    def test_rows_not_multiple_of_v(self):
        with pytest.raises(FormatError):
            dense_to_bcrs(np.zeros((6, 4), dtype=np.int32), 4)

    def test_values_shape_checked(self):
        with pytest.raises(FormatError):
            BCRSMatrix(
                shape=(4, 4),
                vector_length=2,
                row_ptrs=np.array([0, 1, 1]),
                col_indices=np.array([0]),
                values=np.zeros((1, 3)),
            )

    def test_nnz_counts_scalars(self, rng):
        d = make_structured_sparse(rng, 16, 16, 4, 0.5)
        m = dense_to_bcrs(d, 4)
        assert m.nnz == m.num_vectors * 4

    def test_strip_vectors_view(self, rng):
        d = make_structured_sparse(rng, 16, 32, 8, 0.6)
        m = dense_to_bcrs(d, 8)
        cols, vecs = m.strip_vectors(0)
        assert vecs.shape == (cols.size, 8)
        # vector j of strip 0 is dense[0:8, cols[j]]
        for j, c in enumerate(cols):
            np.testing.assert_array_equal(vecs[j], d[0:8, c])


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([2, 4, 8]),
    st.sampled_from([0.3, 0.7, 0.95]),
)
def test_bcrs_round_trip_property(seed, v, sparsity):
    rng = np.random.default_rng(seed)
    d = make_structured_sparse(rng, 16, 24, v, sparsity)
    np.testing.assert_array_equal(dense_to_bcrs(d, v).to_dense(), d)


class TestGroupedValues:
    def test_with_values_shares_topology_and_memo(self, rng):
        m = dense_to_bcrs(make_structured_sparse(rng, 16, 32, 4, 0.6), 4)
        stacked = np.stack([m.values, 2 * m.values, -m.values])
        g = m.with_values(stacked)
        assert g.slices == 3 and m.slices is None
        assert g.col_indices is m.col_indices and g.row_ptrs is m.row_ptrs
        assert g.layout_memo is m.layout_memo
        assert g.nnz == m.nnz  # one slice's count
        np.testing.assert_array_equal(g.slice(1).to_dense(), 2 * m.to_dense())
        np.testing.assert_array_equal(g.to_dense()[2], -m.to_dense())

    def test_with_values_rejects_other_layouts(self, rng):
        m = dense_to_bcrs(make_structured_sparse(rng, 16, 32, 4, 0.6), 4)
        with pytest.raises(FormatError):
            m.with_values(np.zeros((m.num_vectors + 1, 4)))
        with pytest.raises(FormatError):
            m.with_values(np.zeros((1, 1, m.num_vectors, 4)))
