"""Tests for the shared-memory bank-conflict model (paper Fig. 4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.gpu.device import NUM_BANKS
from repro.gpu.sharedmem import (
    PaddedRowBuffer,
    access_cycles,
    conflict_degree,
    spmm_rhs_load_pattern,
)


class TestConflictDegree:
    def test_sequential_is_free(self):
        assert conflict_degree(np.arange(32)) == 1

    def test_broadcast_is_free(self):
        assert conflict_degree(np.zeros(32, dtype=np.int64)) == 1

    def test_stride_32_is_worst_case(self):
        # all lanes hit bank 0 with distinct addresses
        assert conflict_degree(np.arange(32) * 32) == 32

    def test_stride_2_two_way(self):
        assert conflict_degree(np.arange(32) * 2) == 2

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            conflict_degree(np.array([], dtype=np.int64))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 4095), min_size=1, max_size=32))
    def test_matches_per_bank_reference(self, lanes):
        addrs = np.array(lanes, dtype=np.int64)
        banks = addrs % NUM_BANKS
        reference = max(
            np.unique(addrs[banks == bank]).size for bank in np.unique(banks)
        )
        assert conflict_degree(addrs) == reference


class TestPaddedRowBuffer:
    def test_addressing(self):
        buf = PaddedRowBuffer(row_words=16, pad_words=8)
        assert buf.address(np.array(0), np.array(0)) == 0
        assert buf.address(np.array(1), np.array(0)) == 16
        # padding kicks in after every 4 rows (64 int32 for BSn=64)
        assert buf.address(np.array(4), np.array(0)) == 72
        assert buf.footprint_words(8) == 8 * 16 + 2 * 8


class TestFig4Pattern:
    """The paper's claim: 8-word padding after 64 int8 makes the SpMM RHS
    register loads conflict-free; no padding conflicts."""

    def test_padded_is_conflict_free(self):
        for warp in (0, 1):
            pattern = spmm_rhs_load_pattern(bsk=16, bsn_bytes=64, pad_words=8, warp=warp)
            for access in pattern:
                assert conflict_degree(access) == 1

    def test_unpadded_conflicts(self):
        pattern = spmm_rhs_load_pattern(bsk=16, bsn_bytes=64, pad_words=0)
        degrees = [conflict_degree(a) for a in pattern]
        assert max(degrees) > 1

    def test_bsn128_with_padding(self):
        # BSn=128 (32 words/row): without padding every word-column hits
        # one bank; with 8-word padding the rows rotate across banks.
        bad = spmm_rhs_load_pattern(bsk=16, bsn_bytes=128, pad_words=0)
        good = spmm_rhs_load_pattern(bsk=16, bsn_bytes=128, pad_words=8)
        assert max(conflict_degree(a) for a in bad) == 4
        assert max(conflict_degree(a) for a in good) == 1

    def test_bsk_validation(self):
        with pytest.raises(ConfigError):
            spmm_rhs_load_pattern(bsk=10, bsn_bytes=64, pad_words=8)

    def test_access_cycles_sums_degrees(self):
        pattern = spmm_rhs_load_pattern(bsk=16, bsn_bytes=64, pad_words=8)
        assert access_cycles(pattern) == 4  # 4 conflict-free transactions
