"""Shared-memory bank-conflict model (paper Fig. 4).

A100 shared memory is partitioned into 32 banks of 4-byte words;
successive words map to successive banks. A warp's access is served in
as many cycles as the worst bank's number of *distinct* word addresses
(same-address lanes broadcast for free). The paper's SpMM avoids
conflicts when staging the RHS matrix by padding 8 int32 words after
every 64: this module is the analyzer that verifies that claim and
charges the timing model for conflicted variants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.gpu.device import NUM_BANKS


def conflict_degree(word_addresses: np.ndarray) -> int:
    """Serialization factor of one warp access (1 = conflict-free).

    ``word_addresses`` holds each lane's shared-memory *word* address
    (byte address / 4). Lanes hitting the same word broadcast; lanes
    hitting different words in the same bank serialize.
    """
    addrs = np.asarray(word_addresses).reshape(-1)
    if addrs.size == 0 or addrs.size > 32:
        raise ConfigError(f"a warp access has 1..32 lanes, got {addrs.size}")
    # distinct words per bank; the busiest bank sets the serialization
    # (distinct via bincount: NumPy's first np.unique imports numpy.ma)
    words = np.flatnonzero(np.bincount(addrs))
    return int(np.bincount(words % NUM_BANKS).max())


@dataclass(frozen=True)
class PaddedRowBuffer:
    """The Fig. 4 staging buffer: ``pad_words`` int32 after every 4 rows.

    For BSn=64 a row is 16 int32, so 4 rows are 64 int32 and the scheme
    is exactly the paper's "padding 8 int32 items after every 64 int32
    items". The 8-word skew rotates each 4-row group across banks, which
    makes the column-strided register loads of Fig. 5 conflict-free.
    ``pad_words=0`` is the 'basic' variant Fig. 11 ablates.
    """

    row_words: int
    pad_words: int

    def address(self, row: np.ndarray, word: np.ndarray) -> np.ndarray:
        """Word address of (row, word) elements."""
        row = np.asarray(row)
        return row * self.row_words + np.asarray(word) + (row // 4) * self.pad_words

    def footprint_words(self, rows: int) -> int:
        """Total words the buffer occupies for ``rows`` rows."""
        return rows * self.row_words + (rows // 4) * self.pad_words


def spmm_rhs_load_pattern(
    bsk: int, bsn_bytes: int, pad_words: int, warp: int = 0
) -> np.ndarray:
    """Word addresses for one warp loading its RHS slice (Fig. 4/5).

    In the SpMM online transpose, the staged RHS block has ``bsk`` rows
    of ``bsn_bytes`` int8 (= ``bsn_bytes // 4`` words). Each thread then
    loads 4 int32 *down a column of words*: thread ``t`` of warp ``w``
    owns word-column ``(w * 8 + t // 4)`` and rows ``4*(t % 4) ..
    4*(t % 4)+3``. The returned array is ``(4, 32)``: four successive
    warp transactions (one per register), 32 lane addresses each.
    """
    if bsk % 16 != 0:
        raise ConfigError(f"BSk must be a multiple of 16, got {bsk}")
    buf = PaddedRowBuffer(row_words=bsn_bytes // 4, pad_words=pad_words)
    lanes = np.arange(32)
    word_col = warp * 8 + lanes // 4
    row_base = 4 * (lanes % 4)
    out = np.empty((4, 32), dtype=np.int64)
    for step in range(4):
        out[step] = buf.address(row_base + step, word_col)
    return out


def access_cycles(patterns: np.ndarray) -> int:
    """Total serialized cycles for a batch of warp access patterns.

    ``patterns`` is ``(num_accesses, lanes)``; each row costs its
    conflict degree in cycles.
    """
    p = np.asarray(patterns)
    if p.ndim == 1:
        p = p[None, :]
    return int(sum(conflict_degree(row) for row in p))
