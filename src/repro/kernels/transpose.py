"""Online transpose strategies for the SpMM RHS matrix (Figs. 4-7).

The RHS dense matrix B is stored row-major, but ``mma`` requires its B
operand column-major — and pre-transposing B is useless because the
sparse column indices gather non-consecutive rows. Magicube therefore
transposes *online*, inside the kernel:

**int8 path** (Sec. IV-B2): rows are staged into a padded shared-memory
buffer (conflict-free, Fig. 4), each thread loads four int32 down a word
column, and transposes its 4 x 4 byte block in registers (Fig. 5). The
resulting registers feed the RHS fragments of 4 MMAs per warp (Fig. 6),
each MMA covering the byte-columns congruent to its index mod 4.

**int4 path** (Sec. IV-B3): transposing 64 int4 per thread naively needs
per-nibble bit surgery. Instead, the SR-BCRS column indices are
pre-shuffled block-wise (Fig. 7: ``[0,2,4,6,1,3,5,7]``), so B rows are
*staged in shuffled order*; after the same char-granularity register
transpose, a fixed mask/shift/OR sequence on int32 words both separates
the nibble columns and lands the rows back in their **original** order —
8 bitwise ops per 16 values instead of per-nibble shuffling.

These functions execute the real bit manipulations on packed ``uint32``
arrays; the fragment-level executors in :mod:`repro.kernels.strict` use
them, and the fast path is verified against them.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.formats.shuffle import SHUFFLE_ORDER
from repro.gpu.fragments import INT8_M8N8K16
from repro.lowp.bitops import (
    interleave_nibble_pairs,
    split_nibbles,
    transpose_bytes_4x4,
)
from repro.lowp.pack import pack_rows

#: bitwise ops per 16 int4 values for the shuffled trick (Fig. 7: two
#: nibble splits at 3 ops each + two interleaves at 1 op each)
SHUFFLED_INT4_OPS_PER_16 = 8
#: bitwise ops per 16 int4 values for the naive per-nibble transpose
#: (per nibble: shift+mask to extract, shift+or to place = 4 ops)
NAIVE_INT4_OPS_PER_16 = 64
#: register ops per 16 int8 values for the 4x4 byte transpose (PRMT-like)
INT8_OPS_PER_16 = 4


def transpose_bitop_cost(bits: int, values: int, shuffled: bool) -> int:
    """Register bit-operation count to transpose ``values`` elements.

    This is the cost the Fig. 11 ablation charges: the int4 path without
    index shuffling pays 4x the bit work.
    """
    groups = (values + 15) // 16
    if bits == 8:
        return groups * INT8_OPS_PER_16
    if bits == 4:
        return groups * (SHUFFLED_INT4_OPS_PER_16 if shuffled else NAIVE_INT4_OPS_PER_16)
    raise ShapeError(f"no online transpose for int{bits}")


def online_transpose_int8(block: np.ndarray) -> np.ndarray:
    """Int8 online transpose of one staged RHS block (Figs. 4-6).

    ``block`` is the (BSk=16, BSn) row-major int8 tile staged in shared
    memory (rows already gathered by the sparse column indices). Returns
    the per-MMA B fragments as a ``(BSn // 8, 32)`` uint32 array: entry
    ``[j]`` is the packed register fragment of MMA ``j``, whose 8
    columns are the *interleaved* set ``4*c + j%4 + 32*(j//8...)`` — see
    :func:`int8_mma_columns`. Bit-exact: performs the actual 4x4 byte
    register transposes.
    """
    block = np.asarray(block)
    k, n = block.shape
    if k != 16 or n % 32 != 0:
        raise ShapeError(f"int8 staged block must be 16 x multiple-of-32, got {block.shape}")
    words = pack_rows(block, 8)  # (16, n/4) staged row-major words
    n_warps = n // 32
    frags = np.empty((n // 8, 32), dtype=np.uint32)
    for w in range(n_warps):
        # thread t loads words (rows 4*(t%4)+step, word col t//4 + 8w)
        t = np.arange(32)
        wc = t // 4 + 8 * w
        rows = 4 * (t % 4)
        loaded = np.stack(
            [words[rows + step, wc] for step in range(4)], axis=-1
        )  # (32 threads, 4 words) = each thread's 4 registers
        transposed = transpose_bytes_4x4(loaded)  # (32, 4): register i = col 4*(t//4)+i
        for i in range(4):
            # register i of every thread feeds MMA (w, i): its B fragment
            # column t//4 holds absolute column 4*(t//4) + i + 32w
            frags[4 * w + i] = transposed[:, i]
    return frags


def int8_mma_columns(mma_index: int) -> np.ndarray:
    """Absolute B columns covered by MMA ``mma_index`` after the int8
    online transpose: the 8 columns ``{32*warp + 4*c + i : c in 0..7}``.
    """
    warp, i = mma_index // 4, mma_index % 4
    return 32 * warp + 4 * np.arange(8) + i


def verify_int8_fragments(block: np.ndarray, frags: np.ndarray) -> bool:
    """Check that the online transpose produced valid MMA B fragments.

    For each MMA, collecting its fragment must reconstruct exactly
    ``block[:, int8_mma_columns(j)]`` — i.e. the data landed column-major
    in the layout of Fig. 1 with zero data exchange between threads.
    """
    for j in range(frags.shape[0]):
        got = INT8_M8N8K16.collect_b(frags[j])
        want = np.asarray(block)[:, int8_mma_columns(j)]
        if not np.array_equal(got, want.astype(got.dtype)):
            return False
    return True


def stage_rows_shuffled(rows: np.ndarray) -> np.ndarray:
    """Reorder gathered RHS rows into the Fig. 7 staging order.

    ``rows`` is (8*g, n): the RHS rows gathered by *unshuffled* column
    indices. The kernel actually gathers by the pre-shuffled index array,
    which is equivalent to permuting each 8-row block by SHUFFLE_ORDER.
    """
    rows = np.asarray(rows)
    if rows.shape[0] % 8 != 0:
        raise ShapeError(f"row count must be a multiple of 8, got {rows.shape[0]}")
    blocks = rows.reshape(-1, 8, rows.shape[1])
    return np.ascontiguousarray(blocks[:, SHUFFLE_ORDER].reshape(rows.shape))


def online_transpose_int4(staged: np.ndarray) -> np.ndarray:
    """Int4 online transpose via index shuffling (Fig. 7), bit-exact.

    ``staged`` is the (BSk=32, BSn) int4 tile whose rows are in
    *shuffled* staging order (see :func:`stage_rows_shuffled`). Returns
    the (BSk, BSn) tile with rows restored to their original order,
    computed purely with the int32-granularity mask/shift/OR sequence —
    never touching individual nibbles.

    Steps (numbers as in Fig. 7): rows were shuffled at format
    construction (1) and loaded via shared memory (2); the 4x4 byte
    transpose (3, 4) gives, per byte-column, one word holding staged rows
    0-3 and one holding staged rows 4-7 of an 8-row block (5); nibble
    splits (6) and interleaves (7) emit one word of even-column values
    and one of odd-column values, each with rows in original order.
    """
    staged = np.asarray(staged)
    k, n = staged.shape
    if k % 8 != 0 or n % 8 != 0:
        raise ShapeError(f"int4 staged block must be 8-aligned, got {staged.shape}")
    words = pack_rows(staged, 4)  # (k, n/8) words; byte b of a word = 2 nibble cols
    n_bytes = n // 2
    byte_view = words.view(np.uint8).reshape(k, n_bytes)  # little-endian bytes

    # column_words[c] = one uint32 per 8-row block holding the 8
    # original-order row values of nibble column c (lane r = row r)
    column_words = np.empty((k // 8, n), dtype=np.uint32)
    for b in range(k // 8):
        b0 = 8 * b
        # per byte-column: w0 = staged rows 0-3 of the block (original
        # rows [0,2,4,6]), w1 = staged rows 4-7 (original [1,3,5,7]) —
        # these are exactly the registers the 4x4 byte transpose yields
        w0 = np.ascontiguousarray(byte_view[b0 : b0 + 4].T).view(np.uint32).reshape(-1)
        w1 = np.ascontiguousarray(byte_view[b0 + 4 : b0 + 8].T).view(np.uint32).reshape(-1)
        lo0, hi0 = split_nibbles(w0)
        lo1, hi1 = split_nibbles(w1)
        column_words[b, 0::2] = interleave_nibble_pairs(lo0, lo1)  # even cols
        column_words[b, 1::2] = interleave_nibble_pairs(hi0, hi1)  # odd cols

    # expand the per-column words back into the (k, n) value tile: lane r
    # of column_words[b, c] is element (8*b + r, c)
    lanes = np.arange(8, dtype=np.uint32) * np.uint32(4)
    nibs = (column_words[:, :, None] >> lanes[None, None, :]) & np.uint32(0xF)
    vals = nibs.astype(np.int16)
    vals[vals >= 8] -= 16  # sign-extend int4
    out = vals.transpose(0, 2, 1).reshape(k, n)
    return out.astype(staged.dtype)
