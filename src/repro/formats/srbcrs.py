"""SR-BCRS — Strided Row-major BCRS (the paper's format, Fig. 2c).

The key deficiency of BCRS for Tensor cores: vectors are stored
vector-by-vector (column-major within a strip), but the MMA LHS fragment
wants each thread to read *consecutive elements of a row*. SR-BCRS fixes
the storage order: vectors of a strip are grouped into *strides* of
``stride`` vectors (stride = the MMA reduction dim k, e.g. 16 for int8),
and each group's ``V x stride`` sub-matrix is stored **row-major**. A
warp streaming the group front-to-back lands every element exactly where
the m8n8k16 fragment layout needs it — zero marshalling.

Padding: a strip whose vector count is not a multiple of the stride pads
the last group with zero vectors, and the column indices with the
sentinel :data:`PAD_INDEX`. To address strips independently despite the
padding, the format keeps **2M row pointers** (one first-vector and one
last-vector pointer per strip) instead of CSR's M+1.

A *grouped* matrix stacks several value sets over one layout: its flat
``values`` carry a leading slice axis, ``(slices, padded_vectors * V)``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.errors import FormatError
from repro.formats.base import SparseFormat
from repro.gpu.warp import ceil_div

#: column-index sentinel marking a padded (invalid) vector slot — the
#: '*' entries of Fig. 2c
PAD_INDEX = -1


@dataclass
class SRBCRSMatrix(SparseFormat):
    """SR-BCRS sparse matrix.

    Attributes
    ----------
    vector_length:
        V, the 1-D block height (<= 8 = the MMA m dim).
    stride:
        Vectors per storage group; equals the MMA reduction dimension
        (16 for int8 operands, 32 for int4).
    row_starts / row_ends:
        Per-strip first-vector offset and one-past-last *valid* vector
        offset, in (padded) vector units — the paper's 2M pointers.
        ``row_starts`` is always stride-aligned.
    col_indices:
        Padded column indices, length = total padded vectors;
        :data:`PAD_INDEX` in padding slots.
    values:
        Flat value array of length ``padded_vectors * V`` laid out
        group-row-major: group g of a strip occupies
        ``[g0 * V, (g0 + stride) * V)`` (``g0`` = group start offset)
        reshaped as ``(V, stride)`` row-major. Padding slots hold zeros.
        Grouped matrices prepend a slice axis.
    layout_memo:
        State derived from the index arrays alone (gather plans, cost
        accounting), shared with every matrix :meth:`with_values` makes.
    """

    shape: tuple[int, int]
    vector_length: int
    stride: int
    row_starts: np.ndarray
    row_ends: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray
    layout_memo: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.row_starts = np.ascontiguousarray(self.row_starts, dtype=np.int64)
        self.row_ends = np.ascontiguousarray(self.row_ends, dtype=np.int64)
        self.col_indices = np.ascontiguousarray(self.col_indices, dtype=np.int32)
        self.values = np.ascontiguousarray(self.values)
        m, k = self.shape
        v, s = self.vector_length, self.stride
        if v < 1 or v > 8:
            raise FormatError(f"vector length must be in [1, 8], got {v}")
        if m % v != 0:
            raise FormatError(f"rows {m} must be a multiple of V={v}")
        if s < 1:
            raise FormatError(f"stride must be positive, got {s}")
        strips = m // v
        if self.row_starts.shape != (strips,) or self.row_ends.shape != (strips,):
            raise FormatError(f"need {strips} row start/end pointers")
        if np.any(self.row_starts % s != 0):
            raise FormatError("row_starts must be stride-aligned")
        if np.any(self.row_ends < self.row_starts):
            raise FormatError("row_ends must be >= row_starts")
        self._check_values(self.values)
        if self.col_indices.size % s != 0:
            raise FormatError("total padded vectors must be a multiple of the stride")

    def _check_values(self, values: np.ndarray) -> None:
        flat = self.col_indices.size * self.vector_length
        if values.ndim not in (1, 2) or values.shape[-1] != flat:
            raise FormatError(
                f"values must be flat with {flat} elements (or (slices, "
                f"{flat}) when grouped), got {values.shape}"
            )

    def with_values(self, values: np.ndarray) -> "SRBCRSMatrix":
        """This layout with new ``values`` (plain or grouped).

        The index arrays and ``layout_memo`` are shared, not copied:
        formats are treated as immutable once built.
        """
        values = np.ascontiguousarray(values)
        self._check_values(values)
        out = copy.copy(self)
        out.values = values
        return out

    @property
    def slices(self) -> int | None:
        """Leading slice count of a grouped matrix; ``None`` if plain."""
        return self.values.shape[0] if self.values.ndim == 2 else None

    def slice(self, index: int) -> "SRBCRSMatrix":
        """Slice ``index`` of a grouped matrix, as a plain matrix."""
        return self.with_values(self.values[index])

    # ------------------------------------------------------------------
    @classmethod
    def from_dense(
        cls, dense: np.ndarray, vector_length: int, stride: int
    ) -> "SRBCRSMatrix":
        """Compress a dense matrix with V x 1 structured sparsity."""
        dense = np.asarray(dense)
        m, k = dense.shape
        v = vector_length
        if m % v != 0:
            raise FormatError(f"rows {m} not a multiple of V={v}")
        strips = m // v
        strip_view = dense.reshape(strips, v, k)
        keep = strip_view.any(axis=1)  # (strips, k)
        counts = keep.sum(axis=1).astype(np.int64)
        padded_counts = np.array(
            [ceil_div(int(c), stride) * stride if c else 0 for c in counts],
            dtype=np.int64,
        )
        row_starts = np.zeros(strips, dtype=np.int64)
        np.cumsum(padded_counts[:-1], out=row_starts[1:])
        row_ends = row_starts + counts
        total = int(padded_counts.sum())

        col_indices = np.full(total, PAD_INDEX, dtype=np.int32)
        values = np.zeros(total * v, dtype=dense.dtype)
        for r in range(strips):
            cols = np.nonzero(keep[r])[0]
            n = cols.size
            if n == 0:
                continue
            start = int(row_starts[r])
            col_indices[start : start + n] = cols
            vecs = strip_view[r][:, cols]  # (v, n) — dense vectors of strip
            # stride-group row-major placement
            for g0 in range(0, int(padded_counts[r]), stride):
                block = np.zeros((v, stride), dtype=dense.dtype)
                take = min(stride, n - g0)
                if take > 0:
                    block[:, :take] = vecs[:, g0 : g0 + take]
                flat0 = (start + g0) * v
                values[flat0 : flat0 + v * stride] = block.reshape(-1)
        return cls(
            shape=dense.shape,
            vector_length=v,
            stride=stride,
            row_starts=row_starts,
            row_ends=row_ends,
            col_indices=col_indices,
            values=values,
        )

    # ------------------------------------------------------------------
    @property
    def num_strips(self) -> int:
        return self.shape[0] // self.vector_length

    @property
    def num_vectors(self) -> int:
        """Valid (unpadded) vector count."""
        return int((self.row_ends - self.row_starts).sum())

    @property
    def num_padded_vectors(self) -> int:
        return int(self.col_indices.size)

    @property
    def nnz(self) -> int:
        return self.num_vectors * self.vector_length

    @property
    def padding_ratio(self) -> float:
        """Padded / valid vectors — the storage overhead of the format."""
        nv = self.num_vectors
        return self.num_padded_vectors / nv if nv else 1.0

    def strip_num_groups(self, strip: int) -> int:
        """Stride groups (= SpMM accumulation steps) of one strip."""
        n = int(self.row_ends[strip] - self.row_starts[strip])
        return ceil_div(n, self.stride) if n else 0

    def group(self, strip: int, g: int) -> tuple[np.ndarray, np.ndarray]:
        """One stride group: (col_indices[stride], lhs_tile[V, stride]).

        The returned tile is exactly the MMA LHS operand (row-major);
        padded slots carry index -1 and zero values.
        """
        start = int(self.row_starts[strip]) + g * self.stride
        if g < 0 or g >= self.strip_num_groups(strip):
            raise FormatError(f"strip {strip} has no group {g}")
        cols = self.col_indices[start : start + self.stride]
        flat0 = start * self.vector_length
        tile = self.values[flat0 : flat0 + self.vector_length * self.stride]
        return cols, tile.reshape(self.vector_length, self.stride)

    def iter_groups(self, strip: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Iterate the stride groups of one strip in order."""
        for g in range(self.strip_num_groups(strip)):
            yield self.group(strip, g)

    def to_dense(self) -> np.ndarray:
        """The dense matrix; ``(slices, M, K)`` when grouped."""
        if self.slices is not None:
            return np.stack([self.slice(g).to_dense() for g in range(self.slices)])
        m, k = self.shape
        v = self.vector_length
        out = np.zeros((m, k), dtype=self.values.dtype)
        for r in range(self.num_strips):
            for cols, tile in self.iter_groups(r):
                valid = cols != PAD_INDEX
                if not valid.any():
                    continue
                rows = slice(r * v, (r + 1) * v)
                out[rows, cols[valid]] += tile[:, valid]
        return out

    def storage_bytes(self, value_bits: int) -> int:
        ptr_bytes = (self.row_starts.size + self.row_ends.size) * 4
        idx_bytes = self.col_indices.size * 4
        val_bytes = (self.values.size * value_bits + 7) // 8  # incl. padding
        return ptr_bytes + idx_bytes + val_bytes

    def vectors_per_strip(self) -> np.ndarray:
        """Valid vector counts per strip."""
        return self.row_ends - self.row_starts
