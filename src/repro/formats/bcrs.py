"""Block Compressed Row Storage with 1-D blocks (Fig. 2a/b).

This is the *column-vector sparse encoding* of vectorSparse: the matrix
is divided into M/V row strips; each nonzero of a strip is a dense
V x 1 vector identified by its column index, and vectors are stored
consecutively (each vector's V elements contiguous).

A *grouped* matrix stacks several value sets over one topology: its
``values`` carry a leading slice axis, ``(slices, num_vectors, V)``.
The Fig. 16 attention launches use it for every (batch, head) slice
that shares one attention mask.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from repro.errors import FormatError
from repro.formats.base import SparseFormat


@dataclass
class BCRSMatrix(SparseFormat):
    """BCRS with 1-D (V x 1) dense blocks.

    ``row_ptrs`` has length M/V + 1 in units of vectors; strip r's
    vectors occupy ``[row_ptrs[r], row_ptrs[r+1])`` of ``col_indices``
    and of the vector axis of ``values`` (shape ``(num_vectors, V)``,
    or ``(slices, num_vectors, V)`` when grouped).

    ``layout_memo`` holds state derived from the index arrays alone
    (conversion maps, gather plans). Matrices made by
    :meth:`with_values` share it, so a layout is derived once per
    topology however many value sets flow through it.
    """

    shape: tuple[int, int]
    vector_length: int
    row_ptrs: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray
    layout_memo: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.row_ptrs = np.ascontiguousarray(self.row_ptrs, dtype=np.int64)
        self.col_indices = np.ascontiguousarray(self.col_indices, dtype=np.int32)
        self.values = np.ascontiguousarray(self.values)
        m, k = self.shape
        v = self.vector_length
        if v < 1 or m % v != 0:
            raise FormatError(f"rows {m} must be a multiple of vector length {v}")
        strips = m // v
        if self.row_ptrs.shape != (strips + 1,):
            raise FormatError(f"row_ptrs must have length {strips + 1}")
        if self.row_ptrs[0] != 0 or self.row_ptrs[-1] != self.col_indices.size:
            raise FormatError("row_ptrs must start at 0 and end at num_vectors")
        if np.any(np.diff(self.row_ptrs) < 0):
            raise FormatError("row_ptrs must be non-decreasing")
        self._check_values(self.values)
        if self.col_indices.size and (
            self.col_indices.min() < 0 or self.col_indices.max() >= k
        ):
            raise FormatError("column index out of range")

    def _check_values(self, values: np.ndarray) -> None:
        expected = (self.col_indices.size, self.vector_length)
        if values.ndim not in (2, 3) or values.shape[-2:] != expected:
            raise FormatError(
                f"values must be {expected} or (slices, *{expected}), "
                f"got {values.shape}"
            )

    def with_values(self, values: np.ndarray) -> "BCRSMatrix":
        """This topology with new ``values`` (plain or grouped).

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
        return self.values.shape[0] if self.values.ndim == 3 else None

    def slice(self, index: int) -> "BCRSMatrix":
        """Slice ``index`` of a grouped matrix, as a plain matrix."""
        return self.with_values(self.values[index])

    @property
    def num_strips(self) -> int:
        return self.shape[0] // self.vector_length

    @property
    def num_vectors(self) -> int:
        return int(self.col_indices.size)

    @classmethod
    def from_dense(cls, dense: np.ndarray, vector_length: int) -> "BCRSMatrix":
        """Compress a dense matrix whose sparsity is V x 1 structured.

        A column of a strip is kept iff it contains any nonzero; the
        stored vector is the full V elements (zeros within a kept vector
        are preserved — they are part of the dense block).
        """
        dense = np.asarray(dense)
        m, k = dense.shape
        v = vector_length
        if m % v != 0:
            raise FormatError(f"rows {m} not a multiple of V={v}")
        strips = m // v
        strip_view = dense.reshape(strips, v, k)
        keep = strip_view.any(axis=1)  # (strips, k)
        counts = keep.sum(axis=1)
        row_ptrs = np.zeros(strips + 1, dtype=np.int64)
        np.cumsum(counts, out=row_ptrs[1:])
        strip_ids, cols = np.nonzero(keep)
        values = np.ascontiguousarray(
            strip_view[strip_ids, :, cols]
        )  # (num_vectors, v)
        return cls(
            shape=dense.shape,
            vector_length=v,
            row_ptrs=row_ptrs,
            col_indices=cols.astype(np.int32),
            values=values,
        )

    def to_dense(self) -> np.ndarray:
        """The dense matrix; ``(slices, M, K)`` when grouped."""
        if self.slices is not None:
            return np.stack([self.slice(g).to_dense() for g in range(self.slices)])
        m, k = self.shape
        v = self.vector_length
        out = np.zeros((self.num_strips, v, k), dtype=self.values.dtype)
        strip_ids = np.repeat(np.arange(self.num_strips), np.diff(self.row_ptrs))
        out[strip_ids, :, self.col_indices] = self.values
        return out.reshape(m, k)

    @property
    def nnz(self) -> int:
        """Stored scalars of one slice (the topology's count)."""
        return self.num_vectors * self.vector_length

    def storage_bytes(self, value_bits: int) -> int:
        ptr_bytes = self.row_ptrs.size * 4
        idx_bytes = self.col_indices.size * 4
        val_bytes = (self.values.size * value_bits + 7) // 8
        return ptr_bytes + idx_bytes + val_bytes

    def strip_vectors(self, strip: int) -> tuple[np.ndarray, np.ndarray]:
        """(col_indices, values) of one row strip — values ``(n_vec, V)``
        (with the leading slice axis when grouped)."""
        lo, hi = self.row_ptrs[strip], self.row_ptrs[strip + 1]
        return self.col_indices[lo:hi], self.values[..., lo:hi, :]

    def vectors_per_strip(self) -> np.ndarray:
        """Vector counts per strip (load-balance statistic)."""
        return np.diff(self.row_ptrs)
