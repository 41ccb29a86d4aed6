"""Global-memory transaction model: coalescing and traffic accounting.

Two concerns the paper's kernels optimize for:

1. **Coalescing** — a warp's global loads are serviced in 32-byte
   sectors; a request touching fewer distinct sectors moves less data.
   The SpMM staging loop deliberately shapes each row load into a single
   64B (BSn=64) or 128B (BSn=128) transaction (Sec. IV-B2).
2. **Traffic** — the cost model distinguishes *compulsory* DRAM traffic
   (unique bytes, fetched once and then resident in L2 — the A100's
   40 MB L2 comfortably holds the RHS matrices of the evaluation) from
   total *access* traffic served at L2 bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.gpu.warp import minimum

#: minimum global-memory transaction granularity (one sector)
SECTOR_BYTES = 32


def coalesced_sectors(byte_addresses: np.ndarray, access_bytes: int = 1) -> int:
    """Number of 32-byte sectors one warp request touches.

    ``byte_addresses`` are the per-lane starting addresses, each lane
    reading ``access_bytes``. Perfectly coalesced loads of 32 x 4B hit
    4 sectors; a fully scattered byte gather can hit 32.
    """
    addrs = np.asarray(byte_addresses, dtype=np.int64).reshape(-1)
    ends = addrs + access_bytes - 1
    sectors = np.concatenate([addrs // SECTOR_BYTES, ends // SECTOR_BYTES])
    return int(np.unique(sectors).size)


def transaction_efficiency(byte_addresses: np.ndarray, access_bytes: int = 1) -> float:
    """Useful bytes / transferred bytes for one warp request."""
    useful = np.asarray(byte_addresses).size * access_bytes
    moved = coalesced_sectors(byte_addresses, access_bytes) * SECTOR_BYTES
    return useful / moved


#: bound once: ``read``/``write`` sit on every launch's accounting path
_ndarray = np.ndarray


@dataclass
class TrafficCounter:
    """Accumulates the memory traffic of one kernel execution.

    ``unique_read_bytes`` — compulsory DRAM reads (distinct data).
    ``read_bytes`` — total bytes requested (re-reads served by L2).
    ``write_bytes`` — bytes written out (DRAM, write-through for results).

    Counts are Python ints, or NumPy arrays when a planner costs a whole
    candidate grid in one pass (every field then broadcasts elementwise).
    """

    unique_read_bytes: int = 0
    read_bytes: int = 0
    write_bytes: int = 0
    #: bookkeeping by logical stream ("lhs_values", "rhs", "output", ...)
    by_stream: dict = field(default_factory=dict)

    def read(self, stream: str, bytes_: int, unique_bytes: int | None = None) -> None:
        """Record ``bytes_`` read from ``stream``.

        ``unique_bytes`` defaults to ``bytes_`` (no reuse); pass the
        distinct-data size when the same bytes are re-read (e.g. RHS rows
        fetched once per output row-block).
        """
        u = bytes_ if unique_bytes is None else minimum(unique_bytes, bytes_)
        if not isinstance(u, _ndarray):  # else bytes_ is an array too
            bytes_, u = int(bytes_), int(u)
        self.read_bytes += bytes_
        self.unique_read_bytes += u
        s = self.by_stream.setdefault(stream, [0, 0, 0])
        s[0] += bytes_
        s[1] += u

    def write(self, stream: str, bytes_: int) -> None:
        """Record ``bytes_`` written to ``stream``."""
        if not isinstance(bytes_, _ndarray):
            bytes_ = int(bytes_)
        self.write_bytes += bytes_
        s = self.by_stream.setdefault(stream, [0, 0, 0])
        s[2] += bytes_

    def merge(self, other: "TrafficCounter") -> None:
        """Fold another counter into this one."""
        self.unique_read_bytes += other.unique_read_bytes
        self.read_bytes += other.read_bytes
        self.write_bytes += other.write_bytes
        for k, v in other.by_stream.items():
            s = self.by_stream.setdefault(k, [0, 0, 0])
            for i in range(3):
                s[i] += v[i]

    @property
    def total_dram_bytes(self) -> int:
        """Compulsory reads + writes — what must cross the DRAM bus."""
        return self.unique_read_bytes + self.write_bytes

    @property
    def total_access_bytes(self) -> int:
        """All requested bytes — what must cross the L2 crossbar."""
        return self.read_bytes + self.write_bytes
