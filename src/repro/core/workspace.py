"""Reusable scratch memory for steady-state forwards.

A served transformer forward at batch 4 x seq 128 stages a few dozen
activations and kernel operands of 100-800 KiB each. Allocated afresh on
every call, each one is new memory the process faults in page by page;
reused, it is already resident. :class:`Workspace` keeps those buffers
between calls and :class:`WorkspacePool` hands one workspace to one
caller at a time. :func:`scratch` is the one fallback for "no
workspace": a stage that may run without one takes its buffers there
and then gets fresh arrays.

Rules every user of a workspace keeps:

- A view from :meth:`Workspace.take` is scratch: it is valid until the
  next ``take`` of the same name, and a caller never hands one out as a
  result. Results (logits, kernel outputs) are always fresh arrays, so
  nothing a caller keeps aliases workspace memory.
- Buffers hold stale data: a caller writes every element it reads.
- One thread uses a workspace at a time; the pool enforces that.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from typing import Iterator

import numpy as np

__all__ = ["Workspace", "WorkspacePool", "scratch"]


class Workspace:
    """Named flat byte buffers, handed out as typed views.

    Each name owns one buffer, grown to the largest request it has
    served (its high-water mark) and never shrunk, so a smaller request
    after a larger one — a batch-size change — reuses the memory.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """A C-contiguous ``shape`` / ``dtype`` view of buffer ``name``
        (uninitialized)."""
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        buf = self._buffers.get(name)
        if buf is None or buf.nbytes < nbytes:
            buf = self._buffers[name] = np.empty(nbytes, dtype=np.uint8)
        return buf[:nbytes].view(dtype).reshape(shape)

    def buffers(self) -> tuple[np.ndarray, ...]:
        """Every buffer the workspace owns (flat ``uint8``)."""
        return tuple(self._buffers.values())

    @property
    def nbytes(self) -> int:
        """Bytes held: the sum of every buffer's high-water mark."""
        return sum(buf.nbytes for buf in self.buffers())


def scratch(
    workspace: Workspace | None, name: str, shape: tuple[int, ...], dtype
) -> np.ndarray:
    """A staging array: ``workspace.take(name, shape, dtype)``, or a
    fresh (uninitialized) array when there is no workspace.

    Every stage that may run with or without a workspace takes its
    buffers here, so "no workspace" always means "allocate per call".
    """
    if workspace is None:
        return np.empty(shape, dtype=dtype)
    return workspace.take(name, shape, dtype)


class WorkspacePool:
    """A lock-guarded free list of workspaces.

    :meth:`lease` hands a free workspace to the caller, or a new one when
    every workspace is leased, and takes it back when the caller is done.
    Sequential callers therefore share one workspace, concurrent callers
    never share one, and the pool holds at most as many workspaces as
    there were concurrent leases: its memory is bounded by
    ``len(pool) * max(workspace bytes)``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._all: list[Workspace] = []
        self._free: list[Workspace] = []

    @contextmanager
    def lease(self) -> Iterator[Workspace]:
        with self._lock:
            if self._free:
                workspace = self._free.pop()
            else:
                workspace = Workspace()
                self._all.append(workspace)
        try:
            yield workspace
        finally:
            with self._lock:
                self._free.append(workspace)

    def workspaces(self) -> tuple[Workspace, ...]:
        """Every workspace the pool has made, leased or free."""
        with self._lock:
            return tuple(self._all)

    def __len__(self) -> int:
        with self._lock:
            return len(self._all)
