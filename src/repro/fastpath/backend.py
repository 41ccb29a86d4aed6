"""The ``fastpath-vectorized`` backend — the default serving backend.

A subclass of :class:`~repro.runtime.magicube.MagicubeEmulationBackend`
that swaps in the :mod:`repro.fastpath` kernels and softmax — everything
else (capabilities, Table-II device admission, cost accounting,
``plan_candidates``) is inherited, so the planner sees the same
modelled costs under a different backend name and plans route through
the same ``(backend, device)`` plan keys.

It is :data:`repro.runtime.DEFAULT_BACKEND`: resolution picks it
whenever no backend is named. Its priority stays *above* the emulation
backend's (higher number = later in the fallback chain), so a
priority-ordered walk still meets the ``magicube-emulation`` oracle
first; pin ``backend="magicube-emulation"`` to run the oracle.
"""

from __future__ import annotations

from repro.fastpath.sddmm import FastpathSDDMM
from repro.fastpath.softmax import sparse_softmax_quantized_fast
from repro.fastpath.spmm import FastpathSpMM
from repro.kernels.softmax import SoftmaxResult
from repro.runtime.magicube import MagicubeEmulationBackend

__all__ = ["FastpathVectorizedBackend"]


class FastpathVectorizedBackend(MagicubeEmulationBackend):
    """Bit-exact Magicube execution with fully vectorized inner loops."""

    name = "fastpath-vectorized"
    priority = 15
    spmm_kernel = FastpathSpMM
    sddmm_kernel = FastpathSDDMM

    def softmax(self, scores, scale, out_bits: int = 8) -> SoftmaxResult:
        return sparse_softmax_quantized_fast(scores, scale, out_bits)
