"""Wall-clock fast paths for the Magicube kernels — the serving default.

:mod:`repro.kernels` is *functional + accounted*: it computes the true
quantized result and models the CUDA kernel's cost, but its hot path
walks Python loops per row strip (and per slice of a grouped launch).
This package provides bit-exact replacements whose inner loops are
fully vectorized: strips are bucketed by length once per sparse layout
(:mod:`.plans`, memoized in the operand's ``layout_memo``), and each
bucket runs as one batched matmul over every slice — SpMM
(:mod:`.spmm`), SDDMM (:mod:`.sddmm`) and the quantized softmax
(:mod:`.softmax`). NumPy is the only dependency.

A kernel constructed with ``workspace=`` (a
:class:`~repro.core.workspace.Workspace`) stages its operand copies,
gathers and accumulators in that workspace's buffers instead of
allocating them per call; a served transformer forward hands its
launches the one workspace it leased, so the staging memory is bounded
by the model's pool size times one workspace's bytes. Results never
alias the workspace: every output is a fresh array. Without a
workspace the kernels allocate per call.

The ``fastpath-vectorized`` backend
(:class:`.backend.FastpathVectorizedBackend`) exposes them through the
runtime registry and is :data:`repro.runtime.DEFAULT_BACKEND`: engines,
one-shot ``api.run`` and transformer sessions serve on it unless a
backend is pinned. It shares ``magicube-emulation``'s capabilities,
cost accounting and ``plan_candidates``, so plans route through the
same planner with only the backend name differing in the plan key.
Results are bit-exact against the emulation backend — the oracle, pin
``backend="magicube-emulation"`` to run it — as asserted by
``tests/fastpath``, ``tests/transformer/test_grouped_attention.py`` and
the ``repro bench kernels --wall`` gate.
"""

from repro.fastpath.sddmm import FastpathSDDMM
from repro.fastpath.softmax import sparse_softmax_quantized_fast
from repro.fastpath.spmm import FastpathSpMM

__all__ = [
    "FastpathSDDMM",
    "FastpathSpMM",
    "sparse_softmax_quantized_fast",
]
