"""repro — reproduction of "Efficient Quantized Sparse Matrix Operations
on Tensor Cores" (Magicube; Li, Osawa, Hoefler; SC 2022).

A production-style Python library implementing the paper's sparse-matrix
system — the SR-BCRS format, quantized SpMM/SDDMM kernels with online
transpose and mixed-precision emulation, the baseline comparators, the
DLMC workload generator, and the quantized sparse-Transformer
application — on a bit-accurate Tensor-core simulator substrate with a
calibrated A100 cost model (see DESIGN.md for the substitution map).

The public surface is :mod:`repro.api` — typed requests, one uniform
:class:`~repro.api.Response`, and one resolution pipeline behind both
one-shot calls and the serving engine:

One-shot::

    import numpy as np
    from repro import SparseMatrix, api

    A = SparseMatrix.from_dense(pruned_weights, vector_length=8)
    r = api.run(api.SpmmRequest(lhs=A, rhs=activations, precision="L8-R8"))
    r.output, r.time_s, r.tops

Serving::

    import repro

    with repro.open_engine(device="A100") as client:
        future = client.submit(api.SpmmRequest(lhs=A, rhs=activations))
        future.result().output
"""

from repro import api
from repro.api import (
    AttentionRequest,
    Client,
    Response,
    SddmmRequest,
    SpmmRequest,
    open_engine,
)
from repro.core.matrix import SparseMatrix
from repro.core.precision import Precision, parse_precision, supported_precisions
from repro.errors import (
    AdmissionError,
    ConfigError,
    DeviceError,
    EngineClosedError,
    FormatError,
    LayoutError,
    MagicubeError,
    PlanCacheError,
    PrecisionError,
    QuantizationError,
    ReproError,
    RetuneError,
    ShapeError,
)
from repro.version import __version__

__all__ = [
    "AdmissionError",
    "AttentionRequest",
    "Client",
    "ConfigError",
    "DeviceError",
    "EngineClosedError",
    "FormatError",
    "LayoutError",
    "MagicubeError",
    "PlanCacheError",
    "Precision",
    "PrecisionError",
    "QuantizationError",
    "ReproError",
    "Response",
    "RetuneError",
    "SddmmRequest",
    "ShapeError",
    "SparseMatrix",
    "SpmmRequest",
    "api",
    "open_engine",
    "parse_precision",
    "supported_precisions",
    "__version__",
]
