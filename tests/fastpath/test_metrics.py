"""The measured kernel wall-time histogram, recorded on the execute path."""

import numpy as np

from repro import api
from repro.dlmc.generator import MatrixSpec, generate_matrix
from repro.obs.metrics import MetricsRegistry
from repro.obs.names import KERNEL_WALL, STANDARD_METRICS
from repro.runtime import DEFAULT_BACKEND


def test_kernel_wall_is_a_standard_metric():
    by_name = {name: kind for name, kind, _, _ in STANDARD_METRICS}
    assert by_name[KERNEL_WALL] == "histogram"


def test_engine_records_kernel_wall_per_backend():
    spec = MatrixSpec("transformer", 128, 128, sparsity=0.9, seed=1)
    weights = generate_matrix(spec, vector_length=8, bits=8)
    rng = np.random.default_rng(0)
    metrics = MetricsRegistry()
    with api.open_engine(device="A100", metrics=metrics) as client:
        for _ in range(2):
            client.run(api.SpmmRequest(
                lhs=weights, rhs=rng.integers(-128, 128, size=(128, 64)),
                session="ffn",
            ))
    hist = metrics.histogram(
        KERNEL_WALL, labels={"op": "spmm", "backend": DEFAULT_BACKEND}
    )
    assert hist.count >= 1  # batching may coalesce the two requests
    assert hist.sum > 0


def test_resolution_execute_observes_into_passed_registry():
    from repro.api.requests import SpmmRequest
    from repro.api.resolution import execute, normalize, resolve

    spec = MatrixSpec("transformer", 64, 64, sparsity=0.8, seed=2)
    weights = generate_matrix(spec, vector_length=4, bits=8)
    rng = np.random.default_rng(2)
    req = SpmmRequest(
        lhs=weights,
        rhs=rng.integers(-128, 128, size=(64, 32)),
        precision="L8-R8",
        backend="fastpath-vectorized",
    )
    metrics = MetricsRegistry()
    req = normalize(req)
    res = resolve(req, device="A100")
    execute(res, req, metrics=metrics)
    hist = metrics.histogram(
        KERNEL_WALL, labels={"op": "spmm", "backend": "fastpath-vectorized"}
    )
    assert hist.count == 1
