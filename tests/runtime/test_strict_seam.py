"""A backend's kernel classes are the only switch on how it computes.

Direct ``api.run`` SpMM and SDDMM requests and engine-session SDDMM
requests all launch the resolved backend's own ``spmm_kernel`` /
``sddmm_kernel``; ``magicube-strict``'s route every strip through
``emulated_matmul`` (the digit-decomposition algebra). All three Magicube
backends agree bit for bit.
"""

import numpy as np
import pytest

import repro
from repro import api
from repro.core.matrix import SparseMatrix
from repro.kernels import sddmm as sddmm_module
from repro.kernels import spmm as spmm_module
from repro.kernels.sddmm import MagicubeSDDMM
from repro.kernels.spmm import MagicubeSpMM
from repro.runtime import get_backend
from tests.conftest import make_structured_sparse

BACKENDS = ("magicube-emulation", "magicube-strict", "fastpath-vectorized")


@pytest.fixture
def operands(rng):
    weights = make_structured_sparse(rng, 64, 128, 8, 0.7, bits=8)
    return {
        "weights": weights,
        "matrix": SparseMatrix.from_dense(weights, vector_length=8),
        "rhs": rng.integers(-128, 128, size=(128, 16)),
        "a": rng.integers(-128, 128, size=(64, 32)),
        "b": rng.integers(-128, 128, size=(32, 128)),
    }


@pytest.fixture
def spy(monkeypatch):
    """Records the class of every kernel launch and counts the
    ``emulated_matmul`` calls the kernels make."""
    seen = {"launches": [], "emulated": 0}
    for cls in (MagicubeSpMM, MagicubeSDDMM):
        original = cls.__call__

        def launch(self, *args, _original=original, **kwargs):
            seen["launches"].append(type(self))
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__call__", launch)
    for module in (spmm_module, sddmm_module):
        original = module.emulated_matmul

        def emulated(*args, _original=original, **kwargs):
            seen["emulated"] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, "emulated_matmul", emulated)
    return seen


def _spmm(operands, backend):
    return api.SpmmRequest(
        lhs=operands["matrix"], rhs=operands["rhs"], precision="L8-R8",
        backend=backend,
    )


def _sddmm(operands, backend):
    return api.SddmmRequest(
        a=operands["a"], b=operands["b"], mask=operands["matrix"],
        precision="L8-R8", backend=backend,
    )


def _assert_ran(spy, name, kernel_attr):
    backend = get_backend(name)
    assert spy["launches"] == [getattr(backend, kernel_attr)]
    if name == "magicube-strict":
        assert spy["emulated"] > 0
    else:
        assert spy["emulated"] == 0


@pytest.mark.parametrize("name", BACKENDS)
def test_direct_spmm_runs_the_backend_kernel(operands, spy, name):
    r = api.run(_spmm(operands, name))
    _assert_ran(spy, name, "spmm_kernel")
    np.testing.assert_array_equal(
        r.output, operands["weights"].astype(np.int64) @ operands["rhs"]
    )


@pytest.mark.parametrize("name", BACKENDS)
def test_direct_sddmm_runs_the_backend_kernel(operands, spy, name):
    api.run(_sddmm(operands, name))
    _assert_ran(spy, name, "sddmm_kernel")


@pytest.mark.parametrize("name", BACKENDS)
def test_engine_sddmm_runs_the_backend_kernel(operands, spy, name):
    with repro.open_engine(device="A100") as client:
        r = client.run(_sddmm(operands, name))
    assert r.backend == name
    _assert_ran(spy, name, "sddmm_kernel")


def test_backends_agree_bit_for_bit(operands):
    spmm = [api.run(_spmm(operands, name)).output for name in BACKENDS]
    sddmm = [
        np.asarray(api.run(_sddmm(operands, name)).output.values)
        for name in BACKENDS
    ]
    for got in spmm[1:]:
        np.testing.assert_array_equal(got, spmm[0])
    for got in sddmm[1:]:
        np.testing.assert_array_equal(got, sddmm[0])
