"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest


def pytest_configure(config: pytest.Config) -> None:
    # no code path may lean on a deprecated surface: every tier-1 run
    # turns a DeprecationWarning into a test failure
    config.addinivalue_line("filterwarnings", "error::DeprecationWarning")


def make_structured_sparse(
    rng: np.random.Generator,
    m: int,
    k: int,
    vector_length: int,
    sparsity: float,
    bits: int = 8,
    signed: bool = True,
) -> np.ndarray:
    """Random dense matrix with V x 1 structured sparsity.

    Each V-row strip keeps each column independently with probability
    (1 - sparsity); kept vectors get random integers of the requested
    width (never all-zero, so format round trips are exact).
    """
    assert m % vector_length == 0
    strips = m // vector_length
    keep = rng.random((strips, k)) < (1.0 - sparsity)
    if signed:
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    else:
        lo, hi = 0, (1 << bits) - 1
    vals = rng.integers(lo, hi + 1, size=(strips, vector_length, k), dtype=np.int64)
    # ensure a kept vector is never entirely zero (it would vanish on
    # round trip); flip its first element to 1 when that happens
    allzero = (vals == 0).all(axis=1) & keep
    vals[:, 0, :][allzero] = 1
    dense = vals * keep[:, None, :]
    return dense.reshape(m, k).astype(np.int32)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def small_sparse(rng: np.random.Generator) -> np.ndarray:
    """A 32x64 int8 matrix with 8x1 blocks at 70% sparsity."""
    return make_structured_sparse(rng, 32, 64, 8, 0.7, bits=8)
