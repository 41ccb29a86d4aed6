"""Gradient checks for the manual-backprop layers."""

import numpy as np
import pytest

from repro.transformer.layers import (
    Adam,
    Embedding,
    LayerNorm,
    Linear,
    ReLU,
    cross_entropy,
    softmax,
    softmax_backward,
)


def numerical_grad(f, x, eps=1e-5):
    """Central-difference gradient of scalar f at x."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        old = x[i]
        x[i] = old + eps
        hi = f()
        x[i] = old - eps
        lo = f()
        x[i] = old
        g[i] = (hi - lo) / (2 * eps)
        it.iternext()
    return g


class TestLinear:
    def test_forward(self):
        rng = np.random.default_rng(0)
        lin = Linear(4, 3, rng)
        x = rng.normal(size=(2, 4)).astype(np.float32)
        np.testing.assert_allclose(
            lin.forward(x), x @ lin.w.value + lin.b.value, rtol=1e-6
        )

    def test_grad_input(self):
        rng = np.random.default_rng(1)
        lin = Linear(4, 3, rng)
        x = rng.normal(size=(2, 4)).astype(np.float64)
        dy = rng.normal(size=(2, 3)).astype(np.float64)
        out_dx = lin.backward_after(x, dy) if hasattr(lin, "backward_after") else None
        lin.forward(x)
        dx = lin.backward(dy)
        num = numerical_grad(lambda: float((lin.forward(x) * dy).sum()), x)
        np.testing.assert_allclose(dx, num, atol=1e-4)

    def test_grad_weight(self):
        rng = np.random.default_rng(2)
        lin = Linear(3, 2, rng)
        x = rng.normal(size=(4, 3)).astype(np.float64)
        dy = rng.normal(size=(4, 2)).astype(np.float64)
        lin.forward(x)
        lin.w.zero_grad()
        lin.backward(dy)
        # weights are float32: a larger eps keeps the perturbation exact
        num = numerical_grad(
            lambda: float((lin.forward(x) * dy).sum()), lin.w.value, eps=1e-3
        )
        np.testing.assert_allclose(lin.w.grad, num, atol=1e-3)

    def test_batched_3d(self):
        rng = np.random.default_rng(3)
        lin = Linear(4, 4, rng)
        x = rng.normal(size=(2, 5, 4)).astype(np.float32)
        y = lin.forward(x)
        assert y.shape == (2, 5, 4)
        dx = lin.backward(np.ones_like(y))
        assert dx.shape == x.shape


class TestLayerNorm:
    def test_normalizes(self):
        ln = LayerNorm(8)
        x = np.random.default_rng(4).normal(3.0, 5.0, size=(10, 8)).astype(np.float32)
        y = ln.forward(x)
        np.testing.assert_allclose(y.mean(axis=-1), 0, atol=1e-5)
        np.testing.assert_allclose(y.std(axis=-1), 1, atol=1e-3)

    def test_grad_input(self):
        rng = np.random.default_rng(5)
        ln = LayerNorm(6)
        x = rng.normal(size=(3, 6)).astype(np.float64)
        dy = rng.normal(size=(3, 6)).astype(np.float64)
        ln.forward(x)
        dx = ln.backward(dy)
        num = numerical_grad(lambda: float((ln.forward(x) * dy).sum()), x)
        np.testing.assert_allclose(dx, num, atol=1e-4)


class TestInferenceForward:
    """``forward(x, out=buf)`` is the training forward's bits, written
    into ``buf``, with no backward state kept."""

    SHAPES = ((4, 128, 64), (3, 7), (2, 5, 33), (1, 1, 64))

    def test_layernorm_matches_np_var_and_training_forward(self):
        rng = np.random.default_rng(12)
        for shape in self.SHAPES:
            for loc, scale in ((0.0, 1.0), (3.0, 5.0), (1e3, 1e-2)):
                ln = LayerNorm(shape[-1])
                ln.gamma.value[:] = rng.normal(1.0, 0.1, size=shape[-1])
                ln.beta.value[:] = rng.normal(0.0, 0.1, size=shape[-1])
                x = rng.normal(loc, scale, size=shape).astype(np.float32)
                # the layer's earlier body: np.var takes the mean again
                mu = x.mean(axis=-1, keepdims=True)
                inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + ln.eps)
                want = (x - mu) * inv * ln.gamma.value + ln.beta.value
                trained = ln.forward(x)
                xhat, cached_inv = ln._cache
                np.testing.assert_array_equal(xhat, (x - mu) * inv)
                np.testing.assert_array_equal(cached_inv, inv)
                ln._cache = None
                buf = np.full(shape, np.nan, dtype=np.float32)
                assert ln.forward(x, out=buf) is buf
                assert ln._cache is None
                for got in (trained, buf):
                    assert got.dtype == want.dtype
                    np.testing.assert_array_equal(got, want)

    def test_linear_relu_embedding_out_matches_training_forward(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(2, 5, 4)).astype(np.float32)
        lin = Linear(4, 3, rng)
        want = lin.forward(x)
        lin._x = None
        buf = np.full((2, 5, 3), np.nan, dtype=np.float32)
        assert lin.forward(x, out=buf) is buf and lin._x is None
        np.testing.assert_array_equal(buf, want)
        np.testing.assert_array_equal(want, x @ lin.w.value + lin.b.value)

        relu = ReLU()
        want = relu.forward(x)
        relu._mask = None
        buf = x.copy()
        assert relu.forward(buf, out=buf) is buf and relu._mask is None
        np.testing.assert_array_equal(buf, want)
        np.testing.assert_array_equal(np.signbit(buf), np.signbit(x * (x > 0)))

        emb = Embedding(10, 4, rng)
        ids = np.array([[1, -2], [9, 0]])
        want = emb.forward(ids)
        np.testing.assert_array_equal(want, emb.table.value[ids])
        emb._ids = None
        buf = np.full((2, 2, 4), np.nan, dtype=np.float32)
        assert emb.forward(ids, out=buf) is buf and emb._ids is None
        np.testing.assert_array_equal(buf, want)
        for bad in (np.array([[10]]), np.array([[-11]])):
            with pytest.raises(IndexError):
                emb.forward(bad)


class TestActivationsAndLoss:
    def test_relu(self):
        r = ReLU()
        x = np.array([[-1.0, 2.0], [3.0, -4.0]])
        np.testing.assert_array_equal(r.forward(x), [[0, 2], [3, 0]])
        np.testing.assert_array_equal(r.backward(np.ones((2, 2))), [[0, 1], [1, 0]])

    def test_softmax_rows_sum_one(self):
        x = np.random.default_rng(6).normal(size=(5, 7))
        np.testing.assert_allclose(softmax(x).sum(axis=-1), 1, rtol=1e-6)

    def test_softmax_masked_rows(self):
        x = np.full((2, 3), -np.inf)
        out = softmax(x)
        assert np.all(np.isfinite(out))

    def test_softmax_backward_matches_numeric(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(6,)).astype(np.float64)
        dy = rng.normal(size=(6,)).astype(np.float64)
        probs = softmax(x)
        dx = softmax_backward(probs, dy)
        num = numerical_grad(lambda: float((softmax(x) * dy).sum()), x)
        np.testing.assert_allclose(dx, num, atol=1e-5)

    def test_cross_entropy_grad(self):
        rng = np.random.default_rng(8)
        logits = rng.normal(size=(4, 3)).astype(np.float64)
        labels = np.array([0, 2, 1, 1])
        _, grad = cross_entropy(logits, labels)
        num = numerical_grad(
            lambda: cross_entropy(logits, labels)[0], logits
        )
        np.testing.assert_allclose(grad, num, atol=1e-5)


class TestEmbeddingAndAdam:
    def test_embedding_lookup(self):
        rng = np.random.default_rng(9)
        emb = Embedding(10, 4, rng)
        ids = np.array([[1, 2], [3, 1]])
        out = emb.forward(ids)
        np.testing.assert_array_equal(out[0, 0], emb.table.value[1])

    def test_embedding_grad_accumulates_duplicates(self):
        rng = np.random.default_rng(10)
        emb = Embedding(5, 3, rng)
        ids = np.array([[1, 1]])
        emb.forward(ids)
        emb.backward(np.ones((1, 2, 3)))
        np.testing.assert_allclose(emb.table.grad[1], 2.0)

    def test_adam_reduces_quadratic(self):
        rng = np.random.default_rng(11)
        lin = Linear(4, 1, rng)
        x = rng.normal(size=(64, 4)).astype(np.float32)
        target = x @ np.array([[1.0], [-2.0], [0.5], [3.0]], dtype=np.float32)
        opt = Adam(lin.parameters(), lr=0.05)
        first = None
        for _ in range(200):
            y = lin.forward(x)
            err = y - target
            loss = float((err**2).mean())
            if first is None:
                first = loss
            opt.zero_grad()
            lin.backward(2 * err / err.size)
            opt.step()
        assert loss < first * 0.01
