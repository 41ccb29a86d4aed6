"""NumPy neural-network layers with manual backprop.

Minimal reverse-mode machinery for the Table V accuracy study: each
layer caches what its backward pass needs, ``backward`` returns the
input gradient and accumulates parameter gradients, and ``Adam`` applies
updates. Float32 throughout (training); the quantized paths live in
:mod:`repro.transformer.attention`.

Each ``forward`` has one body. Given ``out=`` it writes its result
into ``out`` (which may be the input, for :class:`ReLU`) and keeps no
backward state: that is inference, and the quantized model forward runs
every layer that way, so a served forward allocates no activation and
leaves no cache behind. Without ``out`` it allocates the result and
keeps what ``backward`` needs.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError


class Parameter:
    """A trainable tensor with its gradient accumulator."""

    def __init__(self, value: np.ndarray) -> None:
        self.value = np.asarray(value, dtype=np.float32)
        self.grad = np.zeros_like(self.value)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0


class Layer:
    """Base class: parameters() walks the layer tree."""

    def parameters(self) -> list[Parameter]:
        params: list[Parameter] = []
        for v in vars(self).values():
            if isinstance(v, Parameter):
                params.append(v)
            elif isinstance(v, Layer):
                params.extend(v.parameters())
            elif isinstance(v, (list, tuple)):
                for item in v:
                    if isinstance(item, Layer):
                        params.extend(item.parameters())
        return params


class Linear(Layer):
    """y = x @ W + b over the last axis."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator) -> None:
        scale = np.sqrt(2.0 / (d_in + d_out))
        self.w = Parameter(rng.normal(0.0, scale, size=(d_in, d_out)))
        self.b = Parameter(np.zeros(d_out))
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            self._x = x
            out = np.empty(
                x.shape[:-1] + self.b.value.shape, np.result_type(x, self.w.value)
            )
        np.matmul(x, self.w.value, out=out)
        out += self.b.value
        return out

    def backward(self, dy: np.ndarray) -> np.ndarray:
        x = self._x
        if x is None:
            raise ShapeError("backward before forward")
        flat_x = x.reshape(-1, x.shape[-1])
        flat_dy = dy.reshape(-1, dy.shape[-1])
        self.w.grad += flat_x.T @ flat_dy
        self.b.grad += flat_dy.sum(axis=0)
        return dy @ self.w.value.T


class LayerNorm(Layer):
    """Layer normalization over the last axis."""

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        self.gamma = Parameter(np.ones(dim))
        self.beta = Parameter(np.zeros(dim))
        self.eps = eps
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        # np.var's arithmetic with the mean taken once: ``xhat`` holds
        # the squared deviations, then the normalized values
        xhat = np.empty_like(x) if out is None else out
        mu = x.mean(axis=-1, keepdims=True)
        np.subtract(x, mu, out=xhat)
        np.multiply(xhat, xhat, out=xhat)
        inv = 1.0 / np.sqrt(xhat.mean(axis=-1, keepdims=True) + self.eps)
        np.subtract(x, mu, out=xhat)
        xhat *= inv
        if out is None:
            self._cache = (xhat, inv)
        out = np.multiply(xhat, self.gamma.value, out=out)
        out += self.beta.value
        return out

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ShapeError("backward before forward")
        xhat, inv = self._cache
        d = xhat.shape[-1]
        flat_xhat = xhat.reshape(-1, d)
        flat_dy = dy.reshape(-1, d)
        self.gamma.grad += (flat_dy * flat_xhat).sum(axis=0)
        self.beta.grad += flat_dy.sum(axis=0)
        dxhat = dy * self.gamma.value
        dx = (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        ) * inv
        return dx


class ReLU(Layer):
    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        mask = x > 0
        if out is None:
            self._mask = mask
        # x * (x > 0), not np.maximum: negatives become -0.0
        return np.multiply(x, mask, out=out)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise ShapeError("backward before forward")
        return dy * self._mask


class Embedding(Layer):
    """Token embedding lookup."""

    def __init__(self, vocab: int, dim: int, rng: np.random.Generator) -> None:
        self.table = Parameter(rng.normal(0.0, 0.02, size=(vocab, dim)))
        self._ids: np.ndarray | None = None

    def forward(self, ids: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        ids = np.asarray(ids)
        if out is None:
            self._ids = ids
        vocab = len(self.table.value)
        # the bounds of ``table[ids]``; "wrap" then only maps the
        # negative ids, as indexing does, and skips the buffered copy a
        # bounds-checking take makes of ``out``
        if ids.size and (ids.min() < -vocab or ids.max() >= vocab):
            raise IndexError(f"token ids must lie in [-{vocab}, {vocab})")
        return np.take(self.table.value, ids, axis=0, out=out, mode="wrap")

    def backward(self, dy: np.ndarray) -> None:
        if self._ids is None:
            raise ShapeError("backward before forward")
        np.add.at(self.table.grad, self._ids.reshape(-1), dy.reshape(-1, dy.shape[-1]))


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    m = x.max(axis=axis, keepdims=True)
    # guard fully-masked rows (-inf everywhere) against NaN
    m = np.where(np.isfinite(m), m, 0.0)
    e = np.exp(x - m)
    s = e.sum(axis=axis, keepdims=True)
    return e / np.maximum(s, 1e-30)


def softmax_backward(probs: np.ndarray, dy: np.ndarray, axis: int = -1) -> np.ndarray:
    """Jacobian-vector product of softmax at ``probs``."""
    dot = (dy * probs).sum(axis=axis, keepdims=True)
    return probs * (dy - dot)


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean CE loss and the logits gradient."""
    n = logits.shape[0]
    probs = softmax(logits, axis=-1)
    loss = -float(np.mean(np.log(probs[np.arange(n), labels] + 1e-12)))
    grad = probs.copy()
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


class Adam:
    """Adam optimizer over a parameter list."""

    def __init__(
        self,
        params: list[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        self.params = params
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in params]
        self.v = [np.zeros_like(p.value) for p in params]

    def step(self) -> None:
        self.t += 1
        for i, p in enumerate(self.params):
            self.m[i] = self.b1 * self.m[i] + (1 - self.b1) * p.grad
            self.v[i] = self.b2 * self.v[i] + (1 - self.b2) * p.grad**2
            mhat = self.m[i] / (1 - self.b1**self.t)
            vhat = self.v[i] / (1 - self.b2**self.t)
            p.value -= self.lr * mhat / (np.sqrt(vhat) + self.eps)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()
