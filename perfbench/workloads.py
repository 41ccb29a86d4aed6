"""The benchmark workloads: seeded inputs, oracles and set-up.

Every input is generated here with NumPy from the run's seed, and every
expected output (the oracle) is computed here too — the program under
test receives only the generated operands. A workload provides:

- ``open()`` — open the engine (the program's set-up);
- ``warm(client)`` — prepare the request classes and warm up;
- closed loops: ``next_request(i)`` -> ``(request, check)``;
- open loops: ``schedule(seconds, phase)`` -> ``[(offset_s, request,
  check)]``, a seeded Poisson arrival process.

``check(response)`` returns True when the response is correct.
"""

from __future__ import annotations

import os

import numpy as np

VECTOR = 8  # SR-BCRS vector length (rows per 1-D block)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pruned(rng, rows: int, cols: int, sparsity: float, low: int = 1, high: int = 127):
    """An int8 ``(rows, cols)`` matrix pruned to exactly ``sparsity`` in
    ``VECTOR`` x 1 blocks; every kept entry is nonzero, so the dense
    nonzero pattern is the block structure. Returns ``(matrix, keep)``."""
    blocks = (rows // VECTOR) * cols
    kept = round((1.0 - sparsity) * blocks)
    keep_blocks = np.zeros(blocks, dtype=bool)
    keep_blocks[rng.choice(blocks, size=kept, replace=False)] = True
    keep = np.repeat(keep_blocks.reshape(rows // VECTOR, 1, cols), VECTOR, axis=1)
    keep = keep.reshape(rows, cols)
    mags = rng.integers(low, high + 1, size=(rows, cols))
    signs = rng.choice(np.array([-1, 1]), size=(rows, cols))
    return np.where(keep, mags * signs, 0).astype(np.int8), keep


def int_operand(rng, shape) -> np.ndarray:
    """Dense 4-bit-range activations (every draw spans the full range)."""
    return rng.integers(-8, 8, size=shape, dtype=np.int8)


def exact(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a.astype(np.int64) @ b.astype(np.int64)


def spmm_check(expected: np.ndarray):
    def check(r) -> bool:
        out = np.asarray(r.output)
        return out.shape == expected.shape and np.array_equal(out, expected)
    return check


def sddmm_check(expected: np.ndarray):
    """``expected`` is the dense product zeroed outside the mask."""
    def check(r) -> bool:
        out = r.output.to_dense()
        return out.shape == expected.shape and np.array_equal(out, expected)
    return check


def attention_check(r) -> bool:
    return r.output is None and r.time_s > 0


class Workload:
    name = ""
    loop = ""  # "closed" | "open"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def open(self):
        import repro

        return repro.open_engine(device="A100", max_workers=nproc())


class ModelForward(Workload):
    """Closed loop, one client: whole-model ``lra-classify`` forwards."""

    name = "model-forward"
    loop = "closed"
    warmup = 8
    pool = 16

    def __init__(self, seed: int) -> None:
        from repro import api

        super().__init__(seed)
        rng = np.random.default_rng([seed, 1])
        self.ids = [
            rng.integers(0, 16, size=(4, 128), dtype=np.int64)
            for _ in range(self.pool)
        ]
        self.order = rng.permutation(self.pool)
        # the oracle: one-shot forwards on the emulation backend
        self.expected = [
            api.run(self._request(ids, backend="magicube-emulation")).output
            for ids in self.ids
        ]

    @staticmethod
    def _request(ids, backend=None):
        from repro import api

        return api.TransformerRequest(
            mode="lra-classify", ids=ids, seq_len=128, num_layers=2,
            num_heads=2, mask_variant="strided", backend=backend,
        )

    def warm(self, client) -> None:
        client.prepare(self._request(None))
        for i in range(self.warmup):
            client.run(self._request(self.ids[i % self.pool]))

    def next_request(self, i: int):
        k = int(self.order[i % self.pool])
        expected = self.expected[k]

        def check(r) -> bool:
            out = np.asarray(r.output)
            return (
                out.dtype == expected.dtype
                and np.array_equal(out, expected)
                and r.request_time_s > 0
            )

        return self._request(self.ids[k]), check


class ClassChurn(Workload):
    """Closed loop, one client: every request is a new request class.

    Three in four requests carry a fresh pruned SpMM weight, the fourth
    a fresh SDDMM mask (a fixed interleave, so every run has the same
    share). Each op walks a seeded permutation of a shape x sparsity
    grid whose plan keys are all distinct, so every request misses the
    plan cache and is converted from dense on first contact. The client
    is replaced every ``rotate`` requests (outside the timed region) so
    memory held by its never-evicted sessions stays bounded.
    """

    name = "class-churn"
    loop = "closed"
    rotate = 32
    shapes = ((128, 256), (256, 256), (256, 512), (512, 256))
    #: 350 sparsities 0.600 .. 0.949; each realizes exactly (it is a
    #: whole number of blocks) and rounds to a distinct plan-key value
    sparsities = tuple(round(0.6 + 0.001 * j, 3) for j in range(350))
    inner = 64  # SpMM N / SDDMM K

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        grid = [(shape, s) for shape in self.shapes for s in self.sparsities]
        rng = np.random.default_rng([seed, 2])
        self.grid = {
            op: [grid[i] for i in rng.permutation(len(grid))]
            for op in ("spmm", "sddmm")
        }
        self.warm_requests = [
            self._request("spmm", shape, 0.95, rng)[0] for shape in self.shapes
        ] + [self._request("sddmm", self.shapes[1], 0.95, rng)[0]]

    def _make(self, op: str, j: int):
        grid = self.grid[op]
        shape, sparsity = grid[j % len(grid)]
        rng = np.random.default_rng(
            [self.seed, 3, ("spmm", "sddmm").index(op), j % len(grid)]
        )
        return self._request(op, shape, sparsity, rng)

    def _request(self, op: str, shape, sparsity: float, rng):
        from repro import api

        rows, cols = shape
        matrix, keep = pruned(rng, rows, cols, sparsity)
        if op == "spmm":
            rhs = int_operand(rng, (cols, self.inner))
            return (
                api.SpmmRequest(lhs=matrix, rhs=rhs),
                spmm_check(exact(matrix, rhs)),
            )
        a = int_operand(rng, (rows, self.inner))
        b = int_operand(rng, (self.inner, cols))
        return (
            api.SddmmRequest(mask=matrix, a=a, b=b),
            sddmm_check(np.where(keep, exact(a, b), 0)),
        )

    def warm(self, client) -> None:
        # the same classes every set-up (each opens a fresh engine), at
        # a sparsity outside the measured grid
        for request in self.warm_requests:
            client.run(request)

    def next_request(self, i: int):
        if i % 4 == 3:
            return self._make("sddmm", i // 4)
        return self._make("spmm", i - (i + 1) // 4)


class ServeMix(Workload):
    """Open loop: seeded Poisson arrivals over fixed prepared operands
    (SpMM 0.6 / SDDMM 0.25 / modelled attention 0.15)."""

    name = "serve-mix"
    loop = "open"
    rate_rps = 60.0
    mix = (("spmm", 0.6), ("sddmm", 0.25), ("attention", 0.15))
    variants = 8
    warmup = 4  # per request class
    bursts = 3  # rounds of 2..8 back-to-back SpMM requests

    def __init__(self, seed: int) -> None:
        from repro import api

        super().__init__(seed)
        rng = np.random.default_rng([seed, 4])
        self.weight, _ = pruned(rng, 256, 256, 0.9)
        self.mask, keep = pruned(rng, 256, 256, 0.95)
        self.spmm = []
        self.sddmm = []
        for _ in range(self.variants):
            rhs = int_operand(rng, (256, 64))
            self.spmm.append((
                api.SpmmRequest(lhs=self.weight, rhs=rhs, session="mix-spmm"),
                spmm_check(exact(self.weight, rhs)),
            ))
            a = int_operand(rng, (256, 32))
            b = int_operand(rng, (32, 256))
            self.sddmm.append((
                api.SddmmRequest(mask=self.mask, a=a, b=b, session="mix-sddmm"),
                sddmm_check(np.where(keep, exact(a, b), 0)),
            ))
        self.attention = (
            api.AttentionRequest(seq_len=128, num_layers=1, session="mix-attn"),
            attention_check,
        )

    def open(self):
        import repro
        from repro.serve.batcher import BatchPolicy

        return repro.open_engine(
            device="A100", max_workers=nproc(),
            policy=BatchPolicy(max_queue_depth=64),
        )

    def _pick(self, kind: str, variant: int):
        if kind == "spmm":
            return self.spmm[variant]
        if kind == "sddmm":
            return self.sddmm[variant]
        return self.attention

    def warm(self, client) -> None:
        for kind, _ in self.mix:
            for v in range(self.warmup):
                client.run(self._pick(kind, v)[0])
        # coalesced SpMM launches are planned per batch width: send
        # bursts so most widths are planned before timing starts
        for _ in range(self.bursts):
            for k in range(2, 9):
                futures = [client.submit(self.spmm[v][0]) for v in range(k)]
                for future in futures:
                    future.result(timeout=60)

    def schedule(self, seconds: float, phase: int):
        """Arrivals of a Poisson process at ``rate_rps`` conditioned on
        its count: ``n = rate * seconds`` offsets drawn uniformly over
        the window, and exactly the mix's share of each class."""
        rng = np.random.default_rng([self.seed, 5, phase])
        n = max(1, round(self.rate_rps * seconds))
        offsets = np.sort(rng.uniform(0.0, seconds, size=n))
        counts = [round(w * n) for _, w in self.mix[:-1]]
        counts.append(n - sum(counts))
        kinds = np.repeat([k for k, _ in self.mix], counts)
        kinds = rng.permutation(kinds)
        variants = rng.integers(0, self.variants, size=n)
        return [
            (float(t), *self._pick(str(k), int(v)))
            for t, k, v in zip(offsets, kinds, variants)
        ]


WORKLOADS = {w.name: w for w in (ModelForward, ServeMix, ClassChurn)}
