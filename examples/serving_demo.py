"""Serving a pruned model through the typed v1 client.

Prepares a sparse FFN layer once, lets the cost-model-guided planner
pick the execution configuration for each request class, and pushes a
burst of typed requests through the micro-batcher. Every output is
exact; the latencies are the calibrated A100 model's.

Run:  python examples/serving_demo.py
"""

import numpy as np

import repro
from repro import SparseMatrix, api
from repro.dlmc import MatrixSpec, generate_matrix
from repro.serve import BatchPolicy, Objective

# --- 1. a pruned layer prepared once ------------------------------------
spec = MatrixSpec(model="transformer", rows=512, cols=512, sparsity=0.9, seed=7)
weights = generate_matrix(spec, vector_length=8, bits=8)
matrix = SparseMatrix.from_dense(weights, vector_length=8)

with repro.open_engine(
    policy=BatchPolicy(max_batch_size=8, max_wait_s=0.005)
) as client:
    session = client.prepare(
        api.SpmmRequest(lhs=matrix, session="ffn", objective=Objective.latency())
    )
    print(f"session ffn: {session.operand!r}, weights need "
          f"{session.weight_bits}-bit LHS")

    # --- 2. what did the planner decide for a (512, 128) RHS? ----------
    plan = session.plan_for(n=128, r_bits=8)
    print(f"plan: {plan.precision}, knobs {plan.config}, "
          f"predicted {plan.predicted_time_s * 1e6:.2f} us")

    # --- 3. a burst of same-shape requests coalesces into batches ------
    rng = np.random.default_rng(0)
    payloads = [rng.integers(-128, 128, size=(512, 128)) for _ in range(24)]
    futures = [
        client.submit(api.SpmmRequest(lhs=matrix, rhs=rhs, session="ffn"))
        for rhs in payloads
    ]
    client.flush()
    results = [f.result() for f in futures]

    # --- 4. outputs are exact, telemetry is aggregated ------------------
    for rhs, res in zip(payloads, results):
        expected = weights.astype(np.int64) @ rhs
        assert np.array_equal(res.output, expected)
    sizes = sorted({r.batch_size for r in results}, reverse=True)
    print(f"24 requests served exactly; batch sizes seen: {sizes}")
    print()
    print(client.report())
