"""The serving path runs on NumPy alone: ``setup.py`` declares only
numpy, so no import on the default path may pull in scipy. Nor may a
first quantized forward pull in ``numpy.ma``, which NumPy imports on a
process's first ``np.unique`` (~15 ms inside the measured call)."""

import os
import subprocess
import sys
from pathlib import Path

import repro

SCRIPT = """
import sys
import numpy as np
import repro
from repro import api

client = repro.open_engine()
lhs = np.zeros((16, 32), dtype=np.int8)
lhs[:8, :4] = 3
response = client.run(api.SpmmRequest(lhs=lhs, rhs=np.ones((32, 8), dtype=np.int8)))
assert (response.output == lhs.astype(np.int64) @ np.ones((32, 8))).all()
client.close()
print(response.backend)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


FORWARD_SCRIPT = """
import sys
import numpy as np
from repro.transformer.attention import plan_pipeline
from repro.transformer.model import make_quantized_kwargs
from repro.transformer.serving import TransformerSpec, prepare_transformer

prepared = prepare_transformer(TransformerSpec(seq_len=128))
pipeline, _ = plan_pipeline(
    "fastpath-vectorized", (8, 8), 128, prepared.spec.d_head, 8,
    prepared.realized_sparsity,
)
quantized = make_quantized_kwargs(prepared.mask, 8, 8, kernels=pipeline)
ids = np.random.default_rng(0).integers(0, 16, size=(4, 128))
prepared.model.forward(ids, quantized=quantized)
print("numpy.ma" in sys.modules)
"""


def run_script(script: str) -> list[str]:
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=120, check=True,
    ).stdout.splitlines()


def test_default_serving_path_does_not_import_scipy():
    assert run_script(SCRIPT) == ["fastpath-vectorized", "[]"]


def test_first_fastpath_forward_does_not_import_numpy_ma():
    assert run_script(FORWARD_SCRIPT) == ["False"]
