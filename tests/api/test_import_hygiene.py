"""The serving path runs on NumPy alone: ``setup.py`` declares only
numpy, so no import on the default path may pull in scipy."""

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


def test_default_serving_path_does_not_import_scipy():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True,
        text=True, timeout=120, check=True,
    ).stdout.splitlines()
    assert out == ["fastpath-vectorized", "[]"]
