"""Package metadata for the Magicube (SC'22) reproduction library."""

import os
import re

from setuptools import find_packages, setup

_HERE = os.path.abspath(os.path.dirname(__file__))


def _read(*parts: str) -> str:
    path = os.path.join(_HERE, *parts)
    if not os.path.exists(path):
        return ""
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _version() -> str:
    match = re.search(
        r'^__version__ = "([^"]+)"', _read("src", "repro", "version.py"), re.M
    )
    if match is None:
        raise RuntimeError("cannot find __version__ in src/repro/version.py")
    return match.group(1)


setup(
    name="magicube-repro",
    version=_version(),
    description=(
        "Reproduction of 'Efficient Quantized Sparse Matrix Operations on "
        "Tensor Cores' (SC 2022) with a batched inference-serving layer"
    ),
    long_description=_read("README.md"),
    long_description_content_type="text/markdown",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    extras_require={"test": ["pytest", "pytest-benchmark"]},
    entry_points={
        "console_scripts": [
            # the single entry point: serve / autotune / bench / obs / fleet
            "repro=repro.cli:main",
        ]
    },
)
