"""Backend registry: registration, ordering, resolution fallback."""

import pytest

from repro.errors import ConfigError
from repro.runtime import (
    DEFAULT_BACKEND,
    REGISTRY,
    Backend,
    BackendCapabilities,
    BackendRegistry,
    ExecutionResult,
    get_backend,
    list_backends,
    resolve_backend,
)
from repro.runtime.baselines import VectorSparseBackend
from repro.runtime.magicube import MagicubeEmulationBackend


class FakeBackend(Backend):
    name = "fake"
    priority = 5
    library_profile = "magicube"

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(ops=("spmm",), precisions=("int8",))

    def execute(self, op, device, config=None, **operands) -> ExecutionResult:
        raise NotImplementedError


class TestRegistration:
    def test_register_instance_and_get(self):
        reg = BackendRegistry()
        backend = FakeBackend()
        reg.register("fake", backend)
        assert reg.get("fake") is backend
        assert "fake" in reg

    def test_register_factory_instantiates_lazily(self):
        reg = BackendRegistry()
        reg.register("fake", FakeBackend)
        first = reg.get("fake")
        assert isinstance(first, FakeBackend)
        assert reg.get("fake") is first  # memoized

    def test_register_entry_point_string(self):
        reg = BackendRegistry()
        reg.register("mc", "repro.runtime.magicube:MagicubeEmulationBackend")
        assert reg.get("mc").library_profile == "magicube"

    def test_bad_entry_point_rejected(self):
        reg = BackendRegistry()
        reg.register("broken", "repro.runtime.magicube")  # no :Attr
        with pytest.raises(ConfigError):
            reg.get("broken")

    def test_duplicate_name_rejected(self):
        reg = BackendRegistry()
        reg.register("fake", FakeBackend)
        with pytest.raises(ConfigError):
            reg.register("fake", FakeBackend)

    def test_duplicate_name_with_replace(self):
        reg = BackendRegistry()
        reg.register("fake", FakeBackend)
        other = FakeBackend()
        reg.register("fake", other, replace=True)
        assert reg.get("fake") is other

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigError):
            BackendRegistry().get("nope")

    def test_unregister(self):
        reg = BackendRegistry()
        reg.register("fake", FakeBackend)
        reg.unregister("fake")
        assert "fake" not in reg
        with pytest.raises(ConfigError):
            reg.unregister("fake")

    def test_factory_must_produce_backend(self):
        reg = BackendRegistry()
        reg.register("bad", dict)
        with pytest.raises(ConfigError):
            reg.get("bad")


class TestGlobalRegistry:
    def test_builtins_present(self):
        names = list_backends()
        for expected in (
            "magicube-emulation",
            "magicube-strict",
            "vector-sparse",
            "cublas-fp16",
            "cublas-int8",
            "cusparselt",
            "cusparse-blocked-ell",
            "cusparse-csr",
            "sputnik",
        ):
            assert expected in names

    def test_priority_order_is_deterministic(self):
        order = [b.name for b in REGISTRY.backends()]
        assert order == [b.name for b in REGISTRY.backends()]
        assert order[0] == "magicube-emulation"
        assert order[-1] == "magicube-strict"
        # priorities are the sort key
        priorities = [b.priority for b in REGISTRY.backends()]
        assert priorities == sorted(priorities)


class TestResolution:
    def test_default_resolution_prefers_magicube(self):
        # the vectorized Magicube kernels are the default
        assert resolve_backend(op="spmm", device="A100").name == DEFAULT_BACKEND
        assert DEFAULT_BACKEND == "fastpath-vectorized"

    def test_default_backend_wins_over_priority_order(self):
        """The default is named, not the first in priority order: the
        emulation oracle still leads the fallback chain."""
        assert REGISTRY.backends()[0].name == "magicube-emulation"
        assert resolve_backend(op="spmm", device="A100").name == DEFAULT_BACKEND

    def test_chain_walks_priority_order_without_default(self):
        reg = BackendRegistry()
        reg.register("magicube-emulation", MagicubeEmulationBackend)
        reg.register("vector-sparse", VectorSparseBackend)
        assert reg.resolve(op="spmm", device="A100").name == "magicube-emulation"
        assert reg.resolve(op="spmm", device="V100").name == "vector-sparse"

    def test_fallback_when_backend_rejects_precision(self):
        """V100 has no integer Tensor cores: every Magicube pair is
        rejected and resolution falls through to the fp16 chain."""
        assert resolve_backend(op="spmm", device="V100").name == "vector-sparse"
        assert (
            resolve_backend(op="spmm", device="V100", precision="fp16").name
            == "vector-sparse"
        )

    def test_pair_precision_routes_to_magicube(self):
        be = resolve_backend(op="spmm", device="A100", precision="L16-R4")
        assert be.name == DEFAULT_BACKEND

    def test_unsupported_combination_raises(self):
        with pytest.raises(ConfigError):
            resolve_backend(op="spmm", device="H100", precision="L4-R4")

    def test_pinned_backend_verified(self):
        with pytest.raises(ConfigError):
            resolve_backend("sputnik", op="sddmm", device="A100")
        assert resolve_backend("sputnik", op="spmm", device="A100").name == "sputnik"

    def test_sddmm_chain(self):
        # only magicube and vectorSparse implement SDDMM
        assert resolve_backend(op="sddmm", device="A100").name == DEFAULT_BACKEND
        assert resolve_backend(op="sddmm", device="V100").name == "vector-sparse"

    def test_admissible_ordering(self):
        names = [b.name for b in REGISTRY.admissible("spmm", "A100")]
        assert names.index("magicube-emulation") == 0
        assert names.index("vector-sparse") < names.index("cublas-fp16")

    def test_get_backend_global(self):
        assert get_backend("cusparselt").library_profile == "cusparselt"
