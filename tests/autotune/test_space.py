"""Sweep space: registry-driven enumeration, determinism, filters."""

import pytest

from repro.autotune.space import DEFAULT_SHAPES, SweepConfig, SweepPoint, enumerate_space
from repro.errors import SweepError
from repro.runtime import DEFAULT_BACKEND
from repro.serve.planner import ExecutionPlanner, Objective


class TestConfig:
    def test_round_trips_through_dict(self):
        config = SweepConfig(
            ops=("spmm", "sddmm"),
            shapes=((256, 512, 64),),
            vector_lengths=(2, 8),
            sparsities=(0.7, 0.9),
            backends=("magicube-emulation",),
            devices=("A100", "H100"),
            min_bits=((8, 8),),
        )
        assert SweepConfig.from_dict(config.to_dict()) == config

    def test_default_round_trip(self):
        assert SweepConfig.from_dict(SweepConfig().to_dict()) == SweepConfig()

    def test_objective_grid_mirrors_min_bits(self):
        config = SweepConfig(min_bits=((4, 4), (8, 8)))
        tokens = [o.token for o in config.objectives()]
        assert tokens == ["latency[L4-16,R4-16]", "latency[L8-16,R8-16]"]

    def test_accuracy_objective_carries_budget(self):
        config = SweepConfig(
            objective="accuracy", latency_budget_s=1e-5, min_bits=((4, 4),)
        )
        (obj,) = config.objectives()
        assert obj.kind == "accuracy"
        assert obj.latency_budget_s == 1e-5

    def test_bad_objective_rejected(self):
        with pytest.raises(SweepError):
            SweepConfig(objective="vibes")

    def test_bad_op_rejected(self):
        with pytest.raises(SweepError):
            SweepConfig(ops=("conv2d",))

    def test_empty_axis_rejected(self):
        with pytest.raises(SweepError):
            SweepConfig(shapes=())


class TestEnumeration:
    CONFIG = SweepConfig(devices=("A100",), min_bits=((8, 8),), backends=None)

    def test_default_sweeps_the_default_backend(self):
        points = enumerate_space(SweepConfig(devices=("A100",)))
        assert {p.backend for p in points} == {DEFAULT_BACKEND}

    def test_same_registry_same_ordered_grid(self):
        first = enumerate_space(self.CONFIG)
        second = enumerate_space(self.CONFIG)
        assert first == second
        assert len(first) > 0

    def test_backends_enumerate_in_priority_order(self):
        points = enumerate_space(self.CONFIG)
        per_shape = [p.backend for p in points if (p.rows, p.cols, p.inner) ==
                     DEFAULT_SHAPES[0]]
        # magicube-emulation has the best priority of the plannable set
        assert per_shape[0] == "magicube-emulation"
        assert per_shape.index("magicube-strict") == len(per_shape) - 1

    def test_registering_a_backend_grows_the_space(self, fake_backends):
        fast, _slow = fake_backends
        points = enumerate_space(self.CONFIG)
        assert any(p.backend == fast.name for p in points)

    def test_explicit_backend_list_restricts_and_orders(self):
        config = SweepConfig(
            devices=("A100",), min_bits=((8, 8),),
            backends=("magicube-strict", "magicube-emulation"),
        )
        backends = [p.backend for p in enumerate_space(config)]
        assert set(backends) == {"magicube-strict", "magicube-emulation"}
        assert backends[0] == "magicube-strict"  # config order, not priority

    def test_indivisible_vector_length_is_filtered(self):
        config = SweepConfig(
            devices=("A100",), shapes=((100, 512, 64),), vector_lengths=(8,),
            min_bits=((8, 8),),
        )
        with pytest.raises(SweepError):
            enumerate_space(config)

    def test_device_support_is_filtered(self):
        # V100 has no int8/int4 Tensor cores: no magicube cells there
        config = SweepConfig(
            devices=("V100",), backends=("magicube-emulation",),
            min_bits=((8, 8),),
        )
        with pytest.raises(SweepError):
            enumerate_space(config)


class TestPlanKeyContract:
    def test_point_key_matches_planner_key(self):
        """A SweepPoint predicts exactly the key the planner memoizes."""
        point = SweepPoint(
            op="spmm", rows=512, cols=512, inner=64, vector_length=8,
            sparsity=0.9, backend="magicube-emulation", device="A100",
            objective=Objective.latency(min_l_bits=8, min_r_bits=8),
        )
        planner = ExecutionPlanner(device="A100")
        plan = planner.plan_spmm(
            512, 512, 64, 8, 0.9, point.objective, backend=point.backend
        )
        assert plan.key == point.plan_key
