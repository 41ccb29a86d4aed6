"""Planner: objective handling, search results, memoization."""

from dataclasses import fields

import pytest

from repro.errors import ConfigError
from repro.kernels.emulation import supported_pairs
from repro.kernels.sddmm import SDDMMConfig
from repro.kernels.spmm import SpMMConfig
from repro.runtime import DEFAULT_BACKEND
from repro.serve.cache import PlanCache
from repro.serve.planner import (
    BSN_CANDIDATES,
    ExecutionPlanner,
    Objective,
    Plan,
    PlanKey,
)


@pytest.fixture
def planner() -> ExecutionPlanner:
    return ExecutionPlanner(device="A100")


class TestPlansDescribeTheLaunch:
    """A plan is the launch the engine runs: its knobs are kernel-config
    fields and it is priced on the planner's device. The large shapes
    are bandwidth-bound ones where a contraction-dim split across
    devices would price lower than the one-device launch."""

    SHAPES = {
        "spmm": ((256, 512, 64, 8, 0.9), (8192, 8192, 128, 8, 0.7)),
        "sddmm": ((256, 512, 64, 8, 0.9), (8192, 8192, 1024, 8, 0.9)),
    }

    @pytest.mark.parametrize("op", ("spmm", "sddmm"))
    def test_every_pair_plans_a_kernel_config(self, op, planner):
        config_cls = SpMMConfig if op == "spmm" else SDDMMConfig
        knobs = {f.name for f in fields(config_cls)}
        plan_op = planner.plan_spmm if op == "spmm" else planner.plan_sddmm
        build = "spmm_config" if op == "spmm" else "sddmm_config"
        for shape in self.SHAPES[op]:
            for l_bits, r_bits in supported_pairs(op):
                plan = plan_op(*shape, Objective.fixed(l_bits, r_bits))
                assert set(plan.config) <= knobs, plan.config
                assert plan.device == planner.device
                cfg = getattr(plan, build)()
                assert (cfg.l_bits, cfg.r_bits) == (l_bits, r_bits)

    @pytest.mark.parametrize("op", ("spmm", "sddmm"))
    def test_every_plan_survives_serialization(self, op, planner):
        """Plan.from_dict refuses non-kernel knobs, and so must accept
        every plan the planner itself makes."""
        plan_op = planner.plan_spmm if op == "spmm" else planner.plan_sddmm
        for shape in self.SHAPES[op]:
            for l_bits, r_bits in supported_pairs(op):
                plan = plan_op(*shape, Objective.fixed(l_bits, r_bits))
                assert Plan.from_dict(plan.to_dict()) == plan

    def test_knob_of_the_other_op_is_refused(self, planner):
        """Knobs are checked against the plan's own op: an SpMM tile
        width on an SDDMM plan (or SDDMM warps on an SpMM plan) is not
        a launch of that kernel."""
        spmm = planner.plan_spmm(256, 512, 64, 8, 0.9).to_dict()
        sddmm = planner.plan_sddmm(256, 512, 64, 8, 0.9).to_dict()
        spmm["config"] = {"warps": 4}
        sddmm["config"] = {"bsn": 64}
        for d in (spmm, sddmm):
            with pytest.raises(ValueError, match="not .*Config fields"):
                Plan.from_dict(d)


class TestObjective:
    def test_latency_default_admits_everything(self):
        obj = Objective.latency()
        assert obj.admits(4, 4) and obj.admits(16, 16)

    def test_fixed_pins_one_pair(self):
        obj = Objective.fixed(8, 4)
        assert obj.admits(8, 4)
        assert not obj.admits(8, 8)
        assert not obj.admits(4, 4)

    def test_with_min_bits_tightens(self):
        obj = Objective.latency().with_min_bits(8, 8)
        assert not obj.admits(4, 4)
        assert obj.admits(8, 8)

    def test_empty_bounds_rejected(self):
        with pytest.raises(ConfigError):
            Objective(min_l_bits=16, max_l_bits=8)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            Objective(kind="speed")

    def test_token_distinguishes_objectives(self):
        assert Objective.latency().token != Objective.accuracy().token
        assert (
            Objective.accuracy(latency_budget_s=1e-3).token
            != Objective.accuracy().token
        )


class TestSpmmSearch:
    def test_latency_picks_lowest_precision(self, planner):
        # the Fig. 12 ladder: L4-R4 is the documented-best throughput
        # when the operands allow it
        plan = planner.plan_spmm(256, 512, 128, 8, 0.9, Objective.latency())
        assert plan.precision == "L4-R4"
        assert plan.predicted_time_s > 0
        assert plan.config["bsn"] in BSN_CANDIDATES

    def test_latency_respects_operand_widths(self, planner):
        obj = Objective.latency(min_l_bits=8, min_r_bits=8)
        plan = planner.plan_spmm(256, 512, 128, 8, 0.9, obj)
        assert plan.precision == "L8-R8"  # fastest pair covering int8

    def test_accuracy_picks_highest_fidelity(self, planner):
        plan = planner.plan_spmm(256, 512, 128, 8, 0.9, Objective.accuracy())
        assert plan.precision == "L16-R16"

    def test_accuracy_budget_degrades_gracefully(self, planner):
        fast = planner.plan_spmm(256, 512, 128, 8, 0.9, Objective.latency())
        # an impossible budget falls back to the fastest plan
        tight = planner.plan_spmm(
            256, 512, 128, 8, 0.9,
            Objective.accuracy(latency_budget_s=fast.predicted_time_s / 1e6),
        )
        assert tight.precision == fast.precision
        # a generous budget keeps full fidelity
        loose = planner.plan_spmm(
            256, 512, 128, 8, 0.9, Objective.accuracy(latency_budget_s=10.0)
        )
        assert loose.precision == "L16-R16"

    def test_accuracy_budget_middle_ground(self, planner):
        full = planner.plan_spmm(256, 512, 128, 8, 0.9, Objective.accuracy())
        budget = full.predicted_time_s * 0.9
        plan = planner.plan_spmm(
            256, 512, 128, 8, 0.9, Objective.accuracy(latency_budget_s=budget)
        )
        # highest-fidelity pair that still meets the budget
        assert plan.predicted_time_s <= budget
        assert plan.l_bits + plan.r_bits < 32

    def test_fixed_objective_only_tunes_knobs(self, planner):
        plan = planner.plan_spmm(256, 512, 64, 8, 0.8, Objective.fixed(16, 8))
        assert plan.precision == "L16-R8"
        assert set(plan.config) == {"bsn"}

    def test_infeasible_objective_raises(self, planner):
        with pytest.raises(ConfigError):
            # no Table-IV spmm pair has l_bits < r_bits
            planner.plan_spmm(
                256, 512, 64, 8, 0.8,
                Objective(min_l_bits=4, max_l_bits=4, min_r_bits=8),
            )

    def test_stride_follows_precision(self, planner):
        int8 = planner.plan_spmm(256, 512, 64, 8, 0.8, Objective.fixed(8, 8))
        int4 = planner.plan_spmm(256, 512, 64, 8, 0.8, Objective.fixed(4, 4))
        assert int8.stride == 16  # int8 MMA k dim
        assert int4.stride == 32  # int4 MMA k dim


class TestSddmmSearch:
    def test_latency_picks_lowest_precision(self, planner):
        plan = planner.plan_sddmm(512, 512, 64, 8, 0.9, Objective.latency())
        assert plan.precision == "L4-R4"
        assert "warps" in plan.config

    def test_fixed_scheme(self, planner):
        plan = planner.plan_sddmm(512, 512, 64, 8, 0.9, Objective.fixed(8, 8))
        assert plan.precision == "L8-R8"
        assert plan.predicted_time_s > 0


class TestMemoization:
    def test_repeat_query_hits_cache(self, planner):
        args = (256, 512, 128, 8, 0.9, Objective.latency())
        first = planner.plan_spmm(*args)
        assert planner.cache.misses == 1
        second = planner.plan_spmm(*args)
        assert second is first
        assert planner.cache.hits == 1

    def test_different_shapes_get_different_keys(self, planner):
        planner.plan_spmm(256, 512, 64, 8, 0.9)
        planner.plan_spmm(256, 512, 128, 8, 0.9)
        assert len(planner.cache) == 2

    def test_sparsity_bucketing(self, planner):
        planner.plan_spmm(256, 512, 64, 8, 0.90001)
        planner.plan_spmm(256, 512, 64, 8, 0.90049)
        assert len(planner.cache) == 1  # same 3-decimal bucket

    def test_shared_cache_across_planners(self):
        cache = PlanCache()
        a = ExecutionPlanner(device="A100", cache=cache)
        b = ExecutionPlanner(device="A100", cache=cache)
        a.plan_spmm(256, 512, 64, 8, 0.9)
        b.plan_spmm(256, 512, 64, 8, 0.9)
        assert cache.hits == 1 and cache.misses == 1

    def test_fresh_class_reuses_conflict_model(self, planner, monkeypatch):
        """The Fig. 4 conflict degree depends only on the staged row
        width and padding, so a second fresh SpMM class is priced from
        integer arithmetic alone."""
        import repro.kernels.spmm as spmm_mod

        planner.plan_spmm(256, 512, 128, 8, 0.9, Objective.latency())
        calls = []
        real = spmm_mod.conflict_degree

        def counting(addrs):
            calls.append(addrs)
            return real(addrs)

        monkeypatch.setattr(spmm_mod, "conflict_degree", counting)
        plan = planner.plan_spmm(128, 256, 64, 8, 0.731, Objective.latency())
        assert planner.cache.misses == 2
        assert plan.predicted_time_s > 0
        assert calls == []


class TestPlanObject:
    def test_dict_round_trip(self, planner):
        plan = planner.plan_spmm(256, 512, 64, 8, 0.9)
        clone = Plan.from_dict(plan.to_dict())
        assert clone.precision == plan.precision
        assert clone.config == plan.config
        assert clone.predicted_time_s == plan.predicted_time_s
        assert clone.key == plan.key

    def test_config_builders_check_op(self, planner):
        spmm_plan = planner.plan_spmm(256, 512, 64, 8, 0.9)
        with pytest.raises(ConfigError):
            spmm_plan.sddmm_config()
        cfg = spmm_plan.spmm_config(l_signed=False)
        assert cfg.l_bits == spmm_plan.l_bits and not cfg.l_signed

    def test_key_string_is_stable(self):
        key = PlanKey(
            "spmm", 256, 512, 64, 8, 0.9,
            "magicube-emulation", "A100", "latency[L4-16,R4-16]",
        )
        assert str(key) == str(key)
        assert "spmm|256x512" in str(key)
        assert "magicube-emulation@A100" in str(key)

    def test_key_round_trips_through_parse(self):
        key = PlanKey(
            "sddmm", 512, 512, 64, 8, 0.9,
            "magicube-emulation", "A100+H100", "latency[L4-16,R4-16]",
        )
        assert PlanKey.parse(str(key)) == key

    def test_parse_rejects_v1_keys(self):
        # pre-runtime keys lack the backend@device segment
        with pytest.raises(ValueError):
            PlanKey.parse("spmm|256x512|n=64|v=8|s=0.900|A100|latency[L4-16,R4-16]")


class TestCrossDeviceSearch:
    """The runtime refactor's acceptance surface: (backend, device) keys."""

    def test_plan_key_carries_backend_and_device(self, planner):
        plan = planner.plan_spmm(256, 512, 128, 8, 0.9)
        key = PlanKey.parse(plan.key)
        assert key.backend == DEFAULT_BACKEND
        assert key.device == "A100"
        assert plan.backend == DEFAULT_BACKEND
        assert plan.device == "A100"

    def test_same_workload_differs_between_a100_and_h100(self):
        """Latency planning on A100 vs H100 picks different configs:
        H100 lacks int4 Tensor cores, so the L4-R4 winner is
        inadmissible there."""
        args = (256, 512, 128, 8, 0.9, Objective.latency())
        a100 = ExecutionPlanner(device="A100").plan_spmm(*args)
        h100 = ExecutionPlanner(device="H100").plan_spmm(*args)
        assert a100.precision == "L4-R4"
        assert h100.precision != a100.precision
        assert h100.l_bits >= 8  # no int4 path on H100
        assert a100.device == "A100" and h100.device == "H100"
        assert a100.key != h100.key

    def test_pinned_backend_appears_in_plan(self, planner):
        plan = planner.plan_spmm(
            256, 512, 128, 8, 0.9, backend="magicube-strict"
        )
        assert plan.backend == "magicube-strict"
        assert "magicube-strict@A100" in plan.key

    def test_cross_backend_search_keeps_fallback_order(self):
        """An explicit multi-backend search stays deterministic and the
        magicube kernels win the latency objective at high sparsity."""
        planner = ExecutionPlanner(
            device="A100",
            backends=("magicube-emulation", "vector-sparse", "cublas-fp16"),
        )
        plan = planner.plan_spmm(256, 512, 128, 8, 0.95)
        assert plan.backend == "magicube-emulation"
        key = PlanKey.parse(plan.key)
        assert key.backend == "magicube-emulation+vector-sparse+cublas-fp16"

    def test_dense_cublas_wins_at_low_sparsity(self):
        """The paper's dense/sparse crossover at equal (fp16) precision:
        dense GEMM wins at low sparsity, the sparse kernel at high, and
        the cross-backend search finds the boundary per shape."""
        planner = ExecutionPlanner(
            device="A100",
            backends=("vector-sparse", "cublas-fp16"),
        )
        dense_wins = planner.plan_spmm(1024, 2048, 256, 8, 0.3)
        sparse_wins = planner.plan_spmm(1024, 2048, 256, 8, 0.95)
        assert dense_wins.backend == "cublas-fp16"
        assert sparse_wins.backend == "vector-sparse"

    def test_unknown_device_raises_typed_error(self):
        from repro.errors import DeviceError

        with pytest.raises(DeviceError):
            ExecutionPlanner(device="B200")

    def test_non_magicube_plan_rejects_kernel_config(self):
        planner = ExecutionPlanner(device="A100", backends=("cublas-fp16",))
        plan = planner.plan_spmm(256, 512, 64, 8, 0.5)
        assert plan.precision == "fp16"
        with pytest.raises(ConfigError):
            plan.spmm_config()


class TestObjectiveParse:
    @pytest.mark.parametrize("obj", [
        Objective.latency(),
        Objective.latency(min_l_bits=8, min_r_bits=8),
        Objective.fixed(8, 4),
        Objective.accuracy(),
        Objective.accuracy(latency_budget_s=1e-3),
        Objective.accuracy(latency_budget_s=2.5e-6, min_l_bits=8),
    ])
    def test_round_trips_through_token(self, obj):
        assert Objective.parse(obj.token) == obj

    def test_round_trips_through_plan_key(self):
        """The scheduler's path: key string -> PlanKey -> Objective."""
        obj = Objective.latency(min_l_bits=8, min_r_bits=8)
        key = PlanKey(
            op="spmm", rows=512, cols=512, inner=64, vector_length=8,
            sparsity=0.9, backend="magicube-emulation", device="A100",
            objective=obj.token,
        )
        parsed = PlanKey.parse(str(key))
        assert Objective.parse(parsed.objective) == obj

    @pytest.mark.parametrize("bad", [
        "", "latency", "latency[L8-16]", "speed[L8-16,R8-16]",
        "latency[Lx-16,R8-16]", "latency[L8-16,R8-16",
    ])
    def test_malformed_tokens_raise(self, bad):
        with pytest.raises(ValueError):
            Objective.parse(bad)
