"""Engine serving of whole-model ``TransformerRequest``\\ s.

Covers the session layer (batched intake, coalesced forwards, per-plan
telemetry) and the golden end-to-end regression: a seeded lra-classify
forward through :func:`repro.api.open_engine` is byte-stable across
engines, runs, and serving surfaces.
"""

import numpy as np
import pytest

import repro
from repro import api
from repro.errors import ConfigError
from repro.serve.telemetry import plan_traffic

SPEC = dict(seq_len=64, d_model=32, num_heads=2, num_layers=1)


def make_ids(batch=2, seed=3):
    return np.random.default_rng(seed).integers(0, 16, size=(batch, 64))


class TestTransformerSession:
    def test_lra_classify_round_trip(self):
        ids = make_ids()
        with api.open_engine() as client:
            r = client.run(api.TransformerRequest(ids=ids, **SPEC))
        assert r.output.shape == (2, 2)
        assert r.plan is not None
        assert r.time_s > 0
        assert np.isfinite(r.output).all()

    def test_batched_rows_split_exactly(self):
        """Coalesced rows come back split per request, bit-identical to
        one whole-batch forward."""
        ids = make_ids(batch=4)
        with api.open_engine() as client:
            whole = client.run(
                api.TransformerRequest(ids=ids, session="xf", **SPEC)
            )
            futures = [
                client.submit(api.TransformerRequest(
                    ids=ids[i : i + 1], session="xf", **SPEC
                ))
                for i in range(4)
            ]
            client.engine.flush()
            parts = [f.result() for f in futures]
        split = np.concatenate([p.output for p in parts])
        assert split.tobytes() == whole.output.tobytes()

    def test_rows_are_independent_of_batch_mates(self):
        """A row's logits are the same whether it runs alone or with
        others, so coalescing under load never changes an answer."""
        ids = make_ids(batch=4)
        whole = api.run(api.TransformerRequest(ids=ids, **SPEC))
        for i in range(4):
            alone = api.run(api.TransformerRequest(ids=ids[i : i + 1], **SPEC))
            assert alone.output.tobytes() == whole.output[i : i + 1].tobytes()

    def test_latency_modes(self):
        with api.open_engine() as client:
            prefill = client.run(
                api.TransformerRequest(mode="prefill", batch=2, **SPEC)
            )
            decode = client.run(
                api.TransformerRequest(mode="decode", batch=2, **SPEC)
            )
        assert prefill.output is None and decode.output is None
        assert prefill.time_s > decode.time_s > 0
        assert prefill.stats.total_s == prefill.time_s

    def test_telemetry_records_launches(self):
        """One forward books 2 * layers * heads * rows kernel launches
        against the session's plan key."""
        ids = make_ids()
        with api.open_engine() as client:
            client.run(api.TransformerRequest(ids=ids, session="xf", **SPEC))
            assert client.telemetry.summary("xf").requests == 1
            plans = plan_traffic(client.metrics.to_dict())
        assert any("s=0." in key for key in plans), plans

    def test_mode_validation(self):
        with pytest.raises(ConfigError, match="unknown transformer mode"):
            api.run(api.TransformerRequest(mode="train", **SPEC))

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError, match="unknown mask variant"):
            api.run(api.TransformerRequest(mask_variant="dense", **SPEC))

    def test_missing_ids_rejected(self):
        with pytest.raises(ConfigError, match="ids is required"):
            api.run(api.TransformerRequest(**SPEC))

    def test_non_magicube_backend_rejected(self):
        with pytest.raises(ConfigError, match="cannot serve it"):
            api.run(api.TransformerRequest(
                ids=make_ids(), backend="dense-cublas-sim", **SPEC
            ))

    def test_topology_mismatch_rejected(self):
        with api.open_engine() as client:
            client.run(api.TransformerRequest(
                ids=make_ids(), session="xf", **SPEC
            ))
            with pytest.raises(ConfigError, match="serves topology"):
                client.run(api.TransformerRequest(
                    ids=make_ids(), session="xf", mask_variant="banded",
                    **SPEC,
                ))


class TestGoldenLogits:
    """The golden end-to-end regression: seeded forwards are byte-stable
    across engine instances and runs — any numerics drift in the mask
    builders, quantizers or kernel pipeline shows up here first."""

    def run_once(self, **overrides):
        ids = make_ids(batch=2, seed=9)
        kwargs = {**SPEC, "mask_variant": "strided", **overrides}
        with api.open_engine() as client:
            return client.run(api.TransformerRequest(ids=ids, **kwargs))

    def test_byte_stable_across_engines(self):
        first = self.run_once()
        second = self.run_once()
        assert first.output.tobytes() == second.output.tobytes()
        assert first.plan.key == second.plan.key

    @pytest.mark.parametrize(
        "variant", ("local", "strided", "blocked-random", "global-local",
                    "banded"),
    )
    def test_byte_stable_per_variant(self, variant):
        a = self.run_once(mask_variant=variant)
        b = self.run_once(mask_variant=variant)
        assert a.output.tobytes() == b.output.tobytes()

    def test_one_shot_matches_engine(self):
        """api.run and the engine path resolve to identical logits."""
        ids = make_ids(batch=2, seed=9)
        one_shot = api.run(api.TransformerRequest(
            ids=ids, mask_variant="strided", **SPEC
        ))
        engine = self.run_once()
        assert one_shot.output.tobytes() == engine.output.tobytes()
