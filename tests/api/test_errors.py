"""One exception family: every typed error is a ReproError."""

import pytest

import repro
from repro import errors


def _error_classes():
    return [
        obj
        for obj in vars(errors).values()
        if isinstance(obj, type) and issubclass(obj, Exception)
    ]


class TestFamily:
    def test_every_error_is_a_repro_error(self):
        for cls in _error_classes():
            assert issubclass(cls, errors.ReproError), cls

    def test_catch_at_the_api_boundary(self, rng):
        from repro import api

        with pytest.raises(repro.ReproError):
            api.run(api.AttentionRequest(seq_len=128, batch=0))
        with pytest.raises(repro.ReproError):
            api.resolve(
                api.SpmmRequest(lhs=rng.integers(0, 2, size=(8, 8))),
                device="TPU-v9",
            )

    def test_compat_subclasses(self):
        assert issubclass(errors.PlanCacheError, ValueError)
        assert issubclass(errors.EngineClosedError, RuntimeError)

    def test_exported_from_repro(self):
        assert repro.ReproError is errors.ReproError
        assert repro.EngineClosedError is errors.EngineClosedError
