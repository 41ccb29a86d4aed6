"""Fleet packs: build, load, fingerprint, integrity verification."""

import pytest

from repro.autotune import ArtifactManifest, SweepConfig, run_sweep, write_artifact
from repro.errors import FleetError
from repro.fleet.pack import FleetPack, build_pack


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Two small swept plan-cache artifacts (with manifests)."""
    root = tmp_path_factory.mktemp("artifacts")
    paths = []
    for stem, shape in (("spmm-a", (64, 64, 32)), ("spmm-b", (64, 64, 64))):
        config = SweepConfig(
            ops=("spmm",),
            shapes=(shape,),
            vector_lengths=(8,),
            sparsities=(0.7,),
            devices=("A100",),
            backends=("magicube-emulation",),
            min_bits=((8, 8),),
        )
        report = run_sweep(config, warmup=0, repeats=1, prune_ratio=None)
        path = root / f"{stem}.json"
        write_artifact(path, report.cache, ArtifactManifest.for_report(report))
        paths.append(path)
    return paths


class TestBuild:
    def test_round_trip(self, artifacts, tmp_path):
        pack = build_pack(artifacts, tmp_path / "pack", version="v7")
        loaded = FleetPack.load(tmp_path / "pack")
        assert loaded.version == "v7"
        assert loaded.fingerprint == pack.fingerprint
        assert loaded.plan_count == pack.plan_count > 0
        assert [m.name for m in loaded.members] == ["spmm-a", "spmm-b"]
        assert loaded.verify() == []
        for p in loaded.plan_paths():
            assert p.exists()

    def test_fingerprint_is_content_addressed(self, artifacts, tmp_path):
        a = build_pack(artifacts, tmp_path / "a")
        b = build_pack(artifacts, tmp_path / "b")
        assert a.fingerprint == b.fingerprint  # same members, same identity

    def test_single_member_changes_fingerprint(self, artifacts, tmp_path):
        both = build_pack(artifacts, tmp_path / "both")
        one = build_pack(artifacts[:1], tmp_path / "one")
        assert both.fingerprint != one.fingerprint

    def test_duplicate_stems_rejected(self, artifacts, tmp_path):
        with pytest.raises(FleetError, match="duplicate"):
            build_pack([artifacts[0], artifacts[0]], tmp_path / "dup")

    def test_empty_build_rejected(self, tmp_path):
        with pytest.raises(FleetError, match="at least one"):
            build_pack([], tmp_path / "empty")

    def test_non_artifact_input_rejected(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("{not json")
        with pytest.raises(FleetError, match="cannot pack"):
            build_pack([bogus], tmp_path / "pack")


class TestIntegrity:
    def test_corrupt_member_is_named_by_verify(self, artifacts, tmp_path):
        build_pack(artifacts, tmp_path / "pack")
        victim = tmp_path / "pack" / "spmm-a.json"
        victim.write_text(victim.read_text() + "\n")
        problems = FleetPack.load(tmp_path / "pack").verify()
        assert len(problems) == 1
        assert "spmm-a" in problems[0] and "digest" in problems[0]

    def test_missing_member_is_named_by_verify(self, artifacts, tmp_path):
        build_pack(artifacts, tmp_path / "pack")
        (tmp_path / "pack" / "spmm-b.json").unlink()
        problems = FleetPack.load(tmp_path / "pack").verify()
        assert any("spmm-b" in p and "missing" in p for p in problems)

    def test_tampered_manifest_fingerprint_fails_load(self, artifacts, tmp_path):
        import json

        build_pack(artifacts, tmp_path / "pack")
        manifest = tmp_path / "pack" / "pack.json"
        doc = json.loads(manifest.read_text())
        doc["fingerprint"] = "0" * 12
        manifest.write_text(json.dumps(doc))
        with pytest.raises(FleetError, match="fingerprint mismatch"):
            FleetPack.load(tmp_path / "pack")

    def test_unsupported_schema_fails_load(self, artifacts, tmp_path):
        import json

        build_pack(artifacts, tmp_path / "pack")
        manifest = tmp_path / "pack" / "pack.json"
        doc = json.loads(manifest.read_text())
        doc["schema"] = 99
        manifest.write_text(json.dumps(doc))
        with pytest.raises(FleetError, match="schema"):
            FleetPack.load(tmp_path / "pack")


class TestCli:
    def test_build_then_check(self, artifacts, tmp_path, capsys):
        from repro.fleet.cli import main

        root = tmp_path / "pack"
        assert main([
            "pack", *map(str, artifacts), "--out", str(root), "--version", "v1",
        ]) == 0
        assert "packed 2 artifact(s)" in capsys.readouterr().out
        assert main(["pack", "--check", str(root)]) == 0
        victim = root / "spmm-a.json"
        victim.write_text(victim.read_text()[: len(victim.read_text()) // 2])
        assert main(["pack", "--check", str(root)]) == 1
        assert "spmm-a" in capsys.readouterr().err
