"""repro-autotune CLI: sweep / export / verify / diff."""

import json

from repro.autotune.cli import main


def run_sweep_cli(tmp_path, *extra):
    out = tmp_path / "plans.json"
    rc = main([
        "sweep", "--device", "A100", "--shape", "512x512x64",
        "--backend", "magicube-emulation", "--min-bits", "8x8",
        "--warmup", "0", "--repeats", "1", "--quiet",
        "--out", str(out), *extra,
    ])
    return rc, out


class TestSweep:
    def test_writes_artifact_pair(self, tmp_path, capsys):
        rc, out = run_sweep_cli(tmp_path)
        assert rc == 0
        assert out.exists()
        manifest = tmp_path / "plans.manifest.json"
        assert manifest.exists()
        payload = json.loads(out.read_text())
        assert payload["version"] == 2 and payload["plans"]
        m = json.loads(manifest.read_text())
        assert m["backends"] and m["devices"] and m["plans"] >= 1

    def test_json_summary(self, tmp_path, capsys):
        out = tmp_path / "plans.json"
        rc = main([
            "sweep", "--device", "A100", "--shape", "512x512x64",
            "--backend", "magicube-emulation", "--min-bits", "8x8",
            "--warmup", "0", "--repeats", "1", "--json", "--out", str(out),
        ])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["measured"] == 1
        assert summary["artifact"] == str(out)

    def test_bad_device_is_a_clean_error(self, tmp_path, capsys):
        rc = main([
            "sweep", "--device", "TPU9000", "--quiet",
            "--out", str(tmp_path / "p.json"),
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestVerify:
    def test_fresh_artifact_verifies(self, tmp_path, capsys):
        _, out = run_sweep_cli(tmp_path)
        assert main(["verify", str(out)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_registry_mismatch_is_flagged(self, tmp_path, capsys):
        """The ISSUE acceptance gate: verify flags manifest drift."""
        _, out = run_sweep_cli(tmp_path)
        mpath = tmp_path / "plans.manifest.json"
        payload = json.loads(mpath.read_text())
        payload["backends"]["magicube-emulation"] = "deadbeefcafe"
        mpath.write_text(json.dumps(payload))
        assert main(["verify", str(out)]) == 1
        assert "DRIFT" in capsys.readouterr().out

    def test_missing_manifest_fails_verification(self, tmp_path, capsys):
        _, out = run_sweep_cli(tmp_path)
        (tmp_path / "plans.manifest.json").unlink()
        assert main(["verify", str(out)]) == 1


class TestExportAndDiff:
    def test_export_wraps_a_bare_cache(self, tmp_path, capsys):
        _, out = run_sweep_cli(tmp_path)
        exported = tmp_path / "shipped.json"
        assert main(["export", str(out), "--out", str(exported)]) == 0
        assert exported.exists()
        assert (tmp_path / "shipped.manifest.json").exists()
        assert main(["verify", str(exported)]) == 0

    def test_diff_identical(self, tmp_path, capsys):
        _, out = run_sweep_cli(tmp_path)
        assert main(["diff", str(out), str(out)]) == 0
        assert "identical" in capsys.readouterr().out

    def test_diff_reports_added_plans(self, tmp_path, capsys):
        _, small = run_sweep_cli(tmp_path)
        big_dir = tmp_path / "big"
        big_dir.mkdir()
        rc = main([
            "sweep", "--device", "A100", "--shape", "512x512x64",
            "--shape", "512x512x128", "--backend", "magicube-emulation",
            "--min-bits", "8x8", "--warmup", "0", "--repeats", "1",
            "--quiet", "--out", str(big_dir / "plans.json"),
        ])
        assert rc == 0
        assert main(["diff", str(small), str(big_dir / "plans.json")]) == 1
        out = capsys.readouterr().out
        assert "added" in out and "1 added" in out


class TestWatch:
    def export_snapshot(self, tmp_path, widths=(64,)):
        import numpy as np

        from repro import api
        from tests.conftest import make_structured_sparse

        rng = np.random.default_rng(0)
        weights = make_structured_sparse(rng, 512, 512, 8, 0.9, bits=8)
        path = tmp_path / "telemetry.json"
        with api.open_engine(device="A100") as client:
            for n in widths:
                client.run(api.SpmmRequest(
                    lhs=weights, rhs=rng.integers(-128, 128, size=(512, n)),
                    session="ffn",
                ))
            client.telemetry.snapshot().save(path)
        return path

    def test_watch_ships_a_retuned_artifact(self, tmp_path, capsys):
        snapshot = self.export_snapshot(tmp_path)
        out = tmp_path / "retuned" / "plans.json"
        rc = main(["watch", str(snapshot), "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "cold-miss" in text
        assert out.exists()
        manifest = json.loads(
            (tmp_path / "retuned" / "plans.manifest.json").read_text()
        )
        assert manifest["sweep"]["source"] == "retune-watch"
        assert manifest["sweep"]["retune"]["snapshot"]
        assert manifest["plans"] >= 1
        # the shipped artifact passes its own drift check
        assert main(["verify", str(out)]) == 0

    def test_watch_with_warm_baseline_is_quiet(self, tmp_path, capsys):
        # two request classes: neither reaches a 100% hot share, so
        # only the cold-miss trigger is in play
        snapshot = self.export_snapshot(tmp_path, widths=(64, 128))
        out1 = tmp_path / "first" / "plans.json"
        assert main(["watch", str(snapshot), "--out", str(out1),
                     "--hot-share", "1.0"]) == 0
        capsys.readouterr()
        # second run: the first artifact is the baseline, nothing is cold
        out2 = tmp_path / "second" / "plans.json"
        rc = main(["watch", str(snapshot), "--plans", str(out1),
                   "--out", str(out2), "--hot-share", "1.0"])
        assert rc == 0
        assert "nothing to re-tune" in capsys.readouterr().out
        assert not out2.exists()

    def test_watch_json_cycle_record(self, tmp_path, capsys):
        snapshot = self.export_snapshot(tmp_path)
        out = tmp_path / "retuned" / "plans.json"
        rc = main(["watch", str(snapshot), "--out", str(out), "--json"])
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        assert record["promoted"] >= 1
        assert record["snapshot"]
        assert record["artifact"] == str(out)

    def test_missing_snapshot_is_a_clean_error(self, tmp_path, capsys):
        rc = main(["watch", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "out.json")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_multi_cycle_watch_cools_down_hot_keys(self, tmp_path, capsys):
        """Polling an unchanged snapshot must not re-sweep the same hot
        key on every cycle — the cooldown carries across cycles."""
        snapshot = self.export_snapshot(tmp_path)  # one key, 100% share
        out = tmp_path / "retuned" / "plans.json"
        rc = main(["watch", str(snapshot), "--out", str(out),
                   "--cycles", "2", "--interval", "0"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "cycle 1" in text and "cycle 2" in text
        assert text.count("plan(s) shipped") == 1
        assert "cycle 2: snapshot" in text and "nothing to re-tune" in text
