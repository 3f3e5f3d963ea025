"""CLI entry point."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_country_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["volunteer", "XX"])

    def test_study_countries_validation(self):
        with pytest.raises(SystemExit):
            main(["study", "--countries", "CA,XX"])


class TestCommands:
    def test_volunteer_writes_dataset(self, tmp_path, capsys):
        out = tmp_path / "dataset.json"
        assert main(["volunteer", "LB", "--output", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "vol-LB" in captured
        payload = json.loads(out.read_text())
        assert payload["country"] == "LB"
        assert payload["websites"]

    def test_study_subset(self, capsys):
        assert main(["study", "--countries", "CA,NZ"]) == 0
        out = capsys.readouterr().out
        assert "CA" in out and "NZ" in out
        assert "funnel:" in out

    def test_audit(self, capsys):
        assert main(["audit", "NZ"]) == 0
        out = capsys.readouterr().out
        assert "New Zealand" in out
        assert "Destinations" in out


class TestExtensionCommands:
    def test_recruitment(self, capsys):
        assert main(["recruitment"]) == 0
        out = capsys.readouterr().out
        assert "22 volunteers covering 23 countries" in out
        assert "consent ledger consistent" in out

    def test_stability(self, capsys):
        assert main(["stability", "JO", "--visits", "2", "--limit", "10"]) == 0
        out = capsys.readouterr().out
        assert "Jaccard" in out

    def test_whatif_parser_validates_country(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["whatif", "XX"])


class TestReportCommand:
    def test_report_to_file(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        assert main(["report", "PK", "--output", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("# Tracker data-flow report: Pakistan (PK)")
        for heading in ("## Headline", "## Where the data goes", "## Who receives it",
                        "## Policy context", "## Measurement provenance"):
            assert heading in text
        # Pakistan's flows never reach India.
        assert "India (IN)" not in text

    def test_report_stdout(self, capsys):
        assert main(["report", "CA"]) == 0
        text = capsys.readouterr().out
        assert "Canada" in text
        assert "No verified cross-border tracker flows" in text


class TestFaultToleranceCLI:
    """--on-error / --inject-fault / --checkpoint-dir / --resume."""

    def test_skip_policy_exits_zero_with_manifest(self, tmp_path, capsys):
        journal = tmp_path / "skip.jsonl"
        assert main(["study", "--countries", "CA,NZ,RW", "--on-error", "skip",
                     "--inject-fault", "NZ", "--trace", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "Failed countries" in out
        assert "InjectedFaultError" in out
        assert '"ev": "country_failed"' in journal.read_text().replace('","', '", "') \
            or '"ev":"country_failed"' in journal.read_text()
        # The fault journal still validates and renders the failure story.
        assert main(["trace", str(journal), "--validate"]) == 0
        capsys.readouterr()
        assert main(["trace", str(journal)]) == 0
        assert "FAILED   NZ" in capsys.readouterr().out

    def test_retry_policy_recovers_transient_fault(self, capsys):
        assert main(["study", "--countries", "CA,NZ", "--on-error", "retry",
                     "--inject-fault", "NZ:1"]) == 0
        out = capsys.readouterr().out
        assert "Failed countries" not in out
        assert "NZ" in out  # the retried country completed normally

    def test_checkpoint_then_resume(self, tmp_path, capsys):
        checkpoint_dir = tmp_path / "ckpt"
        assert main(["study", "--countries", "CA,NZ",
                     "--checkpoint-dir", str(checkpoint_dir)]) == 0
        capsys.readouterr()
        # One pickled run per country; the run's metrics snapshot lands
        # next to them.
        assert sorted(p.name for p in checkpoint_dir.iterdir()) == [
            "CA.run.pkl", "NZ.run.pkl", "metrics.json",
        ]
        assert main(["study", "--countries", "CA,NZ,RW",
                     "--checkpoint-dir", str(checkpoint_dir), "--resume"]) == 0
        out = capsys.readouterr().out
        assert "RW" in out

    def test_resume_remeasures_leftover_columnar_checkpoint(self, tmp_path, capsys):
        # A ``.run.col`` file from an older version is neither loaded nor
        # an obstacle: the resume completes and re-measures that country.
        checkpoint_dir = tmp_path / "ckpt"
        checkpoint_dir.mkdir()
        (checkpoint_dir / "CA.run.col").write_bytes(b"CRUN\x03 old columnar frame")
        assert main(["study", "--countries", "CA",
                     "--checkpoint-dir", str(checkpoint_dir), "--resume"]) == 0
        assert "CA" in capsys.readouterr().out
        assert (checkpoint_dir / "CA.run.pkl").exists()

    @pytest.mark.parametrize("command,flag", [
        ("study", "--transport"),
        ("study", "--analysis-engine"),
        ("study", "--geoloc-engine"),
        ("study", "--exercise-parsers"),
        ("confidence", "--geoloc-engine"),
    ])
    def test_removed_engine_flags_are_rejected(self, command, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--countries", "CA", flag, "columnar"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(SystemExit, match="--resume requires --checkpoint-dir"):
            main(["study", "--countries", "CA", "--resume"])

    def test_bad_fault_spec_rejected(self):
        with pytest.raises(SystemExit, match="attempt bound"):
            main(["study", "--countries", "CA", "--inject-fault", "CA:0"])


class TestMetricsCommands:
    @pytest.fixture(scope="class")
    def snapshots(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("metrics")
        first, second = root / "run1.json", root / "run2.json"
        assert main(["study", "--countries", "CA,NZ", "--no-progress",
                     "--profile", "--metrics-out", str(first)]) == 0
        assert main(["study", "--countries", "CA,NZ", "--no-progress",
                     "--jobs", "2", "--backend", "thread",
                     "--metrics-out", str(second)]) == 0
        return first, second

    def test_study_announces_snapshot(self, snapshots, capsys):
        capsys.readouterr()
        assert main(["study", "--countries", "CA", "--no-progress",
                     "--metrics-out", str(snapshots[0].parent / "ann.json")]) == 0
        assert "metrics snapshot written to" in capsys.readouterr().out

    def test_validate(self, snapshots, capsys):
        assert main(["metrics", "validate", str(snapshots[0])]) == 0
        assert "snapshot OK" in capsys.readouterr().out

    def test_validate_rejects_corrupt(self, snapshots, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": 1, "kind": "other"}')
        assert main(["metrics", "validate", str(bad)]) == 1
        assert "SCHEMA:" in capsys.readouterr().out

    def test_show(self, snapshots, capsys):
        assert main(["metrics", "show", str(snapshots[0])]) == 0
        out = capsys.readouterr().out
        assert "study_sites_total" in out
        assert "resources (per country):" in out
        assert "cache_delta_operations_total" not in out  # runtime hidden

    def test_show_runtime(self, snapshots, capsys):
        assert main(["metrics", "show", str(snapshots[0]), "--runtime"]) == 0
        assert "cache_delta_operations_total" in capsys.readouterr().out

    def test_diff_same_study_reports_zero_regressions(self, snapshots, capsys):
        first, second = snapshots
        assert main(["metrics", "diff", str(first), str(second)]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_diff_flags_drift(self, snapshots, tmp_path, capsys):
        drifted = tmp_path / "drifted.json"
        payload = json.loads(snapshots[0].read_text())
        series = payload["metrics"]["families"]["study_sites_total"]["series"]
        series[0]["value"] += 1
        drifted.write_text(json.dumps(payload))
        assert main(["metrics", "diff", str(snapshots[0]), str(drifted)]) == 1
        out = capsys.readouterr().out
        assert "drift" in out and "regression(s)" in out

    def test_baseline_roundtrip(self, snapshots, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert main(["metrics", "baseline", str(snapshots[0]),
                     "--output", str(baseline)]) == 0
        capsys.readouterr()
        assert main(["metrics", "check", str(baseline),
                     "--snapshot", str(snapshots[1])]) == 0
        assert "baseline check(s) passed" in capsys.readouterr().out

    def test_check_report_only_never_fails(self, snapshots, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        bench = tmp_path / "BENCH_x.json"
        bench.write_text('{"speedup": 10.0}')
        assert main(["metrics", "baseline", "--bench", str(bench),
                     "--output", str(baseline)]) == 0
        bench.write_text('{"speedup": 0.1}')  # collapse below the floor
        capsys.readouterr()
        assert main(["metrics", "check", str(baseline),
                     "--bench", str(bench)]) == 1
        assert main(["metrics", "check", str(baseline),
                     "--bench", str(bench), "--report-only"]) == 0

    def test_prom_output(self, tmp_path, capsys):
        prom = tmp_path / "run.prom"
        assert main(["study", "--countries", "CA", "--no-progress",
                     "--metrics-out", str(prom)]) == 0
        from repro.obs.metrics import validate_exposition

        assert validate_exposition(prom.read_text()) == []


class TestCommittedMetricsBaseline:
    """The committed baseline against the CA,NZ,RW snapshot CI checks."""

    BASELINE = Path(__file__).resolve().parents[1] / "baselines" / "metrics-baseline.json"

    @pytest.fixture(scope="class")
    def snapshot(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("baseline") / "metrics.json"
        assert main(["study", "--countries", "CA,NZ,RW", "--no-progress",
                     "--backend", "process", "--jobs", "2",
                     "--metrics-out", str(path)]) == 0
        return path

    def test_check_passes(self, snapshot, capsys):
        capsys.readouterr()
        assert main(["metrics", "check", str(self.BASELINE),
                     "--snapshot", str(snapshot)]) == 0
        assert "[FAIL" not in capsys.readouterr().out

    def test_parent_snapshot_with_geoloc_engine_is_accepted(
        self, snapshot, tmp_path, capsys
    ):
        # Older snapshots recorded the constraint engine in meta/exec.
        payload = json.loads(snapshot.read_text())
        payload["meta"]["geoloc_engine"] = "columnar"
        payload["exec"]["geoloc_engine"] = "columnar"
        parent = tmp_path / "parent.json"
        parent.write_text(json.dumps(payload))
        assert main(["metrics", "validate", str(parent)]) == 0
        assert main(["metrics", "check", str(self.BASELINE),
                     "--snapshot", str(parent)]) == 0
        assert main(["metrics", "diff", str(parent), str(snapshot)]) == 0
        assert main(["metrics", "diff", str(snapshot), str(parent)]) == 0
        assert "no regressions (snapshots agree)" in capsys.readouterr().out
