"""CLI entry point."""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
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


class TestColdStartReport:
    """``gamma study`` accounts for its own cold start in the
    ``execution:`` block: import, world build and table rendering, next
    to the fan-out ``wall``."""

    def test_phases_and_wall_cover_the_process(self):
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "study", "--countries", "CA", "--no-progress"],
            capture_output=True, text=True, env=env, check=True,
        )
        measured = time.perf_counter() - started
        block = done.stdout.split("\nexecution:", 1)[1].splitlines()[1:]
        wall = float(re.search(r"\bwall=([0-9.]+)s", done.stdout).group(1))
        phases = {}
        for line in block:
            if not line.startswith(" "):
                break
            name, _, rest = line.strip().partition(" ")
            if name in ("import", "build", "render"):
                phases[name] = float(rest.strip().rstrip("s"))
        assert sorted(phases) == ["build", "import", "render"]
        assert phases["import"] > 0 and phases["build"] > 0
        # Each printed number is rounded to 10 ms.
        reported = sum(phases.values()) + wall
        assert reported <= measured + 0.005 * 4
        assert reported >= 0.8 * measured, (phases, wall, measured)


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

    @pytest.mark.parametrize("adoption", ["0", "1.5", "-0.2"])
    def test_whatif_adoption_out_of_range_rejected(self, adoption, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["whatif", "RW", "--adoption", adoption])
        assert excinfo.value.code == 2
        assert "argument --adoption: must be in (0, 1]" in capsys.readouterr().err

    def test_stability_visits_below_one_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["stability", "RW", "--visits", "0"])
        assert excinfo.value.code == 2
        assert "argument --visits: must be >= 1" in capsys.readouterr().err

    def test_stability_reports_sites_measured_not_limit(self, scenario, capsys):
        assert main(["stability", "RW", "--visits", "1", "--limit", "1000"]) == 0
        sites = len(scenario.targets["RW"].all_sites)
        assert sites < 1000
        assert capsys.readouterr().out.startswith(f"RW over {sites} sites x 1 visits:")

    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_stability_limit_below_one_rejected(self, limit, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["stability", "RW", "--limit", limit])
        assert excinfo.value.code == 2
        assert "argument --limit: must be >= 1" in capsys.readouterr().err


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

    def test_fault_spec_lists_several_countries(self, capsys):
        assert main(["study", "--countries", "CA,NZ,RW", "--on-error", "skip",
                     "--inject-fault", "nz,RW"]) == 0
        out = capsys.readouterr().out
        failed = out[out.index("Failed countries"):]
        assert "NZ" in failed and "RW" in failed
        assert "CA" not in failed

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
        ("study", "--confidence"),
        ("study", "--profile-mem"),
        ("study", "--cache-stats"),
        ("study", "--max-retries"),
    ])
    def test_removed_engine_flags_are_rejected(self, command, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--countries", "CA", flag, "columnar"])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_confidence_subcommand_is_removed(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["confidence", "--countries", "CA"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'confidence'" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["baseline", "check"])
    def test_metrics_baseline_and_check_are_removed(self, subcommand, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["metrics", subcommand, "metrics.json"])
        assert excinfo.value.code == 2
        assert f"invalid choice: '{subcommand}'" in capsys.readouterr().err

    def test_thread_backend_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["study", "--countries", "CA", "--backend", "thread"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'thread'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["study", "figures", "export"])
    @pytest.mark.parametrize("jobs", ["2", "0"])
    def test_serial_backend_with_many_jobs_is_a_usage_error(
        self, command, jobs, capsys, tmp_path
    ):
        # It used to run one job and report jobs=1 in its execution line.
        argv = [command, "--backend", "serial", "--jobs", jobs]
        if command == "export":
            argv.insert(1, str(tmp_path / "out"))
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert capsys.readouterr().err == (
            f"gamma {command}: error: backend 'serial' runs one job, not jobs={jobs}\n"
        )
        assert not (tmp_path / "out").exists()

    def test_retry_policy_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["study", "--countries", "CA", "--on-error", "retry"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'retry'" in capsys.readouterr().err

    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(SystemExit, match="--resume requires --checkpoint-dir"):
            main(["study", "--countries", "CA", "--resume"])

    def test_bad_fault_spec_rejected(self):
        with pytest.raises(SystemExit, match="attempt bound"):
            main(["study", "--countries", "CA", "--inject-fault", "CA:0"])

    def test_attempt_bounded_fault_spec_rejected(self):
        with pytest.raises(SystemExit, match="takes no attempt bound"):
            main(["study", "--countries", "CA,NZ", "--inject-fault", "NZ:1"])

    def test_fault_on_unknown_country_rejected(self):
        with pytest.raises(SystemExit, match=r"unknown measurement countries: \['ZZ'\]"):
            main(["study", "--countries", "CA", "--inject-fault", "ZZ"])

    def test_fault_outside_the_study_rejected(self):
        # NZ is a measurement country, but this study never runs it: the
        # fault would inject nothing.
        with pytest.raises(
            SystemExit, match=r"--inject-fault names countries outside the study: \['NZ'\]"
        ):
            main(["study", "--countries", "CA", "--inject-fault", "NZ"])


class TestMetricsCommands:
    @pytest.fixture(scope="class")
    def snapshots(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("metrics")
        first, second = root / "run1.json", root / "run2.json"
        assert main(["study", "--countries", "CA,NZ", "--no-progress",
                     "--profile", "--metrics-out", str(first)]) == 0
        assert main(["study", "--countries", "CA,NZ", "--no-progress",
                     "--jobs", "2", "--backend", "process",
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

    def test_any_suffix_gets_the_json_document(self, tmp_path, capsys):
        path = tmp_path / "run.prom"
        assert main(["study", "--countries", "CA", "--no-progress",
                     "--metrics-out", str(path)]) == 0
        capsys.readouterr()
        assert main(["metrics", "validate", str(path)]) == 0
        assert "snapshot OK" in capsys.readouterr().out

    def test_validate_rejects_corrupt(self, snapshots, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": 1, "kind": "other"}')
        assert main(["metrics", "validate", str(bad)]) == 1
        assert "SCHEMA:" in capsys.readouterr().out

    def test_validate_rejects_schema_1_snapshot(self, snapshots, tmp_path, capsys):
        # Schema 1 registries could hold histogram families, as the
        # evidence-latency and phase-seconds families once were.
        payload = json.loads(snapshots[0].read_text())
        payload["metrics"]["schema"] = 1
        payload["metrics"]["families"]["geoloc_evidence_ms"] = {
            "type": "histogram", "unit": "ms", "buckets": [1.0, 2.0],
            "series": [{"labels": {"constraint": "source"},
                        "counts": [0, 1, 0], "sum": 1.5, "count": 1}],
        }
        old = tmp_path / "schema1.json"
        old.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["metrics", "validate", str(old)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "SCHEMA: schema must be 2",
            "SCHEMA: family 'geoloc_evidence_ms': bad type 'histogram'",
        ]

    def test_show_runtime_prints_phase_seconds_as_counter(self, snapshots, capsys):
        assert main(["metrics", "show", str(snapshots[0]), "--runtime"]) == 0
        lines = capsys.readouterr().out.splitlines()
        start = lines.index(
            "worker_phase_duration_seconds [counter] (runtime) — per-country phase wall time"
        )
        phases = [line.split("}")[0].strip() for line in lines[start + 1:start + 5]]
        assert phases == ["{phase=gamma", "{phase=geoloc", "{phase=join",
                          "{phase=source_traces"]

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

    def _corrupt(self, snapshots, tmp_path, family, value, name="bad.json"):
        payload = json.loads(snapshots[0].read_text())
        payload["metrics"]["families"][family]["series"][0]["value"] = value
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return path

    def test_show_rejects_family_without_type(self, tmp_path, capsys):
        bare = tmp_path / "bare.json"
        bare.write_text('{"families": {"x": {}}}')
        assert main(["metrics", "show", str(bare)]) == 1
        out = capsys.readouterr().out
        assert f"SCHEMA: {bare}: family 'x': bad type None" in out
        assert all(line.startswith("SCHEMA: ") for line in out.splitlines())

    def test_show_rejects_non_numeric_counter(self, snapshots, tmp_path, capsys):
        bad = self._corrupt(snapshots, tmp_path, "study_sites_total", "a")
        assert main(["metrics", "show", str(bad)]) == 1
        out = capsys.readouterr().out
        assert out == f"SCHEMA: {bad}: family 'study_sites_total': value must be numeric\n"

    def test_show_rejects_non_object_resources_entry(self, snapshots, tmp_path, capsys):
        payload = json.loads(snapshots[0].read_text())
        payload["resources"] = {"CA": 1}
        bad = tmp_path / "bad-resources.json"
        bad.write_text(json.dumps(payload))
        assert main(["metrics", "show", str(bad)]) == 1
        out = capsys.readouterr().out
        assert out == f"SCHEMA: {bad}: resources['CA'] must be an object\n"

    def test_diff_runtime_rejects_non_numeric_counters(self, snapshots, tmp_path, capsys):
        old = self._corrupt(snapshots, tmp_path, "exec_cpu_seconds_total", "a", "old.json")
        new = self._corrupt(snapshots, tmp_path, "exec_cpu_seconds_total", "b", "new.json")
        assert main(["metrics", "diff", "--runtime", str(old), str(new)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            f"SCHEMA: {path}: family 'exec_cpu_seconds_total': value must be numeric"
            for path in (old, new)
        ]

    def test_older_snapshot_with_exec_section_is_accepted(
        self, snapshots, tmp_path, capsys
    ):
        # Older snapshots restated the run's accounting in an "exec"
        # section and recorded the constraint engine in meta/exec.
        snapshot = snapshots[1]
        payload = json.loads(snapshot.read_text())
        assert sorted(payload) == ["kind", "meta", "metrics", "schema"]
        payload["meta"]["geoloc_engine"] = "columnar"
        payload["exec"] = {
            "backend": "process", "jobs": 2, "wall_seconds": 1.5,
            "caches": {"trackers.verdicts": {"hits": 3, "misses": 1}},
            "geoloc_engine": "columnar",
        }
        parent = tmp_path / "parent.json"
        parent.write_text(json.dumps(payload))
        assert main(["metrics", "validate", str(parent)]) == 0
        assert main(["metrics", "show", str(parent)]) == 0
        assert main(["metrics", "diff", str(parent), str(snapshot)]) == 0
        assert main(["metrics", "diff", str(snapshot), str(parent)]) == 0
        assert "no regressions (snapshots agree)" in capsys.readouterr().out


class TestUnreadableSnapshots:
    """``gamma metrics`` reports a file it cannot read in one line, exit 1."""

    @pytest.mark.parametrize("command,name,content,reason", [
        ("validate", "bad.json", "not json at all\n", "not valid JSON"),
        ("validate", "missing.prom", None, "No such file"),
        ("validate", "latin1.json", b'{"meta": "\xe9"}', "not UTF-8 text"),
        ("show", "run.prom", "# TYPE x counter\nx 1\n", "not valid JSON"),
        ("show", "list.json", "[1, 2]", "not a JSON object"),
        ("diff", "missing.json", None, "No such file"),
        ("diff", "run.prom", "x 1\n", "not valid JSON"),
    ])
    def test_one_line_and_exit_1(self, command, name, content, reason, tmp_path, capsys):
        path = tmp_path / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        elif content is not None:
            path.write_text(content)
        argv = ["metrics", command, str(path)]
        if command == "diff":
            readable = tmp_path / "old.json"
            readable.write_text("{}")
            argv = ["metrics", "diff", str(readable), str(path)]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert out.startswith(f"cannot read snapshot: {path}: ")
        assert reason in out
        assert len(out.splitlines()) == 1
