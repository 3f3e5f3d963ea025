"""Smoke-run every example script (they are part of the public surface)."""

import runpy
import sys
import tempfile
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(monkeypatch, capsys, name, argv=()):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, monkeypatch, capsys):
        out = run_example(monkeypatch, capsys, "quickstart.py", ["CA", "NZ"])
        assert "Prevalence of non-local trackers" in out
        assert "Geolocation funnel" in out

    def test_run_gamma_volunteer(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        out = run_example(monkeypatch, capsys, "run_gamma_volunteer.py", ["LB"])
        assert "Volunteer vol-LB in Beirut, LB (linux," in out
        assert "Dataset: " in out
        assert "Normalised traceroute record" in out
        assert "(produced by 'traceroute' on linux)" in out
        assert "Full dataset written" in out
        assert (tmp_path / "gamma-LB-dataset.json").is_file()

    def test_audit(self, monkeypatch, capsys):
        out = run_example(monkeypatch, capsys, "audit_data_localization.py", ["QA"])
        assert "Data-localization audit: Qatar" in out
        assert "Evidence trail" in out
        assert "Bottom line" in out

    def test_browser_comparison(self, monkeypatch, capsys):
        out = run_example(monkeypatch, capsys, "browser_comparison.py", ["NZ"])
        assert "chrome" in out and "brave" in out
        assert "shields removed" in out

    def test_regulation_whatif(self, monkeypatch, capsys):
        out = run_example(monkeypatch, capsys, "regulation_whatif.py", ["QA", "1.0"])
        assert "Longitudinal effect" in out
        assert "reduction" in out

    @pytest.mark.slow
    def test_multidb_comparison(self, monkeypatch, capsys):
        out = run_example(monkeypatch, capsys, "multidb_comparison.py")
        assert "constraint pipeline (the paper)" in out
        assert "1.0000" in out
