"""``collector_paused``: the cyclic collector is off inside bulk loads and
back in the caller's state after them.

The pause is only free if the paused writers and loaders create no
reference cycles: otherwise the pass it skips would have reclaimed
something, and the garbage would wait for the next one.
``TestNoCyclesToDefer`` pins that premise on a real export and bundle,
and on an unpickled country run (which is not paused yet, but would
need the same premise to be).
"""

from __future__ import annotations

import gc
import json
import pickle
import shutil

import pytest

from repro import StudyConfig, export_study, run_study
from repro.artifacts import _verdicts_payload, load_datasets, load_geolocations
from repro.exec.worker import StudyWorker
from repro.gcpause import collector_paused


@pytest.fixture()
def collector_off():
    """Run the test with the collector disabled, and re-enable it after."""
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.fixture(scope="module")
def bundle(scenario, tmp_path_factory):
    outcome = run_study(scenario, countries=["CA", "NZ", "RW"])
    directory = tmp_path_factory.mktemp("bundle")
    export_study(outcome, directory)
    return directory


@pytest.fixture(scope="module")
def country_run(scenario):
    return StudyWorker(scenario, StudyConfig())("CA")


class TestCollectorPaused:
    def test_enabled_collector_is_re_enabled(self):
        assert gc.isenabled()
        with collector_paused():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_disabled_collector_stays_disabled(self, collector_off):
        with collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()

    def test_restored_when_the_block_raises(self):
        with pytest.raises(RuntimeError):
            with collector_paused():
                raise RuntimeError("boom")
        assert gc.isenabled()

    def test_nested_blocks_restore_the_outer_state(self):
        with collector_paused():
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()


class TestLoadersPause:
    def test_datasets_are_built_with_the_collector_off(self, bundle, monkeypatch):
        from repro.core.gamma.output import VolunteerDataset

        seen = []
        from_json = VolunteerDataset.from_json

        def watched(text):
            seen.append(gc.isenabled())
            return from_json(text)

        monkeypatch.setattr(VolunteerDataset, "from_json", staticmethod(watched))
        datasets = load_datasets(bundle)
        assert sorted(datasets) == ["CA", "NZ", "RW"]
        assert seen == [False, False, False]
        assert gc.isenabled()

    def test_geolocations_are_built_with_the_collector_off(self, bundle, scenario):
        seen = []

        class WatchedRegistry:
            def city(self, key):
                seen.append(gc.isenabled())
                return scenario.world.geo.city(key)

        geolocations = load_geolocations(bundle, WatchedRegistry())
        assert sorted(geolocations) == ["CA", "NZ", "RW"]
        assert seen and not any(seen)
        assert gc.isenabled()

    def test_collector_restored_when_a_dataset_is_truncated(self, bundle, tmp_path):
        damaged = tmp_path / "bundle"
        shutil.copytree(bundle, damaged)
        path = damaged / "datasets" / "NZ.json"
        text = path.read_text(encoding="utf-8")
        path.write_text(text[: len(text) // 2], encoding="utf-8")
        assert gc.isenabled()
        with pytest.raises(ValueError):
            load_datasets(damaged)
        assert gc.isenabled()


class TestExportPauses:
    def test_datasets_are_serialised_with_the_collector_off(
        self, scenario, tmp_path, monkeypatch
    ):
        from repro.core.gamma.output import VolunteerDataset

        outcome = run_study(scenario, countries=["NZ", "RW"])
        seen = []
        to_json = VolunteerDataset.to_json

        def watched(self):
            seen.append(gc.isenabled())
            return to_json(self)

        monkeypatch.setattr(VolunteerDataset, "to_json", watched)
        export_study(outcome, tmp_path / "bundle")
        assert seen == [False, False]
        assert gc.isenabled()


class TestNoCyclesToDefer:
    def test_dataset_and_verdict_writers_leave_no_cyclic_garbage(
        self, scenario, collector_off
    ):
        outcome = run_study(scenario, countries=["NZ", "RW"])
        gc.collect()
        for cc, dataset in outcome.datasets.items():
            assert dataset.to_json()
            assert json.dumps(_verdicts_payload(outcome, cc))
        assert gc.collect() == 0

    def test_bundle_load_leaves_no_cyclic_garbage(self, bundle, scenario, collector_off):
        gc.collect()
        datasets = load_datasets(bundle)
        geolocations = load_geolocations(bundle, scenario.world.geo)
        assert gc.collect() == 0
        assert sorted(datasets) == sorted(geolocations) == ["CA", "NZ", "RW"]

    def test_country_run_unpickles_without_cyclic_garbage(self, country_run, collector_off):
        payload = pickle.dumps(country_run, protocol=5)
        gc.collect()
        loaded = pickle.loads(payload)
        assert gc.collect() == 0
        assert loaded.country_code == "CA"
