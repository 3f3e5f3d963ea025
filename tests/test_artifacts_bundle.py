"""The artefact bundle's file contract.

Datasets and verdicts are written as compact JSON, every file as UTF-8.
Each dataset keeps one trace table that its sites reference by index, so
a reloaded dataset shares its trace objects the way the live one does.
The indented writer below builds that table on its own and stays here as
the oracle: a compact bundle must parse to exactly what it wrote, and a
bundle written by it must still load.  A dataset in the older inline
layout (traces repeated in every site) is refused.
"""

from __future__ import annotations

import copy
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import export_study, load_datasets
from repro.artifacts import _verdicts_payload, load_geolocations
from repro.core.analysis.summary import summarize_study
from repro.core.gamma.output import VolunteerDataset
from repro.core.trackers.orgs import OrganizationDirectory, OrgEntry
from tests.test_transport_pickled import _datasets, _traceroutes


def _indented_dataset(dataset) -> str:
    """The dataset layout written by hand: ``indent=2``, sorted keys, and
    one table entry per distinct trace object, in the order the sorted
    file first references it."""
    table, slots, websites = [], {}, {}
    for url in sorted(dataset.websites):
        m = dataset.websites[url]
        references = {}
        for ip in sorted(m.traceroutes):
            trace = m.traceroutes[ip]
            if id(trace) not in slots:
                slots[id(trace)] = len(table)
                table.append(trace.to_dict())
            references[ip] = slots[id(trace)]
        websites[url] = {
            "url": m.url, "category": m.category, "loaded": m.loaded,
            "failure_reason": m.failure_reason,
            "requested_hosts": m.requested_hosts,
            "background_hosts": m.background_hosts,
            "dns": m.dns, "rdns": m.rdns, "traceroutes": references,
        }
    return json.dumps(
        {
            "country": dataset.country_code,
            "city": dataset.city_key,
            "volunteer_ip": dataset.volunteer_ip,
            "os": dataset.os_name,
            "browser": dataset.browser,
            "traces": table,
            "websites": websites,
        },
        indent=2,
        sort_keys=True,
    )


def _inline_dataset(dataset) -> str:
    """The older layout: every site repeats its traces inline."""
    payload = json.loads(_indented_dataset(dataset))
    table = payload.pop("traces")
    for site in payload["websites"].values():
        site["traceroutes"] = {ip: table[slot] for ip, slot in site["traceroutes"].items()}
    return json.dumps(payload, sort_keys=True)


def _indented_geolocation(outcome, cc: str) -> str:
    return json.dumps(_verdicts_payload(outcome, cc), indent=2)


def _trace_objects(dataset) -> list:
    return [
        trace
        for measurement in dataset.websites.values()
        for trace in measurement.traceroutes.values()
    ]


def _distinct(traces) -> int:
    return len({id(trace) for trace in traces})


@pytest.fixture(scope="module")
def bundle(study_small, tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("bundle")
    export_study(study_small, directory)
    return directory


def test_bundle_parses_to_the_indented_writers_value(study_small, bundle):
    for cc, dataset in study_small.datasets.items():
        text = (bundle / "datasets" / f"{cc}.json").read_text(encoding="utf-8")
        assert json.loads(text) == json.loads(_indented_dataset(dataset)), cc
        text = (bundle / "geolocation" / f"{cc}.json").read_text(encoding="utf-8")
        assert json.loads(text) == json.loads(_indented_geolocation(study_small, cc)), cc
    summary = json.dumps(summarize_study(study_small).to_dict(), indent=2, sort_keys=True)
    assert (bundle / "data" / "summary.json").read_text(encoding="utf-8") == summary + "\n"


def test_dataset_and_geolocation_files_are_single_line(study_small, bundle):
    for cc in study_small.datasets:
        for kind in ("datasets", "geolocation"):
            text = (bundle / kind / f"{cc}.json").read_text(encoding="utf-8")
            assert "\n" not in text, (kind, cc)
    assert "\n  " in (bundle / "manifest.json").read_text(encoding="utf-8")


def test_reload_shares_traces_like_the_live_dataset(study_small, bundle):
    reloaded = load_datasets(bundle)
    shared = 0
    for cc, live in study_small.datasets.items():
        live_traces = _trace_objects(live)
        assert _distinct(_trace_objects(reloaded[cc])) == _distinct(live_traces), cc
        assert reloaded[cc].to_json() == live.to_json(), cc
        shared += len(live_traces) - _distinct(live_traces)
    assert shared > 0  # the subset does embed one address in several sites


def test_table_holds_each_live_trace_once_and_round_trips(study_small):
    for cc, live in study_small.datasets.items():
        text = live.to_json()
        payload = json.loads(text)
        assert len(payload["traces"]) == _distinct(_trace_objects(live)), cc
        first_seen = {}
        for url in sorted(live.websites):
            for ip, trace in sorted(live.websites[url].traceroutes.items()):
                first_seen.setdefault(id(trace), trace.to_dict())
        assert payload["traces"] == list(first_seen.values()), cc
        assert VolunteerDataset.from_json(text).to_json() == text, cc


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_any_dataset_round_trips_through_its_table(data):
    # Generated datasets share trace objects across sites and addresses.
    dataset = data.draw(_datasets(data.draw(st.lists(_traceroutes(), max_size=3))))
    text = dataset.to_json()
    assert len(json.loads(text)["traces"]) == _distinct(_trace_objects(dataset))
    back = VolunteerDataset.from_json(text)
    assert back.to_json() == text
    assert _distinct(_trace_objects(back)) == _distinct(_trace_objects(dataset))


def _shared_address(payload: dict):
    """An address two sites reference in the table, and those two sites."""
    sites_by_ip: dict = {}
    for url, entry in payload["websites"].items():
        for ip, slot in entry["traceroutes"].items():
            if payload["traces"][slot]["hops"]:
                sites_by_ip.setdefault(ip, []).append(url)
    for ip, urls in sites_by_ip.items():
        if len(urls) >= 2:
            return ip, urls[0], urls[1]
    raise AssertionError("no address is traced from two sites")


def test_two_table_entries_for_one_address_reload_as_two_traces(study_small, tmp_path):
    edited = tmp_path / "edited"
    export_study(study_small, edited)
    path = edited / "datasets" / "NZ.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    ip, first_url, second_url = _shared_address(payload)
    first = payload["traces"][payload["websites"][first_url]["traceroutes"][ip]]
    second = copy.deepcopy(first)
    second["hops"][-1]["rtt_ms"] = [rtt + 1.0 for rtt in second["hops"][-1]["rtt_ms"]]
    second["hops"].append({"hop": len(second["hops"]) + 1, "ip": None, "rtt_ms": []})
    payload["websites"][second_url]["traceroutes"][ip] = len(payload["traces"])
    payload["traces"].append(second)
    path.write_text(json.dumps(payload), encoding="utf-8")

    dataset = load_datasets(edited)["NZ"]
    a = dataset.websites[first_url].traceroutes[ip]
    b = dataset.websites[second_url].traceroutes[ip]
    assert a is not b and a != b
    assert a.hops is not b.hops
    assert a.to_dict() == first
    assert b.to_dict() == second
    assert len(b.hops) == len(a.hops) + 1


def test_inline_layout_is_refused_naming_the_file(study_small, bundle, tmp_path):
    old = tmp_path / "old"
    shutil.copytree(bundle, old)
    path = old / "datasets" / "NZ.json"
    path.write_text(_inline_dataset(study_small.datasets["NZ"]), encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_datasets(old)
    with pytest.raises(ValueError, match="traces"):
        VolunteerDataset.from_json(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("slot", [-1, "end", 1.0, True])
def test_reference_outside_the_table_is_refused_naming_the_file(bundle, tmp_path, slot):
    damaged = tmp_path / "damaged"
    shutil.copytree(bundle, damaged)
    path = damaged / "datasets" / "NZ.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    ip, url, _ = _shared_address(payload)
    payload["websites"][url]["traceroutes"][ip] = (
        len(payload["traces"]) if slot == "end" else slot
    )
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(str(path)) + ".*outside the table"):
        load_datasets(damaged)


def test_indented_bundle_loads_identically(study_small, bundle, tmp_path):
    indented = tmp_path / "indented"
    export_study(study_small, indented)
    for cc, dataset in study_small.datasets.items():
        (indented / "datasets" / f"{cc}.json").write_text(
            _indented_dataset(dataset), encoding="utf-8")
        (indented / "geolocation" / f"{cc}.json").write_text(
            _indented_geolocation(study_small, cc), encoding="utf-8")
    old, new = load_datasets(indented), load_datasets(bundle)
    assert old.keys() == new.keys()
    for cc in new:
        assert old[cc].to_json() == new[cc].to_json(), cc
        assert _distinct(_trace_objects(old[cc])) == _distinct(_trace_objects(new[cc])), cc
    registry = study_small.scenario.world.geo
    assert load_geolocations(indented, registry) == load_geolocations(bundle, registry)


def test_directory_add_after_a_lookup_changes_the_answer():
    # The summary's hostname memo lives in the directory and must not
    # outlive a change to the entries it was computed from.
    directory = OrganizationDirectory([
        OrgEntry("AdCo", "US", ("adco.net",), is_tracker=True),
    ])
    assert directory.org_for_host("px.adco.net").name == "AdCo"
    assert directory.org_for_host("cdn.pixel.example") is None
    directory.add(OrgEntry("PixelCo", "FR", ("pixel.example",), is_tracker=True))
    assert directory.org_for_host("cdn.pixel.example").name == "PixelCo"
    assert directory.is_tracking_host("cdn.pixel.example")
    assert directory.org_for_host("px.adco.net").name == "AdCo"


_ASCII_EXPORT = """
import sys
from pathlib import Path
from repro import build_scenario, export_study, load_datasets, run_study
directory = Path(sys.argv[1])
outcome = run_study(build_scenario(), countries=["NZ", "RW"])
export_study(outcome, directory)
reloaded = load_datasets(directory)
assert all(reloaded[cc].to_json() == outcome.datasets[cc].to_json() for cc in outcome.datasets)
print(sorted(reloaded))
"""


def _ascii_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("LC_") and k != "PYTHONUTF8"}
    src = str(Path(repro.__file__).resolve().parents[1])
    env.update(
        LC_ALL="C",
        LANG="C",
        PYTHONCOERCECLOCALE="0",
        PYTHONPATH=os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")])),
    )
    return env


def test_export_is_utf8_under_an_ascii_locale(tmp_path):
    directory = tmp_path / "bundle"
    result = subprocess.run(
        [sys.executable, "-X", "utf8=0", "-c", _ASCII_EXPORT, str(directory)],
        capture_output=True, text=True, env=_ascii_env(),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "['NZ', 'RW']"
    fig4 = (directory / "figures" / "fig4_per_website.txt").read_bytes()
    assert b"\xc2\xb1" in fig4  # "mean±sd", UTF-8 encoded
    fig4.decode("utf-8")


def test_import_does_not_pull_the_network_stack():
    heavy = ("urllib.request", "http.client", "ssl", "email")
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro; print([m for m in %r if m in sys.modules])" % (heavy,)],
        capture_output=True, text=True, env=_ascii_env(), check=True,
    )
    assert result.stdout.strip() == "[]"
