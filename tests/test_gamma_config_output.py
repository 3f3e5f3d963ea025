"""Gamma dataset model."""

import pytest

from repro.core.gamma.output import (
    ANONYMIZED_IP,
    VolunteerDataset,
    WebsiteMeasurement,
    anonymize,
)
from repro.core.gamma.parsers import NormalizedHop, NormalizedTraceroute


def _measurement(url="x.co.th", loaded=True):
    trace = NormalizedTraceroute(
        target="5.0.0.1", reached=True,
        hops=[NormalizedHop(1, "192.168.1.1", (1.0,)), NormalizedHop(2, "5.0.0.1", (30.0,))],
        tool="traceroute",
    )
    measurement = WebsiteMeasurement(url=url, category="regional", loaded=loaded)
    if loaded:  # failed loads record nothing beyond the failure itself
        measurement.requested_hosts = ["x.co.th", "t.tracker.net"]
        measurement.background_hosts = ["update.googleapis.com"]
        measurement.dns = {"x.co.th": "5.0.1.1", "t.tracker.net": "5.0.0.1"}
        measurement.rdns = {"5.0.0.1": "edge-1.fra01.example.net", "5.0.1.1": None}
        measurement.traceroutes = {"5.0.0.1": trace}
    return measurement


class TestDataset:
    def _dataset(self):
        ds = VolunteerDataset(
            country_code="TH", city_key="Bangkok, TH", volunteer_ip="5.9.9.10",
            os_name="linux", browser="chrome",
        )
        ds.add(_measurement())
        ds.add(_measurement("y.co.th", loaded=False))
        return ds

    def test_counts(self):
        ds = self._dataset()
        assert ds.attempted_count == 2
        assert ds.loaded_count == 1
        assert ds.load_success_pct() == 50.0

    def test_traceroute_counts(self):
        ds = self._dataset()
        assert ds.traceroute_counts() == {"attempted": 1, "reached": 1}
        assert not ds.traceroutes_all_failed

    def test_all_failed_detection(self):
        ds = self._dataset()
        trace = ds.websites["x.co.th"].traceroutes["5.0.0.1"]
        ds.websites["x.co.th"].traceroutes["5.0.0.1"] = NormalizedTraceroute(
            target=trace.target, reached=False, hops=trace.hops, tool=trace.tool,
        )
        assert ds.traceroutes_all_failed

    def test_resolved_addresses_unique_ordered(self):
        measurement = _measurement()
        assert measurement.resolved_addresses == ["5.0.1.1", "5.0.0.1"]

    def test_json_roundtrip(self):
        ds = self._dataset()
        back = VolunteerDataset.from_json(ds.to_json())
        assert back.country_code == "TH"
        assert back.websites["x.co.th"].dns == ds.websites["x.co.th"].dns
        assert back.websites["x.co.th"].traceroutes["5.0.0.1"].reached

    def test_all_requested_hosts(self):
        ds = self._dataset()
        assert set(ds.all_requested_hosts()) == {"x.co.th", "t.tracker.net"}

    def test_anonymize(self):
        ds = self._dataset()
        anonymize(ds)
        assert ds.volunteer_ip == ANONYMIZED_IP

    def test_empty_dataset_pct(self):
        ds = VolunteerDataset("TH", "Bangkok, TH", "1.2.3.4", "linux", "chrome")
        assert ds.load_success_pct() == 0.0
