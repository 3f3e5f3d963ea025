"""HAR 1.2 export/import."""

import json

import pytest

from repro.browser.har import NetworkRequest, PageLoadRecord, RequestStatus
from repro.browser.harformat import from_har, to_har, to_har_json


@pytest.fixture()
def record():
    return PageLoadRecord(
        url="www.siamnews.co.th", country_code="TH", browser="chrome",
        loaded=True, render_time_s=4.2,
        requests=[
            NetworkRequest("www.siamnews.co.th", "document", RequestStatus.OK, "5.0.0.1"),
            NetworkRequest("px.adorg.net", "script", RequestStatus.OK, "5.0.1.1"),
            NetworkRequest("broken.example", "script", RequestStatus.DNS_ERROR),
            NetworkRequest("update.googleapis.com", "background", RequestStatus.OK,
                           "5.0.2.1", background=True),
        ],
    )


class TestHARExport:
    def test_valid_har_structure(self, record):
        har = to_har(record)
        assert har["log"]["version"] == "1.2"
        assert har["log"]["pages"][0]["id"] == "www.siamnews.co.th"
        assert len(har["log"]["entries"]) == 4

    def test_entries_carry_urls_and_ips(self, record):
        har = to_har(record)
        first = har["log"]["entries"][0]
        assert first["request"]["url"] == "https://www.siamnews.co.th/"
        assert first["serverIPAddress"] == "5.0.0.1"
        assert first["response"]["status"] == 200

    def test_failed_requests_have_zero_status(self, record):
        har = to_har(record)
        failed = har["log"]["entries"][2]
        assert failed["response"]["status"] == 0
        assert failed["response"]["statusText"] == "dns_error"

    def test_page_timings_from_render_time(self, record):
        har = to_har(record)
        assert har["log"]["pages"][0]["pageTimings"]["onLoad"] == pytest.approx(4200.0)

    def test_json_serialisable(self, record):
        payload = json.loads(to_har_json(record))
        assert payload["log"]["creator"]["name"] == "gamma-repro"

    def test_roundtrip(self, record):
        back = from_har(to_har(record))
        assert back.url == record.url
        assert back.country_code == "TH"
        assert back.render_time_s == pytest.approx(record.render_time_s)
        assert [(r.host, r.status, r.background) for r in back.requests] == [
            (r.host, r.status, r.background) for r in record.requests
        ]
        assert back.host_addresses() == record.host_addresses()

    def test_rejects_non_har(self):
        with pytest.raises(ValueError):
            from_har({"log": {"version": "1.1"}})
        with pytest.raises(ValueError):
            from_har({"log": {"version": "1.2", "pages": []}})

    def test_accepts_foreign_har_without_private_fields(self, record):
        har = to_har(record)
        for entry in har["log"]["entries"]:
            entry.pop("_status"), entry.pop("_kind"), entry.pop("_background")
        back = from_har(json.dumps(har))
        assert back.requests[0].status == RequestStatus.OK
        assert back.requests[2].status == RequestStatus.DNS_ERROR
