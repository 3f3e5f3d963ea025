"""Golden regression numbers for the default scenario.

The whole pipeline is deterministic, so the headline outputs of the
default seed can be pinned exactly.  If a change to the substrate,
calibration, or pipeline moves any of these, this test fails — which is
the point: calibration drift must be a conscious decision.  When a
change is intentional, regenerate the constants (the command is in each
assertion's comment) and update EXPERIMENTS.md to match.
"""

import pytest

from repro import StudyConfig, run_study

# Regenerate with:
#   python - <<'PY'
#   from repro import build_scenario, run_study
#   out = run_study(build_scenario())
#   print({r.country_code: round(r.combined_pct, 2)
#          for r in out.prevalence().per_country()})
#   PY
GOLDEN_COMBINED_PCT = {
    "AE": 35.29, "AR": 58.44, "AU": 7.53, "AZ": 76.71, "CA": 0.0,
    "DZ": 40.0, "EG": 67.09, "GB": 39.18, "IN": 1.09, "JO": 56.76,
    "JP": 22.06, "LB": 30.0, "LK": 10.53, "NZ": 85.26, "PK": 63.51,
    "QA": 76.62, "RU": 9.62, "RW": 67.65, "SA": 72.34, "TH": 56.04,
    "TW": 5.81, "UG": 79.1, "US": 0.0,
}

GOLDEN_FUNNEL = {"total": 20408, "nonlocal": 13064, "latency": 7820, "rdns": 7631}

GOLDEN_TOP_SHARES = {"FR": 59.05, "DE": 44.6, "GB": 25.95, "KE": 20.34,
                     "SG": 15.01, "US": 14.87}

GOLDEN_TOP_HOSTING = {"DE": 269, "KE": 209, "FR": 135, "GB": 76, "US": 60}

GOLDEN_ORG_COUNT = 76
GOLDEN_FIRST_PARTY = (16, 713)  # (first-party sites, sites with non-local)

# Every deterministic counter series of a CA,NZ,RW study: the funnel,
# verdict, constraint-outcome and tracker counts. The serial and the
# process backend must both give exactly these.
# Regenerate with:
#   python - <<'PY'
#   from repro import StudyConfig, build_scenario, run_study
#   from tests.test_golden_numbers import study_counters
#   out = run_study(build_scenario(), countries=["CA", "NZ", "RW"],
#                   config=StudyConfig(jobs=2, backend="process"))
#   print(study_counters(out.metrics_snapshot))
#   PY
GOLDEN_CA_NZ_RW_METRICS = {
    "geoloc_constraint_checks_total{constraint=destination,status=fail}": 34,
    "geoloc_constraint_checks_total{constraint=destination,status=pass}": 244,
    "geoloc_constraint_checks_total{constraint=rdns,status=fail}": 4,
    "geoloc_constraint_checks_total{constraint=rdns,status=pass}": 175,
    "geoloc_constraint_checks_total{constraint=rdns,status=skip}": 65,
    "geoloc_constraint_checks_total{constraint=source,status=fail}": 195,
    "geoloc_constraint_checks_total{constraint=source,status=pass}": 278,
    "geoloc_countries_total": 3,
    "geoloc_discards_total{constraint=destination}": 34,
    "geoloc_discards_total{constraint=rdns}": 4,
    "geoloc_discards_total{constraint=source}": 195,
    "geoloc_funnel_total{stage=destination_traceroutes}": 278,
    "geoloc_funnel_total{stage=discarded_destination}": 202,
    "geoloc_funnel_total{stage=discarded_rdns}": 45,
    "geoloc_funnel_total{stage=discarded_source}": 1033,
    "geoloc_funnel_total{stage=local}": 1036,
    "geoloc_funnel_total{stage=nonlocal_candidates}": 2765,
    "geoloc_funnel_total{stage=total_hosts}": 3938,
    "geoloc_funnel_total{stage=unlocated}": 137,
    "geoloc_funnel_total{stage=verified_nonlocal}": 1485,
    "geoloc_verdicts_total{status=discarded}": 233,
    "geoloc_verdicts_total{status=local}": 325,
    "geoloc_verdicts_total{status=nonlocal_verified}": 240,
    "geoloc_verdicts_total{status=unlocated}": 19,
    "study_countries_total": 3,
    "study_sites_total{outcome=failed}": 13,
    "study_sites_total{outcome=loaded}": 260,
    "study_traceroutes_total{outcome=reached}": 2692,
    "study_traceroutes_total{outcome=unreached}": 1231,
    "tracker_hosts_total{method=global_list}": 150,
    "tracker_hosts_total{method=manual}": 2,
    "tracker_observations_total": 1130,
    "tracker_sites_total{tracked=no}": 133,
    "tracker_sites_total{tracked=yes}": 127,
}


def study_counters(snapshot):
    """``{"name{label=value,...}": value}`` for every deterministic
    (non-runtime) counter and gauge series of a study snapshot."""
    counters = {}
    for name, entry in snapshot["metrics"]["families"].items():
        if entry.get("runtime", False):
            continue
        for record in entry["series"]:
            labels = sorted(record.get("labels", {}).items())
            key = name + ("{%s}" % ",".join(f"{k}={v}" for k, v in labels) if labels else "")
            counters[key] = record["value"]
    return counters


class TestGoldenNumbers:
    def test_combined_prevalence(self, study_full):
        measured = {
            r.country_code: round(r.combined_pct, 2)
            for r in study_full.prevalence().per_country()
        }
        assert measured == GOLDEN_COMBINED_PCT

    def test_funnel(self, study_full):
        funnel = study_full.funnel()
        assert {
            "total": funnel.total_hosts,
            "nonlocal": funnel.nonlocal_candidates,
            "latency": funnel.after_latency_constraints,
            "rdns": funnel.after_rdns,
        } == GOLDEN_FUNNEL

    def test_top_destination_shares(self, study_full):
        shares = study_full.flows().destination_shares()
        measured = {cc: round(shares[cc], 2) for cc in GOLDEN_TOP_SHARES}
        assert measured == GOLDEN_TOP_SHARES
        assert list(shares)[:4] == list(GOLDEN_TOP_SHARES)[:4]

    def test_top_hosting(self, study_full):
        hosting = study_full.hosting().domains_per_destination()
        assert dict(list(hosting.items())[:5]) == GOLDEN_TOP_HOSTING

    def test_organizations_and_first_party(self, study_full):
        assert len(study_full.organizations().observed_organizations()) == GOLDEN_ORG_COUNT
        first_party = study_full.first_party()
        assert (len(first_party.first_party_sites()),
                first_party.sites_with_nonlocal()) == GOLDEN_FIRST_PARTY

    @pytest.mark.parametrize("config", [
        pytest.param(StudyConfig(backend="serial"), id="serial"),
        pytest.param(StudyConfig(jobs=2, backend="process"), id="process-2"),
    ])
    def test_ca_nz_rw_metrics(self, scenario, config):
        outcome = run_study(scenario, countries=["CA", "NZ", "RW"], config=config)
        assert study_counters(outcome.metrics_snapshot) == GOLDEN_CA_NZ_RW_METRICS
