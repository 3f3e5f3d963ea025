"""Extension modules: cross-country behaviour, local trackers, visit
variability, longitudinal compliance, artifact export."""

import json

import pytest

from repro import (
    LongitudinalStudy,
    VisitVariabilityStudy,
    build_scenario,
    export_study,
    load_datasets,
    run_study,
)


class TestCrossCountry:
    def test_yahoo_regional_adaptation(self, study_full):
        """The paper's closing observation: yahoo.com ships Adobe/Oracle/
        Taboola trackers only to some countries."""
        analysis = study_full.cross_country()
        differences = analysis.org_differences("yahoo.com")
        regional_only = {"Adobe", "Oracle", "Taboola"} & set(differences)
        assert regional_only
        for org in regional_only:
            assert set(differences[org]) <= {"AU", "QA", "AE"}
        assert not analysis.is_uniform("yahoo.com")

    def test_uniform_site(self, study_full):
        analysis = study_full.cross_country()
        # wikipedia.org embeds no trackers anywhere.
        assert analysis.is_uniform("wikipedia.org")

    def test_countries_measuring(self, study_full):
        analysis = study_full.cross_country()
        measuring = analysis.countries_measuring("google.com")
        assert len(measuring) >= 18  # charted everywhere, most loads succeed

    def test_view_contents(self, study_full):
        analysis = study_full.cross_country()
        view = analysis.view("yahoo.com", "AU")
        assert view is not None
        assert "Yahoo" in view.tracker_orgs

    def test_view_missing_country(self, study_full):
        analysis = study_full.cross_country()
        assert analysis.view("yahoo.com", "CA") is None  # not in CA's list

    def test_most_adapted_ranking(self, study_full):
        analysis = study_full.cross_country()
        ranked = analysis.most_adapted_sites(["yahoo.com", "wikipedia.org", "google.com"])
        assert ranked[0][0] == "yahoo.com"


class TestLocalTrackers:
    def test_local_heavy_countries_have_local_trackers(self, study_full):
        analysis = study_full.local_trackers()
        per_country = analysis.per_country()
        # The US and India are tracker-heavy but local.
        assert per_country["US"] > 60
        assert per_country["IN"] > 60
        # Their *non-local* rates are ~0/1 — the trackers are domestic.
        rows = {r.country_code: r.combined_pct for r in study_full.prevalence().per_country()}
        assert rows["US"] == 0.0

    def test_ownership_dominated_by_majors(self, study_full):
        analysis = study_full.local_trackers()
        ownership = analysis.ownership("IN")
        assert "Google" in ownership

    def test_foreign_owned_share_of_local_servers(self, study_full):
        """The sovereignty point: even in-country tracking servers mostly
        belong to foreign (US) companies."""
        analysis = study_full.local_trackers()
        share = analysis.foreign_owned_share("IN")
        assert share is not None and share > 0.5

    def test_russia_local_trackers_domestic(self, study_full):
        analysis = study_full.local_trackers()
        ownership = analysis.ownership("RU")
        assert "Metrika" in ownership

    def test_records_have_homes(self, study_full):
        analysis = study_full.local_trackers()
        records = analysis.records("RU")
        metrika = [r for r in records if r.org_name == "Metrika"]
        assert metrika and metrika[0].domestically_owned


class TestVisitVariability:
    def test_multi_visit_site(self, scenario):
        study = VisitVariabilityStudy(scenario)
        # A Jordanian site: long-tail embeds include flaky ad slots.
        url = scenario.targets["JO"].regional[0]
        stability = study.measure_site(url, "JO", visits=4)
        assert stability.visits == 4
        assert stability.intersection_hosts <= stability.union_hosts

    def test_country_summary_detects_missed_trackers(self, scenario):
        study = VisitVariabilityStudy(scenario)
        summary = study.country_summary("JO", visits=3, limit=25)
        assert 0.0 <= summary["missed_share"] <= 1.0
        assert summary["missed_share"] > 0.0  # a single crawl misses some
        assert summary["mean_jaccard"] < 1.0

    def test_country_summary_counts_sites_measured(self, scenario):
        study = VisitVariabilityStudy(scenario)
        targets = len(scenario.targets["RW"].all_sites)
        assert study.country_summary("RW", visits=1, limit=4)["sites"] == 4
        assert study.country_summary("RW", visits=1, limit=targets + 1)["sites"] == targets

    def test_stable_market_near_perfect(self, scenario):
        # Canada's embeds are all always-on (no flaky long tail).
        study = VisitVariabilityStudy(scenario)
        summary = study.country_summary("CA", visits=3, limit=15)
        assert summary["mean_jaccard"] > 0.9

    def test_visits_must_be_positive(self, scenario):
        study = VisitVariabilityStudy(scenario)
        with pytest.raises(ValueError):
            study.measure_site("google.com", "CA", visits=0)

    @pytest.mark.parametrize("cc", ["EG", "RU", "PK", "TW"])
    def test_opted_out_sites_not_visited(self, scenario, cc):
        opted_out = scenario.volunteers[cc].opted_out_sites
        assert opted_out
        visited = [s.url for s in VisitVariabilityStudy(scenario).measure_country(cc, visits=1)]
        assert not opted_out & set(visited)
        assert visited == scenario.targets[cc].without(sorted(opted_out)).all_sites

    def test_negative_limit_rejected(self, scenario):
        study = VisitVariabilityStudy(scenario)
        with pytest.raises(ValueError, match="limit must be >= 0"):
            study.measure_country("RW", visits=1, limit=-1)


class TestLongitudinal:
    @pytest.fixture()
    def fresh_scenario(self):
        # Longitudinal experiments mutate the world; never reuse the
        # session-scoped scenario.
        return build_scenario(seed="longitudinal-test")

    def test_compliance_reduces_nonlocal_rate(self, fresh_scenario):
        study = LongitudinalStudy(fresh_scenario)
        report = study.measure_effect("JO", adoption=1.0)
        assert report.localized_orgs
        assert report.after_pct < report.before_pct
        assert report.reduction_points > 15

    def test_residency_pops_serve_only_domestic_clients(self, fresh_scenario):
        study = LongitudinalStudy(fresh_scenario)
        study.enact_localization("JO", orgs=["Google"])
        world = fresh_scenario.world
        google = world.deployments["Google"]
        jo_client = fresh_scenario.volunteers["JO"].city
        assert google.serve(jo_client).country_code == "JO"
        # Lebanese clients (nearby) must not leak onto the JO residency PoP.
        lb_client = fresh_scenario.volunteers["LB"].city
        assert google.serve(lb_client).country_code != "JO"

    def test_foreign_serving_orgs_listing(self, fresh_scenario):
        study = LongitudinalStudy(fresh_scenario)
        orgs = study.foreign_serving_orgs("JO")
        assert "Google" in orgs and "Meta" in orgs

    def test_unknown_org_rejected(self, fresh_scenario):
        study = LongitudinalStudy(fresh_scenario)
        with pytest.raises(KeyError):
            study.enact_localization("JO", orgs=["NoSuchOrg"])

    def test_bad_adoption_rejected(self, fresh_scenario):
        with pytest.raises(ValueError):
            LongitudinalStudy(fresh_scenario).enact_localization("JO", adoption=0.0)


class TestArtifacts:
    def test_export_and_reload(self, study_small, tmp_path):
        files = export_study(study_small, tmp_path / "bundle")
        assert (tmp_path / "bundle" / "manifest.json").exists()
        manifest = json.loads((tmp_path / "bundle" / "manifest.json").read_text())
        assert set(manifest["countries"]) == set(study_small.datasets)
        assert len(files) == len(manifest["files"]) + 1  # + manifest itself

        datasets = load_datasets(tmp_path / "bundle")
        for cc, dataset in datasets.items():
            assert dataset.to_json() == study_small.datasets[cc].to_json()

    def test_figures_rendered(self, study_small, tmp_path):
        export_study(study_small, tmp_path / "bundle")
        fig3 = (tmp_path / "bundle" / "figures" / "fig3_prevalence.txt").read_text()
        assert "Figure 3" in fig3

    def test_geolocation_evidence_exported(self, study_small, tmp_path):
        export_study(study_small, tmp_path / "bundle")
        payload = json.loads((tmp_path / "bundle" / "geolocation" / "NZ.json").read_text())
        assert payload["funnel"]["total_hosts"] > 0
        statuses = {s["status"] for s in payload["servers"]}
        assert "nonlocal_verified" in statuses

    def test_load_requires_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_datasets(tmp_path)

    def test_exported_ips_anonymised(self, study_small, tmp_path):
        export_study(study_small, tmp_path / "bundle")
        for cc in study_small.datasets:
            text = (tmp_path / "bundle" / "datasets" / f"{cc}.json").read_text()
            assert '"volunteer_ip": "0.0.0.0"' in text


class TestTabularExports:
    def test_prevalence_csv(self, study_small):
        from repro.core.analysis.tabular import prevalence_csv

        text = prevalence_csv(study_small.prevalence())
        lines = text.strip().splitlines()
        assert lines[0].startswith("country,regional_pct")
        assert len(lines) == 1 + len(study_small.datasets)
        assert any(line.startswith("CA,0.00,0.00,0.00") for line in lines)

    def test_flows_csv(self, study_small):
        from repro.core.analysis.tabular import flows_csv

        text = flows_csv(study_small.flows())
        assert text.startswith("source,destination,website_count\n")
        assert "NZ,AU," in text

    def test_hosting_csv(self, study_small):
        from repro.core.analysis.tabular import hosting_csv

        text = hosting_csv(study_small.hosting())
        assert text.startswith("hosting_country,")

    def test_per_website_csv(self, study_small):
        from repro.core.analysis.tabular import per_website_csv

        text = per_website_csv(study_small.per_website(), ["NZ", "RW"])
        rows = text.strip().splitlines()[1:]
        assert all(r.split(",")[0] in ("NZ", "RW") for r in rows)
        assert all(int(r.split(",")[1]) >= 1 for r in rows)

    def test_flows_geojson(self, study_small, scenario):
        import json as _json

        from repro.core.analysis.tabular import flows_geojson

        payload = _json.loads(flows_geojson(study_small.flows(), scenario.world.geo))
        assert payload["type"] == "FeatureCollection"
        assert payload["features"]
        feature = payload["features"][0]
        assert feature["geometry"]["type"] == "LineString"
        assert len(feature["geometry"]["coordinates"]) == 2
        assert feature["properties"]["website_count"] >= 1

    def test_geojson_min_weight_filter(self, study_small, scenario):
        import json as _json

        from repro.core.analysis.tabular import flows_geojson

        all_flows = _json.loads(flows_geojson(study_small.flows(), scenario.world.geo))
        heavy = _json.loads(flows_geojson(study_small.flows(), scenario.world.geo, min_weight=10))
        assert len(heavy["features"]) < len(all_flows["features"])

    def test_bundle_includes_data_directory(self, study_small, tmp_path):
        from repro import export_study

        export_study(study_small, tmp_path / "bundle")
        data = tmp_path / "bundle" / "data"
        assert (data / "prevalence.csv").exists()
        assert (data / "flows.geojson").exists()
        assert (data / "summary.json").exists()


class TestReanalysis:
    def test_geolocations_roundtrip(self, scenario, study_small, tmp_path):
        from repro.artifacts import export_study, load_geolocations

        export_study(study_small, tmp_path / "bundle")
        loaded = load_geolocations(tmp_path / "bundle", scenario.world.geo)
        for cc, original in study_small.geolocations.items():
            rebuilt = loaded[cc]
            assert rebuilt.funnel.total_hosts == original.funnel.total_hosts
            assert set(rebuilt.verdicts) == set(original.verdicts)
            for address, verdict in original.verdicts.items():
                assert rebuilt.verdicts[address].status == verdict.status
                assert rebuilt.verdicts[address].claimed_country == verdict.claimed_country

    def test_reanalysis_matches_in_memory_figures(self, scenario, study_small, tmp_path):
        from repro.artifacts import export_study, reanalyze
        from repro.core.analysis.prevalence import PrevalenceAnalysis

        export_study(study_small, tmp_path / "bundle")
        results = reanalyze(tmp_path / "bundle", scenario.identifier, scenario.world.geo)
        from_disk = {
            r.country_code: r.combined_pct for r in PrevalenceAnalysis(results).per_country()
        }
        in_memory = study_small.prevalence().combined_pct_by_country()
        assert from_disk == in_memory
