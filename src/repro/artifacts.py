"""Artifact export: persist a study run the way the paper's release does.

The authors publish their tool and recorded data [2].  ``export_study``
writes an equivalent artifact bundle: one (anonymised) volunteer dataset
per country, per-country geolocation verdicts, the analysis summaries
behind every figure/table, and a manifest.  ``reanalyze`` rebuilds the
study from those files alone, so ``render_figures`` and
``summarize_study`` of it equal the live study's.  The dataset and
verdict writers and both loaders run with the cyclic collector paused
(:func:`repro.gcpause.collector_paused`): the payloads they build hold
no cycles, so its passes over the growing heap find nothing.

Each dataset file keeps one trace table (``"traces"``) that its sites
reference by index (:meth:`VolunteerDataset.to_json`), so a trace that
several sites embed is stored once.

Every file is UTF-8 whatever the locale.  Datasets and verdicts are
compact JSON (an indented dump would leave the C encoder for the
pure-Python one); the manifest and ``data/summary.json`` stay indented
for people to read.  Readers accept either form.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path
from typing import Dict, List

from repro.core.analysis.report import (
    render_fig3,
    render_fig4,
    render_fig5,
    render_fig6,
    render_fig7,
    render_fig8,
    render_table1,
)
from repro.core.analysis.records import build_country_result
from repro.core.analysis.sankey import Flow
from repro.core.analysis.summary import summarize_study
from repro.core.analysis.svgfig import svg_flow_diagram, svg_grouped_bars
from repro.core.analysis.tabular import flows_csv, flows_geojson, hosting_csv, prevalence_csv
from repro.core.gamma.output import VolunteerDataset
from repro.core.geoloc.constraints import ConstraintResult
from repro.core.geoloc.pipeline import DatasetGeolocation, FunnelCounters, ServerVerdict
from repro.gcpause import collector_paused
from repro.geodb.ipmap import GeoClaim
from repro.netsim.geography import GeoRegistry
from repro.study import StudyOutcome
from repro.worldgen.builder import Scenario

__all__ = ["export_study", "load_datasets", "load_geolocations", "reanalyze", "render_figures"]


def _verdicts_payload(outcome: StudyOutcome, country_code: str) -> dict:
    geolocation = outcome.geolocations[country_code]
    return {
        "country": country_code,
        "source_traces": outcome.source_trace_origins.get(country_code, ""),
        "funnel": geolocation.funnel.stages(),
        "servers": [
            {
                "address": verdict.address,
                "hosts": verdict.hosts,
                "status": verdict.status,
                "claimed_city": verdict.claim.city_key if verdict.claim else None,
                "claimed_country": verdict.claimed_country,
                "discarded_by": verdict.discarded_by,
                "checks": [
                    {"constraint": c.constraint, "status": c.status, "reason": c.reason}
                    for c in verdict.checks
                ],
            }
            for verdict in geolocation.verdicts.values()
        ],
    }


def render_figures(outcome: StudyOutcome) -> Dict[str, str]:
    """Every text figure and table, keyed by its file name under ``figures/``."""
    return {
        "fig3_prevalence.txt": render_fig3(outcome.prevalence()),
        "fig4_per_website.txt": render_fig4(outcome.per_website()),
        "fig5_flows.txt": render_fig5(outcome.flows()),
        "fig6_continents.txt": render_fig6(outcome.continents()),
        "fig7_hosting.txt": render_fig7(outcome.hosting()),
        "fig8_organizations.txt": render_fig8(outcome.organizations()),
        "table1_policy.txt": render_table1(outcome.policy()),
    }


def export_study(outcome: StudyOutcome, directory: Path) -> List[Path]:
    """Write the full artifact bundle under *directory*; returns the files."""
    directory = Path(directory)
    (directory / "datasets").mkdir(parents=True, exist_ok=True)
    (directory / "geolocation").mkdir(parents=True, exist_ok=True)
    written: List[Path] = []

    with collector_paused():
        for cc, dataset in sorted(outcome.datasets.items()):
            path = directory / "datasets" / f"{cc}.json"
            path.write_text(dataset.to_json(), encoding="utf-8")
            written.append(path)
            geo_path = directory / "geolocation" / f"{cc}.json"
            geo_path.write_text(json.dumps(_verdicts_payload(outcome, cc)), encoding="utf-8")
            written.append(geo_path)

    figures_dir = directory / "figures"
    figures_dir.mkdir(parents=True, exist_ok=True)
    for name, body in render_figures(outcome).items():
        path = figures_dir / name
        path.write_text(body + "\n", encoding="utf-8")
        written.append(path)

    svg_dir = directory / "figures" / "svg"
    svg_dir.mkdir(parents=True, exist_ok=True)
    prevalence_rows = [
        (row.country_code, row.regional_pct, row.government_pct)
        for row in outcome.prevalence().per_country()
    ]
    flow_edges = [
        Flow(edge.source, edge.destination, edge.website_count)
        for edge in outcome.flows().edges()
    ]
    continent_edges = [
        Flow(src, dst, count)
        for (src, dst), count in outcome.continents().matrix().items()
    ]
    svg_files = {
        "fig3_prevalence.svg": svg_grouped_bars(
            prevalence_rows, "Figure 3: % of websites with non-local trackers"),
        "fig5_flows.svg": svg_flow_diagram(
            flow_edges, "Figure 5: non-local tracking flows (countries)"),
        "fig6_continents.svg": svg_flow_diagram(
            continent_edges, "Figure 6: non-local tracking flows (continents)"),
    }
    for name, svg_body in svg_files.items():
        path = svg_dir / name
        path.write_text(svg_body, encoding="utf-8")
        written.append(path)

    data_dir = directory / "data"
    data_dir.mkdir(parents=True, exist_ok=True)
    data_files = {
        "prevalence.csv": prevalence_csv(outcome.prevalence()),
        "flows.csv": flows_csv(outcome.flows()),
        "hosting.csv": hosting_csv(outcome.hosting()),
        "flows.geojson": flows_geojson(outcome.flows(), outcome.scenario.world.geo),
        "summary.json": json.dumps(summarize_study(outcome).to_dict(), indent=2, sort_keys=True),
    }
    for name, body in data_files.items():
        path = data_dir / name
        path.write_text(body if body.endswith("\n") else body + "\n", encoding="utf-8")
        written.append(path)

    funnel = outcome.funnel()
    manifest = {
        "countries": sorted(outcome.datasets),
        "source_trace_origins": outcome.source_trace_origins,
        "funnel": {
            "total_hosts": funnel.total_hosts,
            "nonlocal_candidates": funnel.nonlocal_candidates,
            "after_latency_constraints": funnel.after_latency_constraints,
            "after_rdns": funnel.after_rdns,
        },
        "files": [str(p.relative_to(directory)) for p in written],
    }
    manifest_path = directory / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2), encoding="utf-8")
    written.append(manifest_path)
    return written


def load_geolocations(directory: Path, registry: GeoRegistry) -> Dict[str, DatasetGeolocation]:
    """Rebuild per-country geolocation verdicts from an exported bundle.

    City objects are resolved through *registry*; everything else comes
    verbatim from the stored evidence.
    """
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text(encoding="utf-8"))
    geolocations: Dict[str, DatasetGeolocation] = {}
    with collector_paused():
        for cc in manifest["countries"]:
            payload = json.loads(
                (directory / "geolocation" / f"{cc}.json").read_text(encoding="utf-8")
            )
            funnel_data = payload.get("funnel", {})
            geolocation = DatasetGeolocation(
                country_code=cc,
                funnel=FunnelCounters(
                    **{stage.name: funnel_data.get(stage.name, 0)
                       for stage in fields(FunnelCounters)}
                ),
            )
            for server in payload.get("servers", []):
                claim = None
                if server.get("claimed_city"):
                    claim = GeoClaim(server["address"], registry.city(server["claimed_city"]))
                verdict = ServerVerdict(
                    address=server["address"],
                    hosts=list(server.get("hosts", [])),
                    status=server["status"],
                    claim=claim,
                    discarded_by=server.get("discarded_by", ""),
                    checks=[
                        ConstraintResult(c["constraint"], c["status"], c.get("reason", ""))
                        for c in server.get("checks", [])
                    ],
                )
                geolocation.verdicts[server["address"]] = verdict
                for host in verdict.hosts:
                    geolocation.host_to_address.setdefault(host, verdict.address)
            geolocations[cc] = geolocation
    return geolocations


def reanalyze(directory: Path, scenario: Scenario) -> StudyOutcome:
    """Rebuild a study from a published bundle alone.

    This is the reuse path the paper advertises for its artefacts:
    anyone with the datasets, the verdict evidence, and public tracker
    lists can regenerate every figure and the summary without
    re-measuring.  *scenario* supplies the tracker identifier and the
    city registry; the source-trace origins come from the manifest.
    """
    directory = Path(directory)
    datasets = load_datasets(directory)
    geolocations = load_geolocations(directory, scenario.world.geo)
    manifest = json.loads((directory / "manifest.json").read_text(encoding="utf-8"))
    origins = manifest["source_trace_origins"]
    # The manifest's "countries" are sorted; its origins keep the study's
    # country order, which the figure rows follow.
    return StudyOutcome(
        scenario=scenario,
        datasets={cc: datasets[cc] for cc in origins},
        geolocations={cc: geolocations[cc] for cc in origins},
        results=[
            build_country_result(datasets[cc], geolocations[cc], scenario.identifier)
            for cc in origins
        ],
        source_trace_origins=origins,
    )


def load_datasets(directory: Path) -> Dict[str, VolunteerDataset]:
    """Read exported volunteer datasets back (for offline reanalysis)."""
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"no manifest.json in {directory}")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    datasets: Dict[str, VolunteerDataset] = {}
    with collector_paused():
        for cc in manifest["countries"]:
            path = directory / "datasets" / f"{cc}.json"
            try:
                datasets[cc] = VolunteerDataset.from_json(path.read_text(encoding="utf-8"))
            except json.JSONDecodeError:
                raise  # a damaged file keeps the decoder's own error
            except ValueError as error:  # an older layout or a bad reference
                raise ValueError(f"{path}: {error}") from error
    return datasets
