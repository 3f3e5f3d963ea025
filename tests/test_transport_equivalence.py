"""The process-pool result path: pickled runs, unpickled on demand.

On the process backend every country comes back as a
:class:`~repro.exec.transport.PickledCountryRun`, and the coordinator
unpickles a country only when its dataset or geolocation is read.  These
tests pin both halves of that contract:

* **Laziness** — ``summary()``, ``funnel()`` and every figure accessor
  unpickle nothing; ``len``/iteration over ``datasets`` unpickles
  nothing; ``datasets["NZ"]`` unpickles exactly that country, once.
* **Unobservability** — summaries, exported bundles and timing-stripped
  journals are byte-equal to the serial run at jobs 1 and 4 and across
  a checkpoint resume.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro import StudyConfig, run_study
from repro.artifacts import export_study
from repro.core.geoloc.verdicts import FunnelCounters, merge_funnels
from repro.exec import transport
from tests.conftest import SMALL_COUNTRIES
from tests.test_exec_equivalence import assert_outcomes_identical

#: The paper's figure and table accessors (Figs 3-8, Table 1), plus the
#: rest of the joined-result analyses.
FIGURE_ACCESSORS = (
    "prevalence", "per_website", "flows", "continents", "hosting",
    "organizations", "policy", "first_party", "infrastructure",
)


class _CountingPickle:
    """Stands in for the transport module's ``pickle``, recording which
    country each unpickled payload held."""

    dumps = staticmethod(pickle.dumps)

    def __init__(self):
        self.loaded = []

    def loads(self, payload):
        run = pickle.loads(payload)
        self.loaded.append(run.country_code)
        return run


@pytest.fixture()
def unpickled(monkeypatch):
    counter = _CountingPickle()
    monkeypatch.setattr(transport, "pickle", counter)
    return counter.loaded


@pytest.fixture(scope="module")
def reference(scenario):
    """The serial run: in-process objects, nothing pickled."""
    return run_study(scenario, countries=SMALL_COUNTRIES, trace=True)


def _pooled(scenario, **kwargs):
    return run_study(
        scenario, countries=SMALL_COUNTRIES,
        config=StudyConfig(backend="process", jobs=2), **kwargs
    )


def _summary_bytes(outcome) -> str:
    return json.dumps(outcome.summary().to_dict(), sort_keys=True)


class TestLazyUnpickling:
    def test_summary_funnel_and_figures_unpickle_nothing(
        self, scenario, reference, unpickled
    ):
        outcome = _pooled(scenario)
        assert _summary_bytes(outcome) == _summary_bytes(reference)
        assert outcome.funnel() == reference.funnel()
        for accessor in FIGURE_ACCESSORS:
            getattr(outcome, accessor)()
        assert outcome.flows().edges() == reference.flows().edges()
        assert unpickled == []

    def test_listing_datasets_unpickles_nothing(self, scenario, unpickled):
        outcome = _pooled(scenario)
        assert len(outcome.datasets) == len(SMALL_COUNTRIES)
        assert list(outcome.datasets) == SMALL_COUNTRIES
        assert list(outcome.geolocations) == SMALL_COUNTRIES
        assert [r.country_code for r in outcome.results] == SMALL_COUNTRIES
        assert unpickled == []

    def test_indexing_unpickles_exactly_that_country_once(
        self, scenario, reference, unpickled
    ):
        outcome = _pooled(scenario)
        dataset = outcome.datasets["NZ"]
        assert unpickled == ["NZ"]
        assert dataset.to_json() == reference.datasets["NZ"].to_json()
        # Every other route to NZ's run reuses the same unpickled objects.
        nz = SMALL_COUNTRIES.index("NZ")
        assert outcome.results[nz].dataset is dataset
        assert outcome.geolocations["NZ"] is outcome.results[nz].geolocation
        assert unpickled == ["NZ"]

    def test_in_process_backends_ship_nothing(self, scenario, unpickled):
        outcome = run_study(scenario, countries=SMALL_COUNTRIES[:3])
        assert outcome.metrics.transport_bytes == {}
        assert unpickled == []


#: Every public query behind the figures and tables, as
#: ``(accessor, method, args)``.
FIGURE_QUERIES = [
    ("prevalence", "per_country", ()),
    ("prevalence", "combined_pct_by_country", ()),
    ("prevalence", "regional_mean_and_stdev", ()),
    ("prevalence", "government_mean_and_stdev", ()),
    ("prevalence", "regional_government_correlation", ()),
    ("prevalence", "countries_with_foreign_trackers", ()),
    ("per_website", "counts_for", ("NZ",)),
    ("per_website", "counts_for", ("NZ", "government")),
    ("per_website", "distribution", ("RW",)),
    ("per_website", "all_distributions", ()),
    ("per_website", "all_distributions", ("regional",)),
    ("per_website", "histogram", ("NZ",)),
    ("per_website", "outlier_sites", ("NZ",)),
    ("flows", "edges", ()),
    ("flows", "edges", ("regional",)),
    ("flows", "edges", ("government",)),
    ("flows", "sites_with_nonlocal", ()),
    ("flows", "destination_shares", ()),
    ("flows", "destination_shares", (None, ("NZ",))),
    ("flows", "source_count_per_destination", ()),
    ("flows", "single_source_effect", ("US",)),
    ("flows", "dominant_source", ("US",)),
    ("flows", "destinations_of", ("NZ",)),
    ("continents", "matrix", ()),
    ("continents", "matrix", ("government",)),
    ("continents", "inward_flow", ("Europe",)),
    ("continents", "outward_flow", ("Oceania",)),
    ("continents", "intra_flow", ("Oceania",)),
    ("continents", "inward_source_continents", ("Europe",)),
    ("continents", "central_hub", ()),
    ("continents", "share_staying_within", ("Oceania",)),
    ("hosting", "domain_observations", ()),
    ("hosting", "domains_per_destination", ()),
    ("hosting", "breakdown_by_source", ("US",)),
    ("hosting", "unique_domains_per_destination", ()),
    ("hosting", "top_destinations", (3,)),
    ("hosting", "destinations_hosting_exactly", (1,)),
    ("organizations", "flow_edges", ()),
    ("organizations", "observed_organizations", ()),
    ("organizations", "top_organizations", (5,)),
    ("organizations", "home_country_distribution", ()),
    ("organizations", "country_exclusive_organizations", ()),
    ("organizations", "cloud_hosted_trackers", ()),
    ("organizations", "cloud_hosted_in_country", ("US",)),
    ("policy", "table_rows", ()),
    ("policy", "mean_rate_by_policy_type", ()),
    ("policy", "strictness_correlation", ()),
    ("policy", "enacted_only_correlation", ()),
    ("first_party", "sites_with_nonlocal", ()),
    ("first_party", "first_party_sites", ()),
    ("first_party", "owner_breakdown", ()),
    ("first_party", "first_party_share", ()),
    ("infrastructure", "annotated_flows", ()),
    ("infrastructure", "cable_alignment_share", ()),
    ("infrastructure", "hosting_vs_connectivity", ()),
    ("infrastructure", "hosting_connectivity_correlation", ()),
    ("infrastructure", "cable_without_flow", ()),
    ("infrastructure", "mean_flow_distance_km", ()),
]


@pytest.fixture(scope="module")
def pooled(scenario):
    """One process-pool outcome that the figure queries only read."""
    return _pooled(scenario)


def _answer(outcome, accessor, method, args):
    """A query's answer (or its error) in a form that compares exactly:
    dict order counts, sets compare sorted, floats by their repr."""
    try:
        value = getattr(getattr(outcome, accessor)(), method)(*args)
    except (ValueError, ZeroDivisionError) as error:
        return ("raise", type(error).__name__, str(error))
    if isinstance(value, set):
        value = sorted(value)
    elif isinstance(value, dict):
        value = list(value.items())
    return ("ok", repr(value))


class TestFigureQueries:
    @pytest.mark.parametrize(
        "accessor,method,args", FIGURE_QUERIES,
        ids=[f"{a}.{m}{args!r}" for a, m, args in FIGURE_QUERIES],
    )
    def test_answers_like_serial_without_unpickling(
        self, pooled, reference, unpickled, accessor, method, args
    ):
        assert _answer(pooled, accessor, method, args) == _answer(
            reference, accessor, method, args
        )
        assert unpickled == []


class TestProcessPoolAccounting:
    def test_every_country_is_accounted(self, scenario):
        outcome = _pooled(scenario)
        metrics = outcome.metrics
        assert list(metrics.transport_bytes) == SMALL_COUNTRIES
        assert all(nbytes > 0 for nbytes in metrics.transport_bytes.values())
        assert metrics.transport_encode_seconds > 0
        assert metrics.transport_decode_seconds == 0
        outcome.geolocations["CA"]
        assert metrics.transport_decode_seconds > 0
        rendered = metrics.render()
        assert "transport" in rendered
        for country in SMALL_COUNTRIES:
            assert country in rendered


class TestByteEquality:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_process_pool_matches_serial(self, scenario, reference, jobs, tmp_path):
        outcome = run_study(
            scenario, countries=SMALL_COUNTRIES, trace=True,
            config=StudyConfig(backend="process", jobs=jobs),
        )
        assert _summary_bytes(outcome) == _summary_bytes(reference)
        assert outcome.journal.dumps(timings=False) == reference.journal.dumps(
            timings=False
        )
        ref_paths = export_study(reference, tmp_path / "serial")
        paths = export_study(outcome, tmp_path / "process")
        assert [p.relative_to(tmp_path / "serial") for p in ref_paths] == [
            p.relative_to(tmp_path / "process") for p in paths
        ]
        for ref_path, path in zip(ref_paths, paths):
            assert path.read_bytes() == ref_path.read_bytes(), path.name
        assert_outcomes_identical(reference, outcome)

    def test_checkpoint_resume_on_the_process_pool(self, scenario, reference, tmp_path):
        checkpoint_dir = tmp_path / "ckpt"
        _pooled(scenario, checkpoint_dir=checkpoint_dir, trace=True)
        assert sorted(p.name for p in checkpoint_dir.iterdir()) == sorted(
            [f"{cc}.run.pkl" for cc in SMALL_COUNTRIES] + ["metrics.json"]
        )
        for cc in SMALL_COUNTRIES[2:]:
            (checkpoint_dir / f"{cc}.run.pkl").unlink()
        resumed = run_study(
            scenario, countries=SMALL_COUNTRIES, trace=True,
            config=StudyConfig(backend="process", jobs=4),
            checkpoint_dir=checkpoint_dir, resume=True,
        )
        assert [r["country"] for r in resumed.journal.events("country_resumed")] \
            == SMALL_COUNTRIES[:2]
        assert _summary_bytes(resumed) == _summary_bytes(reference)
        assert resumed.journal.dumps(timings=False) == reference.journal.dumps(
            timings=False
        )
        assert_outcomes_identical(reference, resumed)


class TestMergeFunnels:
    def test_matches_sequential_merge(self, study_small):
        funnels = [g.funnel for g in study_small.geolocations.values()]
        sequential = FunnelCounters()
        for funnel in funnels:
            sequential = sequential.merged_with(funnel)
        assert merge_funnels(funnels) == sequential
        assert merge_funnels(funnels) == study_small.funnel()

    def test_empty_input_is_zero(self):
        assert merge_funnels([]) == FunnelCounters()
