"""The multi-constraint geolocation pipeline (section 4.1).

For every unique host a volunteer's browser contacted:

1. geolocate its IP with the IPmap-like database (unlocatable -> excluded);
2. claims inside the measurement country are **Local** — no further checks;
3. claims outside go through the constraint battery: source-based
   (reachability + SOL + the conservative 80 % rule), destination-based
   (RTT from a probe near the claimed location), and reverse-DNS
   (contradicting hostname hints).  Survivors are **verified non-local**.

The pipeline also accounts the data-collection funnel the paper reports
in section 5 (domains -> non-local -> after latency constraints -> after
reverse DNS).

The battery is evaluated one address at a time, in input order.  Its
thresholds — SOL floors, the 80 %-rule floor, the claimed country's
probe and the strict ceiling — depend only on the cities involved, so
the pipeline reads them from one :class:`ClaimAnchors` table that
computes each per claimed city once and also serves confidence scoring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.atlas.measurements import AtlasMeasurementService
from repro.core.gamma.output import VolunteerDataset
from repro.core.gamma.parsers import NormalizedTraceroute
from repro.core.geoloc.confidence import (
    CONFIDENCE_KINDS,
    ConfidenceAnchors,
    ConfidenceInputs,
    combine_score,
    gather_inputs,
    round_confidence,
)
from repro.core.geoloc.constraints import (
    ClaimAnchors,
    ConstraintResult,
    DestinationConstraint,
    ReverseDNSConstraint,
    SourceConstraint,
    round_evidence_ms,
)
from repro.core.geoloc.latency_stats import LatencyStatsProvider
from repro.core.geoloc.verdicts import (
    DatasetGeolocation,
    FunnelCounters,
    ServerStatus,
    ServerVerdict,
)
from repro.geodb.ipmap import IPMapService
from repro.netsim.geography import City
from repro.netsim.latency import LatencyModel
from repro.obs.metrics import CONFIDENCE_BUCKETS, MS_BUCKETS

__all__ = [
    "ServerStatus",
    "SourceTraces",
    "PipelineConfig",
    "ServerVerdict",
    "FunnelCounters",
    "DatasetGeolocation",
    "GeolocationPipeline",
]

@dataclass
class SourceTraces:
    """Source-side traceroutes and where they were launched from.

    ``origin`` records whether they came from the volunteer machine or a
    nearby probe (the Atlas fallback used for Egypt/Australia/India/
    Qatar/Jordan) — in the latter case ``city`` is the probe's city, which
    may be in a neighbouring country.
    """

    city: City
    traces: Dict[str, NormalizedTraceroute] = field(default_factory=dict)
    origin: str = "volunteer"


@dataclass
class PipelineConfig:
    """Tunables plus per-constraint toggles (used by the ablation benches)."""

    conservative_threshold: float = 0.8
    max_inflation: float = 1.9
    destination_slack_ms: float = 12.0
    #: Apply an (unphysical) RTT upper bound in the destination constraint;
    #: off by default to match the paper, exercised by the ablation benches.
    strict_destination_bound: bool = False
    enable_source: bool = True
    enable_destination: bool = True
    enable_rdns: bool = True
    #: Score every verdict with a calibrated confidence
    #: (repro.core.geoloc.confidence).  Pure annotation layer: binary
    #: verdicts, funnels, summaries and stripped journals are
    #: byte-identical with this on or off.
    confidence: bool = False


class GeolocationPipeline:
    """Applies database + constraints to a volunteer dataset."""

    def __init__(
        self,
        ipmap: IPMapService,
        atlas: AtlasMeasurementService,
        stats: LatencyStatsProvider,
        latency: LatencyModel,
        config: Optional[PipelineConfig] = None,
    ):
        self._ipmap = ipmap
        self._atlas = atlas
        self._config = config or PipelineConfig()
        self._source = SourceConstraint(stats, self._config.conservative_threshold)
        self._destination = DestinationConstraint(
            latency,
            self._config.max_inflation,
            self._config.destination_slack_ms,
            strict_bound=self._config.strict_destination_bound,
        )
        self._rdns = ReverseDNSConstraint()
        self._anchors = ClaimAnchors(atlas.mesh, self._source, self._destination)
        self._confidence_anchors: Optional[ConfidenceAnchors] = None

    @classmethod
    def for_scenario(cls, scenario, config: Optional[PipelineConfig] = None) -> "GeolocationPipeline":
        """Pipeline over a scenario's services.

        Construction is pure (constraints only hold configuration and
        service references; the anchor table fills lazily with pure
        functions of its keys), so per-country workers can each build
        their own pipeline and classify identically to a shared one —
        the property the parallel executor relies on.
        """
        return cls(
            ipmap=scenario.ipmap,
            atlas=scenario.atlas,
            stats=scenario.stats,
            latency=scenario.world.latency,
            config=config,
        )

    @property
    def config(self) -> PipelineConfig:
        return self._config

    def classify_dataset(
        self,
        dataset: VolunteerDataset,
        source_traces: SourceTraces,
        tracer=None,
        metrics=None,
    ) -> DatasetGeolocation:
        """Classify every contacted host; funnel-account the verdicts.

        When a :class:`repro.obs.Tracer` is supplied, one
        ``geoloc_decision`` event is emitted per unique address — which
        constraint fired and the evidence values — plus one closing
        ``country_funnel`` event, making every exclusion in the paper's
        section-5 funnel auditable from the run journal.

        With a :class:`repro.obs.MetricsRegistry` the same loop counts
        verdict statuses, constraint outcomes and evidence latencies
        into labeled series.  These are **study** metrics (deterministic
        functions of the scenario, like the events): the simulated
        network makes the latency histograms exact.
        """
        result = DatasetGeolocation(country_code=dataset.country_code)
        rdns_records: Dict[str, Optional[str]] = {}
        # Funnel accounting is per host *observation* (one per site whose
        # page requested the host), matching section 5's "~26K domains".
        observation_counts: Dict[str, int] = {}
        for measurement in dataset.websites.values():
            if not measurement.loaded:
                continue
            for host, address in measurement.dns.items():
                result.host_to_address.setdefault(host, address)
                observation_counts[host] = observation_counts.get(host, 0) + 1
            rdns_records.update(measurement.rdns)

        addresses: Dict[str, List[str]] = {}
        for host, address in result.host_to_address.items():
            addresses.setdefault(address, []).append(host)

        verdicts = self.classify_addresses(
            addresses, dataset.country_code, source_traces, rdns_records,
            result.funnel,
        )
        confidence_inputs: Dict[str, ConfidenceInputs] = {}
        if self._config.confidence:
            confidence_inputs = self.score_confidence(verdicts, source_traces)
        for address, verdict in verdicts.items():
            result.verdicts[address] = verdict
            weight = sum(observation_counts.get(host, 1) for host in verdict.hosts)
            self._account(verdict, weight, result.funnel)
            if metrics is not None:
                metrics.counter(
                    "geoloc_verdicts_total", {"status": verdict.status},
                    help="server verdicts by final status",
                ).inc()
                if verdict.discarded_by:
                    metrics.counter(
                        "geoloc_discards_total", {"constraint": verdict.discarded_by},
                        help="servers discarded, by the constraint that fired",
                    ).inc()
                for check in verdict.checks:
                    metrics.counter(
                        "geoloc_constraint_checks_total",
                        {"constraint": check.constraint, "status": check.status},
                        help="constraint evaluations by outcome",
                    ).inc()
                    observed = round_evidence_ms(check.observed_ms)
                    if observed is not None:
                        metrics.histogram(
                            "geoloc_evidence_ms", {"constraint": check.constraint},
                            buckets=MS_BUCKETS, unit="ms",
                            help="constraint evidence latencies (simulated, deterministic)",
                        ).observe(observed)
            if tracer is not None:
                tracer.event(
                    "geoloc_decision",
                    address=address,
                    hosts=list(verdict.hosts),
                    weight=weight,
                    status=verdict.status,
                    claim_country=verdict.claimed_country,
                    claim_city=verdict.claim.city_key if verdict.claim else None,
                    discarded_by=verdict.discarded_by or None,
                    checks=[
                        {
                            "constraint": check.constraint,
                            "status": check.status,
                            "reason": check.reason,
                            "observed_ms": round_evidence_ms(check.observed_ms),
                            "expected_ms": round_evidence_ms(check.expected_ms),
                        }
                        for check in verdict.checks
                    ],
                )
            if verdict.confidence is not None:
                inputs = confidence_inputs.get(address)
                if metrics is not None:
                    metrics.histogram(
                        "geoloc_confidence", {"status": verdict.status},
                        buckets=CONFIDENCE_BUCKETS,
                        help="calibrated verdict confidence (annotation layer)",
                    ).observe(verdict.confidence)
                if tracer is not None and inputs is not None:
                    # Annotation-layer event: stripped with the
                    # diagnostics so confidence-on and confidence-off
                    # stripped journals stay byte-identical.
                    tracer.event(
                        "geoloc_confidence",
                        address=address,
                        status=verdict.status,
                        kind=CONFIDENCE_KINDS[inputs.kind],
                        confidence=round_confidence(verdict.confidence),
                        margin_source=round_confidence(inputs.margin_src),
                        margin_destination=round_confidence(inputs.margin_dst),
                        consistency=round_confidence(inputs.consistency),
                        rdns_hint=inputs.rdns_hint,
                    )
        funnel = result.funnel
        funnel_stages = {
            "total_hosts": funnel.total_hosts,
            "unlocated": funnel.unlocated,
            "local": funnel.local,
            "nonlocal_candidates": funnel.nonlocal_candidates,
            "discarded_source": funnel.discarded_source,
            "discarded_destination": funnel.discarded_destination,
            "discarded_rdns": funnel.discarded_rdns,
            "verified_nonlocal": funnel.verified_nonlocal,
            "destination_traceroutes": funnel.destination_traceroutes,
        }
        if metrics is not None:
            metrics.counter(
                "geoloc_countries_total", help="datasets classified",
            ).inc()
            for stage, count in funnel_stages.items():
                metrics.counter(
                    "geoloc_funnel_total", {"stage": stage},
                    help="section-5 funnel, host observations per stage",
                ).inc(count)
        if tracer is not None:
            tracer.event(
                "country_funnel",
                country=dataset.country_code,
                funnel=funnel_stages,
            )
        return result

    def classify_addresses(
        self,
        addresses: Dict[str, List[str]],
        measurement_country: str,
        source_traces: SourceTraces,
        rdns_records: Dict[str, Optional[str]],
        funnel: FunnelCounters,
    ) -> Dict[str, ServerVerdict]:
        """One verdict per address, in input order.

        Only ``funnel.destination_traceroutes`` is touched here (the
        logical launch counter); stage accounting happens in the caller.
        """
        return {
            address: self._classify_address(
                address, hosts, measurement_country, source_traces,
                rdns_records.get(address), funnel,
            )
            for address, hosts in addresses.items()
        }

    def score_confidence(
        self,
        verdicts: Dict[str, ServerVerdict],
        source_traces: SourceTraces,
    ) -> Dict[str, ConfidenceInputs]:
        """Annotate every verdict with a calibrated confidence score.

        Each verdict goes through
        :func:`repro.core.geoloc.confidence.gather_inputs` and
        :func:`~repro.core.geoloc.confidence.combine_score`.  Returns the
        gathered scoring inputs per address so the caller can journal
        them; mutates only ``verdict.confidence``.
        """
        anchors = self._confidence_anchors
        if anchors is None:
            anchors = self._confidence_anchors = ConfidenceAnchors(
                self._atlas, self._anchors
            )
        source_city = source_traces.city
        inputs_map: Dict[str, ConfidenceInputs] = {}
        for address, verdict in verdicts.items():
            inputs = gather_inputs(verdict, source_city, anchors)
            verdict.confidence = combine_score(inputs)
            inputs_map[address] = inputs
        return inputs_map

    # -- the constraint ladder -------------------------------------------------
    def _classify_address(
        self,
        address: str,
        hosts: List[str],
        measurement_country: str,
        source_traces: SourceTraces,
        ptr_hostname: Optional[str],
        funnel: FunnelCounters,
    ) -> ServerVerdict:
        claim = self._ipmap.locate(address)
        if claim is None:
            return ServerVerdict(address=address, hosts=hosts, status=ServerStatus.UNLOCATED)
        if claim.country_code == measurement_country:
            return ServerVerdict(address=address, hosts=hosts, status=ServerStatus.LOCAL, claim=claim)

        checks: List[ConstraintResult] = []
        if self._config.enable_source:
            sol_floor, floor = self._anchors.source(source_traces.city, claim.city)
            check = self._source.judge(source_traces.traces.get(address), sol_floor, floor)
            checks.append(check)
            if check.failed:
                return ServerVerdict(
                    address=address, hosts=hosts, status=ServerStatus.DISCARDED,
                    claim=claim, discarded_by=self._source.name, checks=checks,
                )
        if self._config.enable_destination:
            probe, sol_floor, bound = self._anchors.destination(claim.city)
            trace = None
            if probe is not None:
                # Logical launch count — memoisation below may serve the
                # trace from another country's identical measurement.
                funnel.destination_traceroutes += 1
                trace = self._atlas.dest_traceroute(probe, address)
            check = self._destination.judge(trace, sol_floor, bound)
            checks.append(check)
            if check.failed:
                return ServerVerdict(
                    address=address, hosts=hosts, status=ServerStatus.DISCARDED,
                    claim=claim, discarded_by=self._destination.name, checks=checks,
                )
        if self._config.enable_rdns:
            check = self._rdns.check(ptr_hostname, claim.city)
            checks.append(check)
            if check.failed:
                return ServerVerdict(
                    address=address, hosts=hosts, status=ServerStatus.DISCARDED,
                    claim=claim, discarded_by=self._rdns.name, checks=checks,
                )
        return ServerVerdict(
            address=address, hosts=hosts, status=ServerStatus.NONLOCAL_VERIFIED,
            claim=claim, checks=checks,
        )

    @staticmethod
    def _account(verdict: ServerVerdict, host_count: int, funnel: FunnelCounters) -> None:
        funnel.total_hosts += host_count
        if verdict.status == ServerStatus.UNLOCATED:
            funnel.unlocated += host_count
        elif verdict.status == ServerStatus.LOCAL:
            funnel.local += host_count
        else:
            funnel.nonlocal_candidates += host_count
            if verdict.status == ServerStatus.DISCARDED:
                if verdict.discarded_by == "source":
                    funnel.discarded_source += host_count
                elif verdict.discarded_by == "destination":
                    funnel.discarded_destination += host_count
                elif verdict.discarded_by == "rdns":
                    funnel.discarded_rdns += host_count
            elif verdict.status == ServerStatus.NONLOCAL_VERIFIED:
                funnel.verified_nonlocal += host_count
