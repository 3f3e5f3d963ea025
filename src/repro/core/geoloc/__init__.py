"""Multi-constraint server geolocation (section 4.1)."""

from repro.core.geoloc.constraints import (
    ClaimAnchors,
    ConstraintResult,
    ConstraintStatus,
    DestinationConstraint,
    ReverseDNSConstraint,
    SourceConstraint,
    adjusted_latency_ms,
    round_evidence_ms,
    sol_floor_ms,
    source_latency_floor_ms,
)
from repro.core.geoloc.latency_stats import (
    LatencyStatsProvider,
    StatsChain,
    SyntheticStatsProvider,
    VERIZON_HUB_CITIES,
    default_stats_chain,
)
from repro.core.geoloc.validation import (
    ValidationCounts,
    misclassified_servers,
    validate_against_truth,
)
from repro.core.geoloc.pipeline import (
    DatasetGeolocation,
    FunnelCounters,
    GeolocationPipeline,
    PipelineConfig,
    ServerStatus,
    ServerVerdict,
    SourceTraces,
)

__all__ = [
    "ClaimAnchors",
    "ConstraintResult",
    "ConstraintStatus",
    "DatasetGeolocation",
    "DestinationConstraint",
    "FunnelCounters",
    "GeolocationPipeline",
    "LatencyStatsProvider",
    "PipelineConfig",
    "ReverseDNSConstraint",
    "ServerStatus",
    "ServerVerdict",
    "SourceConstraint",
    "SourceTraces",
    "StatsChain",
    "ValidationCounts",
    "SyntheticStatsProvider",
    "VERIZON_HUB_CITIES",
    "adjusted_latency_ms",
    "default_stats_chain",
    "misclassified_servers",
    "round_evidence_ms",
    "sol_floor_ms",
    "source_latency_floor_ms",
    "validate_against_truth",
]
