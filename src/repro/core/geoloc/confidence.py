"""Calibrated per-server confidence scores for geolocation verdicts.

The constraint battery yields binary verdicts; "Overconfident
Coordinates" argues traceroute geolocation needs quantified uncertainty,
and "Leveraging Traceroute Inconsistencies" shows cross-vantage
disagreement is itself signal.  This module scores every verdict with a
probability-shaped confidence in ``[0, 1]`` — *how likely is the binary
foreign/local call to be right?* — from two evidence families:

* **Constraint margins** — how far the adjusted first/last-hop RTT
  evidence sits from the SOL and 80 %-floor thresholds of
  :mod:`repro.core.geoloc.constraints`.  A verdict decided one
  microsecond from the threshold is a coin flip; one decided with a 3x
  margin is not.  Margins are expressed as the relative distance
  ``|observed - threshold| / threshold`` and squashed monotonically into
  ``[0, 1)`` — tightening a margin can never *raise* confidence (the
  property-based suite locks this down).
* **Cross-vantage consistency** — the same destination traced from
  probes in several countries via the ``atlas.dest_traces``
  cross-country memo.  Each vantage votes on whether its RTT is
  physically consistent with the claimed city (above the SOL floor,
  below an inflation-bounded ceiling); disagreement between vantages
  lowers confidence in the claim, which *raises* confidence in a
  discard and *lowers* it in a verification.

Confidence is an **annotation layer**: scoring never changes a verdict,
a funnel counter, a summary, or a stripped journal.  Scoring is two
steps per verdict: :func:`gather_inputs` collects margins, the vantage
vote and the rDNS hint, and :func:`combine_score` maps them to a score.
The SOL floors it needs come from the pipeline's
:class:`~repro.core.geoloc.constraints.ClaimAnchors` table — the same
values the constraint ladder compared against.

Base rates per outcome class are calibrated against the seeded ground
truth of the default world (``gamma confidence --validate`` reports the
reliability diagram, Brier score and ECE; docs/geolocation-confidence.md
records the methodology).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.geoloc.constraints import ClaimAnchors, adjusted_latency_ms, sol_floor_ms
from repro.core.geoloc.verdicts import DatasetGeolocation, ServerStatus, ServerVerdict
from repro.netsim.geography import City

__all__ = [
    "CONFIDENCE_KINDS",
    "ConfidenceAnchors",
    "ConfidenceInputs",
    "ConfidenceReport",
    "combine_score",
    "cross_vantage_consistency",
    "gather_inputs",
    "margin_score",
    "round_confidence",
    "score_verdict",
]

# -- outcome kinds ------------------------------------------------------------
# Every verdict maps to exactly one kind; the kind indexes the base-rate
# and weight tables below.
K_UNLOCATED = 0
K_LOCAL = 1
K_VERIFIED = 2
K_DISC_SOURCE_EVIDENCE = 3    # source SOL / 80 %-rule fail (margin known)
K_DISC_SOURCE_PROCEDURAL = 4  # missing / unreached / hopless source trace
K_DISC_DEST_EVIDENCE = 5      # destination SOL / strict-bound fail
K_DISC_DEST_PROCEDURAL = 6    # no probe / unreached / hopless dest trace
K_DISC_RDNS = 7               # contradicting PTR hint

#: Kind code -> stable label (journal events, reports, docs).
CONFIDENCE_KINDS: Tuple[str, ...] = (
    "unlocated",
    "local",
    "verified",
    "discard_source_evidence",
    "discard_source_procedural",
    "discard_destination_evidence",
    "discard_destination_procedural",
    "discard_rdns",
)

# -- calibrated parameters ----------------------------------------------------
# Base rates and weights are fitted to the measured accuracy of each
# outcome class on the default 23-country world (the binary call
# "verified == truly foreign" scored against ``World.ips.true_country``).
# The load-bearing empirical facts behind the numbers:
#
# * verified / local verdicts are right ~99.9 % of the time (the paper's
#   precision guarantee plus the geodb's 9 % wrong-country error rate);
# * a *discarded or unlocated* candidate is "called local", and most
#   candidates are truly foreign — so discard classes sit at *low*
#   accuracy unless the evidence says otherwise;
# * for evidence discards the margin is strongly informative (accuracy
#   climbs ~0.10 -> ~0.99 across margin quartiles): an RTT far below the
#   claimed city's floor means the server is much closer than claimed —
#   usually in-country;
# * for procedural discards the cross-vantage vote is the signal:
#   accuracy 0.002 when every vantage agrees with the claim (the claim
#   was right, the discard wrong) vs 0.54 when they disagree.
#
# Re-derive with ``gamma confidence --validate`` after touching the
# constraint ladder, the consistency vote, or the geodb error model.
CONF_BASE: Tuple[float, ...] = (
    0.60,   # unlocated: no claim, no evidence; the measured base rate
    0.985,  # local: in-country claims are wrong only via geodb errors
    0.98,   # verified: the paper's ~100 % precision class
    0.66,   # discard (source evidence), at a neutral margin
    0.27,   # discard (source procedural), at a neutral vantage vote
    0.50,   # discard (destination evidence; not hit by the default world)
    0.03,   # discard (destination procedural): probe-less claimed
            # countries, almost always truly foreign
    0.05,   # discard (rdns): contradicted claims are mostly still foreign
)

#: Margin weight per kind: how far a decisive margin may move the score.
CONF_MARGIN_WEIGHT: Tuple[float, ...] = (
    0.0, 0.0, 0.02, 1.90, 0.0, 0.90, 0.0, 0.0,
)

#: Consistency direction per kind: +1 when vantage agreement with the
#: claim supports the verdict (verified), -1 when it undermines it
#: (every discard — an agreeing claim means the discard was wrong).
CONF_CONSISTENCY_SIGN: Tuple[float, ...] = (
    0.0, 0.0, 1.0, -1.0, -1.0, -1.0, -1.0, -1.0,
)

#: Consistency weight per kind (same axis as the other tables).
CONF_CONSISTENCY_WEIGHT: Tuple[float, ...] = (
    0.0, 0.0, 0.01, 0.10, 0.54, 0.10, 0.01, 0.05,
)

#: Bonus for a verified claim whose PTR hostname hint agrees.
CONF_RDNS_BONUS = 0.005

#: Scores are clipped into this band: nothing is ever *certain*.
CONF_FLOOR = 0.02
CONF_CEIL = 0.99

#: Vantage countries (beyond the claimed country's probe) consulted for
#: the consistency vote.
CONSISTENCY_VANTAGES = 2

#: Inflation ceiling for a vantage vote: an RTT above
#: ``sol * inflation + slack`` is inconsistent with the claimed city.
CONSISTENCY_MAX_INFLATION = 4.0
CONSISTENCY_SLACK_MS = 40.0


def round_confidence(value: Optional[float]) -> Optional[float]:
    """Journal-stable form of a confidence score.

    Mirrors :func:`repro.core.geoloc.constraints.round_evidence_ms`:
    scores stay raw floats on the verdict and round only at the journal
    boundary.
    """
    return None if value is None else round(value, 6)


def _denom(threshold: float) -> float:
    """Margin denominator: the threshold, floored at 1 ms.

    Guards the relative margin against near-zero thresholds (a claimed
    city one town over).
    """
    return threshold if threshold > 1.0 else 1.0


def margin_ratio(observed: float, threshold: float) -> float:
    """Relative distance of the evidence from its decision threshold."""
    return abs(observed - threshold) / _denom(threshold)


def margin_score(ratio: float) -> float:
    """Squash a non-negative margin ratio into ``[0, 1)``, monotonically.

    ``r / (r + 1)``: a zero margin scores 0 (decided on the line), a
    margin equal to the threshold scores 0.5, and the score approaches 1
    as the margin grows.
    """
    if ratio < 0.0:
        ratio = 0.0
    return ratio / (ratio + 1.0)


class ConfidenceAnchors:
    """Per-city / per-address anchor values for scoring.

    SOL floors and the claimed country's probe are read from *anchors*,
    the pipeline's :class:`ClaimAnchors` table (a geometry-only table
    over ``atlas.mesh`` when none is given); vantage sets and
    consistency votes are memoised here.  Everything is a pure function
    of the (immutable) services and configuration, so scores never
    depend on how batches were split.
    """

    def __init__(self, atlas, anchors: Optional[ClaimAnchors] = None):
        self._atlas = atlas
        self._anchors = anchors if anchors is not None else ClaimAnchors(atlas.mesh)
        self._vantages: Dict[str, tuple] = {}
        self._consistency: Dict[str, Optional[float]] = {}

    def source_sol(self, source_city: City, claimed_city: City) -> float:
        """SOL floor for the volunteer -> claimed-city pair."""
        return self._anchors.source(source_city, claimed_city)[0]

    def dest_sol(self, claimed_city: City) -> float:
        """SOL floor from the claimed country's probe (NaN: no probe)."""
        return self._anchors.destination(claimed_city)[1]

    # -- cross-vantage consistency ----------------------------------------
    def _vantage_probes(self, claimed_city: City) -> tuple:
        """The claimed-country probe plus nearby foreign vantages."""
        probes = self._vantages.get(claimed_city.key)
        if probes is None:
            pool = []
            claimed_probe = self._anchors.destination(claimed_city)[0]
            if claimed_probe is not None:
                pool.append(claimed_probe)
            vantage_picker = getattr(self._atlas.mesh, "vantage_probes", None)
            if vantage_picker is not None:
                pool.extend(vantage_picker(
                    claimed_city, CONSISTENCY_VANTAGES,
                    exclude_country=claimed_city.country_code,
                ))
            probes = self._vantages[claimed_city.key] = tuple(pool)
        return probes

    def consistency(self, address: str, claimed_city: City) -> Optional[float]:
        """Fraction of vantages whose RTT is consistent with the claim.

        Each vantage probe traces *address* (served from the
        ``atlas.dest_traces`` cross-country memo, so countries share one
        measurement per ``(probe, address)``) and votes: consistent when
        the adjusted RTT lies between the SOL floor for the claimed city
        and an inflation-bounded ceiling.  ``None`` when no vantage
        produced usable evidence.
        """
        if address in self._consistency:
            return self._consistency[address]
        votes = agree = 0
        for probe in self._vantage_probes(claimed_city):
            trace = self._atlas.dest_traceroute(probe, address)
            if trace is None or not trace.reached:
                continue
            observed = adjusted_latency_ms(trace)
            if observed is None:
                continue
            votes += 1
            sol = sol_floor_ms(probe.city, claimed_city)
            ceiling = sol * CONSISTENCY_MAX_INFLATION + CONSISTENCY_SLACK_MS
            if sol <= observed <= ceiling:
                agree += 1
        value = agree / votes if votes else None
        self._consistency[address] = value
        return value


@dataclass(frozen=True)
class ConfidenceInputs:
    """Everything the scoring formula consumes, for one verdict.

    ``margin_src`` / ``margin_dst`` are raw margin *ratios* (pre-squash),
    ``None`` when that constraint produced no usable margin.
    """

    kind: int
    margin_src: Optional[float] = None
    margin_dst: Optional[float] = None
    consistency: Optional[float] = None
    rdns_hint: bool = False


def _check_by_name(verdict: ServerVerdict, name: str):
    for check in verdict.checks:
        if check.constraint == name:
            return check
    return None


def gather_inputs(
    verdict: ServerVerdict,
    source_city: City,
    anchors: ConfidenceAnchors,
) -> ConfidenceInputs:
    """Extract the scoring inputs for one verdict.

    Margins come from the evidence already recorded on the verdict's
    :class:`ConstraintResult` list; thresholds the constraints did not
    record (the SOL floor behind a stats-less source pass, the
    destination SOL behind a pass) are recomputed from *anchors* with
    the same helpers the constraints used.
    """
    status = verdict.status
    if status == ServerStatus.UNLOCATED:
        return ConfidenceInputs(kind=K_UNLOCATED)
    if status == ServerStatus.LOCAL:
        return ConfidenceInputs(kind=K_LOCAL)

    claim_city = verdict.claim.city
    src = _check_by_name(verdict, "source")
    dst = _check_by_name(verdict, "destination")
    rdns = _check_by_name(verdict, "rdns")
    consistency = anchors.consistency(verdict.address, claim_city)

    if status == ServerStatus.DISCARDED:
        # Margins describe only the *deciding* constraint: how decisive
        # was the discard.  (Earlier passes supported the claim the
        # discard rejects; mixing them in would blur the signal.)
        if verdict.discarded_by == "rdns":
            return ConfidenceInputs(kind=K_DISC_RDNS, consistency=consistency)
        if verdict.discarded_by == "source":
            if src is not None and src.observed_ms is not None and src.expected_ms is not None:
                return ConfidenceInputs(
                    kind=K_DISC_SOURCE_EVIDENCE,
                    margin_src=margin_ratio(src.observed_ms, src.expected_ms),
                    consistency=consistency,
                )
            return ConfidenceInputs(kind=K_DISC_SOURCE_PROCEDURAL, consistency=consistency)
        if dst is not None and dst.observed_ms is not None and dst.expected_ms is not None:
            return ConfidenceInputs(
                kind=K_DISC_DEST_EVIDENCE,
                margin_dst=margin_ratio(dst.observed_ms, dst.expected_ms),
                consistency=consistency,
            )
        return ConfidenceInputs(kind=K_DISC_DEST_PROCEDURAL, consistency=consistency)

    # Verified: every pass contributes its margin.
    margin_src = margin_dst = None
    if src is not None and src.passed and src.observed_ms is not None:
        threshold = src.expected_ms
        if threshold is None:  # "SOL ok; no published statistics for pair"
            threshold = anchors.source_sol(source_city, claim_city)
        margin_src = margin_ratio(src.observed_ms, threshold)
    if dst is not None and dst.passed and dst.observed_ms is not None:
        threshold = anchors.dest_sol(claim_city)
        if threshold == threshold:  # not NaN (probe existed, since it passed)
            margin_dst = margin_ratio(dst.observed_ms, threshold)
    return ConfidenceInputs(
        kind=K_VERIFIED,
        margin_src=margin_src,
        margin_dst=margin_dst,
        consistency=consistency,
        rdns_hint=rdns is not None and rdns.passed,
    )


def combine_score(inputs: ConfidenceInputs) -> float:
    """The calibrated scoring formula over gathered inputs."""
    kind = inputs.kind
    # Margin term: mean of the available squashed margins, neutral 0.5
    # when the kind carries no margin evidence.
    total = 0.0
    count = 0
    if inputs.margin_src is not None:
        total = total + margin_score(inputs.margin_src)
        count += 1
    if inputs.margin_dst is not None:
        total = total + margin_score(inputs.margin_dst)
        count += 1
    margin = total / count if count else 0.5
    consistency = 0.5 if inputs.consistency is None else inputs.consistency

    conf = CONF_BASE[kind]
    conf = conf + CONF_MARGIN_WEIGHT[kind] * (margin - 0.5)
    conf = conf + CONF_CONSISTENCY_WEIGHT[kind] * CONF_CONSISTENCY_SIGN[kind] * (consistency - 0.5)
    conf = conf + (CONF_RDNS_BONUS if inputs.rdns_hint else 0.0)
    if conf < CONF_FLOOR:
        conf = CONF_FLOOR
    elif conf > CONF_CEIL:
        conf = CONF_CEIL
    return conf


def score_verdict(
    verdict: ServerVerdict,
    source_city: City,
    anchors: ConfidenceAnchors,
) -> float:
    """Confidence for one verdict (gather + combine)."""
    return combine_score(gather_inputs(verdict, source_city, anchors))


# -- reporting ----------------------------------------------------------------
@dataclass(frozen=True)
class ConfidenceReport:
    """Per-country confidence summary, derived on demand.

    A pure view over scored verdicts — it is never stored on study
    artefacts, so enabling confidence cannot change their bytes beyond
    the per-verdict annotation itself.
    """

    country_code: str
    scored: int
    mean_confidence: Optional[float]
    by_status: Dict[str, Tuple[int, Optional[float]]]
    low_confidence: Tuple[Tuple[str, float], ...]

    @classmethod
    def from_geolocation(
        cls, geolocation: DatasetGeolocation, low_n: int = 5
    ) -> "ConfidenceReport":
        scored: List[Tuple[str, str, float]] = [
            (verdict.address, verdict.status, verdict.confidence)
            for verdict in geolocation.verdicts.values()
            if verdict.confidence is not None
        ]
        by_status: Dict[str, List[float]] = {}
        for _address, status, conf in scored:
            by_status.setdefault(status, []).append(conf)
        worst = sorted(scored, key=lambda row: (row[2], row[0]))[:low_n]
        return cls(
            country_code=geolocation.country_code,
            scored=len(scored),
            mean_confidence=(
                sum(conf for _, _, conf in scored) / len(scored) if scored else None
            ),
            by_status={
                status: (len(values), sum(values) / len(values))
                for status, values in sorted(by_status.items())
            },
            low_confidence=tuple((address, conf) for address, _, conf in worst),
        )

    def as_dict(self) -> dict:
        return {
            "country": self.country_code,
            "scored": self.scored,
            "mean_confidence": round_confidence(self.mean_confidence),
            "by_status": {
                status: {"count": count, "mean": round_confidence(mean)}
                for status, (count, mean) in self.by_status.items()
            },
            "low_confidence": [
                {"address": address, "confidence": round_confidence(conf)}
                for address, conf in self.low_confidence
            ],
        }


def cross_vantage_consistency(
    atlas, address: str, claimed_city: City
) -> Optional[float]:
    """One-shot consistency probe (API convenience; anchors preferred)."""
    return ConfidenceAnchors(atlas).consistency(address, claimed_city)
