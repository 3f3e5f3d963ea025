"""Longitudinal what-if analysis: regulation taking effect.

The paper frames its dataset as a baseline for longitudinal studies —
e.g. Jordan's Data Protection Law became effective the day after the
Jordanian measurement, and the Indian, Pakistani and Thai laws were not
yet in force.  This module models the follow-up: tracker operators
respond to an enacted localization regime by deploying in-country,
data-residency-restricted PoPs; re-running the study then quantifies the
change in cross-border flows the future measurement would observe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.determinism import stable_rng
from repro.netsim.servers import PoP
from repro.study import StudyOutcome, run_study
from repro.worldgen.builder import Scenario
from repro.worldgen.datacenters import datacenter_city

__all__ = ["ComplianceReport", "LongitudinalStudy"]


@dataclass
class ComplianceReport:
    """What changed when a regulation took effect."""

    country_code: str
    localized_orgs: List[str]
    before_pct: float
    after_pct: float

    @property
    def reduction_points(self) -> float:
        return self.before_pct - self.after_pct


class LongitudinalStudy:
    """Snapshot -> enact -> re-measure, over one scenario.

    .. warning:: ``enact_localization`` mutates the scenario's world (it
       deploys new PoPs).  Use a dedicated scenario instance for
       longitudinal experiments.
    """

    def __init__(self, scenario: Scenario, seed: str = "longitudinal"):
        self._scenario = scenario
        self._seed = seed

    def snapshot(self, countries: Sequence[str]) -> StudyOutcome:
        return run_study(self._scenario, countries=list(countries))

    def foreign_serving_orgs(self, country_code: str) -> List[str]:
        """Tracker orgs currently serving *country_code* from abroad."""
        client = self._scenario.volunteers[country_code].city
        names: List[str] = []
        for name, deployment in sorted(self._scenario.world.deployments.items()):
            if not deployment.org.is_tracker:
                continue
            try:
                pop = deployment.serve(client)
            except LookupError:
                continue
            if pop.country_code != country_code:
                names.append(name)
        return names

    def enact_localization(
        self,
        country_code: str,
        orgs: Optional[Sequence[str]] = None,
        adoption: float = 0.7,
    ) -> List[str]:
        """Deploy in-country, residency-restricted PoPs for compliant orgs.

        *orgs* picks the compliant operators explicitly; otherwise each
        foreign-serving tracker org complies independently with
        probability *adoption* (larger operators with more existing PoPs
        comply more readily, matching the paper's observation that only
        countries with existing big-tech infrastructure can enforce
        localization).
        """
        if not 0.0 < adoption <= 1.0:
            raise ValueError("adoption must be in (0, 1]")
        world = self._scenario.world
        city = datacenter_city(world.geo, country_code)
        candidates = orgs if orgs is not None else self.foreign_serving_orgs(country_code)
        localized: List[str] = []
        for name in candidates:
            deployment = world.deployments.get(name)
            if deployment is None:
                raise KeyError(f"no deployment for org {name!r}")
            if orgs is None:
                rng = stable_rng(self._seed, "comply", country_code, name)
                footprint_bonus = min(0.25, 0.03 * len(deployment.pops))
                if rng.random() >= adoption + footprint_bonus:
                    continue
            if any(p.country_code == country_code for p in deployment.pops):
                continue
            allocation = world.ips.allocate(
                deployment.pops[0].allocation.asn,
                city,
                label=f"{name}/{country_code.lower()}-resid",
            )
            deployment.pops.append(PoP(
                org_name=name,
                name=f"{country_code.lower()}-resid",
                city=city,
                allocation=allocation,
                hosting_asn=deployment.pops[0].hosting_asn,
            ))
            # Residency deployments serve only domestic users.
            deployment.policy.restricted[country_code] = {country_code}
            localized.append(name)
        # The deployments changed under GeoDNS: drop its memoised answers.
        world.dns.answer_cache.clear()
        return localized

    def measure_effect(
        self,
        country_code: str,
        orgs: Optional[Sequence[str]] = None,
        adoption: float = 0.7,
    ) -> ComplianceReport:
        """Full experiment: measure, enact, re-measure."""
        before = self.snapshot([country_code])
        before_pct = before.prevalence().combined_pct_by_country()[country_code]
        localized = self.enact_localization(country_code, orgs, adoption)
        after = self.snapshot([country_code])
        after_pct = after.prevalence().combined_pct_by_country()[country_code]
        return ComplianceReport(
            country_code=country_code,
            localized_orgs=localized,
            before_pct=before_pct,
            after_pct=after_pct,
        )
