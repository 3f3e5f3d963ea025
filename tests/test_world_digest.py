"""Golden digest of the default world.

``build_scenario()`` is a pure function of its seed: every site, every
embedding, every target list and every volunteer is drawn from seeded
generators.  The digest below pins all of it at once, so a change to how
the world is *built* (indexes, sharing, ordering) cannot silently change
*what* is built.  When a change means to move the world, regenerate the
constant and say why in CHANGES.md:

    PYTHONPATH=src python -c "from repro import build_scenario; \
        from tests.test_world_digest import world_digest; \
        print(world_digest(build_scenario()))"
"""

from __future__ import annotations

import hashlib
import json

from repro import build_scenario
from repro.domains import validate_hostname

GOLDEN_WORLD_DIGEST = "6bdb4d1c4f4029ca05747bef811439d916881c561a58116275c788f58075b5d5"


def world_fingerprint(scenario) -> dict:
    """Every generated fact of a scenario's web, lists and volunteers."""
    dns = scenario.world.dns
    sites = [
        {
            "domain": site.domain,
            "country": site.country_code,
            "category": site.category,
            "owner": site.owner_org,
            "hosting": dns.deployment_for(site.domain).org.name,
            "complexity": site.complexity,
            "popularity": site.popularity,
            "adult": site.adult,
            "banned": site.banned,
            "listed_in": list(site.listed_in),
            "embedded": [
                [r.host, r.kind, r.load_probability, list(r.countries)]
                for r in site.embedded
            ],
        }
        for site in scenario.catalog
    ]
    targets = {
        cc: [t.regional, t.government, t.ranking_source]
        for cc, t in sorted(scenario.targets.items())
    }
    volunteers = {
        cc: [v.ip, v.city.key, sorted(v.opted_out_sites)]
        for cc, v in sorted(scenario.volunteers.items())
    }
    return {
        "sites": sites,
        "targets": targets,
        "tranco": scenario.tranco.domains(),
        "volunteers": volunteers,
    }


def world_digest(scenario) -> str:
    encoded = json.dumps(world_fingerprint(scenario), sort_keys=True)
    return hashlib.sha256(encoded.encode()).hexdigest()


def test_default_world_is_pinned(scenario):
    assert world_digest(scenario) == GOLDEN_WORLD_DIGEST


def test_builds_carry_no_state_between_calls():
    """A subset build in between leaves the next full build unchanged."""
    first = world_digest(build_scenario())
    subset = build_scenario(countries=["CA", "NZ"])
    assert sorted(subset.targets) == ["CA", "NZ"]
    assert world_digest(build_scenario()) == first == GOLDEN_WORLD_DIGEST


def test_generated_names_are_valid_and_normalised(scenario):
    """Every site domain and embedded host is already in the form
    ``validate_hostname`` returns, not merely accepted by it."""
    for site in scenario.catalog:
        assert validate_hostname(site.domain) == site.domain
        for resource in site.embedded:
            assert validate_hostname(resource.host) == resource.host, (site.domain, resource.host)
