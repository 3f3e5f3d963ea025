"""Website generation from country profiles.

Produces each measurement country's regional and government sites (with
their tracker embeddings drawn from the country profile) plus the
multi-national platform sites that chart in many countries.  Everything
is deterministic in the site domain, so repeated builds yield identical
webs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.determinism import stable_rng
from repro.domains import PUBLIC_SUFFIXES
from repro.netsim.distance import city_distance_km
from repro.netsim.geography import GeoRegistry
from repro.web.website import CATEGORY_GOVERNMENT, CATEGORY_REGIONAL, EmbeddedResource, ResourceKind, Website
from repro.worldgen.orgspec import OrgKind, OrgSpec
from repro.worldgen.profiles import CountryProfile

__all__ = ["GeneratedSite", "generate_country_sites", "generate_global_sites", "FOREIGN_HOSTING_ANCHORS"]


@dataclass(frozen=True)
class GeneratedSite:
    """A website plus the deployment that serves it."""

    website: Website
    hosting_org: str


_SITE_WORDS = (
    "dailynews", "herald", "market", "bazaar", "bankone", "portal", "tvplus",
    "sporting", "weathernow", "jobsboard", "automart", "foodie", "technow",
    "travelhub", "estates", "cinemax", "gazette", "tribune", "chronicle",
    "express", "metro", "observer", "courier", "bulletin", "monitor",
    "lifestyle", "wellness", "edunet", "shopzone", "dealfinder",
    "streambox", "musicbay", "gamespot2", "forumhub", "qanda", "classify",
    "recipes", "fashionista", "kidsworld", "seniorcare", "petcare", "gardenpro",
    "fixitall", "artscene", "booknook", "historybuff", "sciencedaily2",
    "mapquest2", "transit", "radionet", "newsflash", "primetime", "localvoice",
    "cityguide", "villagenet", "coastline", "highlands", "rivervalley",
    "sunrise", "moonlight", "staratlas", "comet", "meteor", "aurora",
    "horizon", "zenith", "pinnacle", "summit", "plateau", "canyon",
)

_MINISTRIES = (
    "health", "finance", "education", "interior", "justice", "tax", "customs",
    "labor", "energy", "transport", "agriculture", "environment", "foreign",
    "defense", "tourism", "stats", "post", "parliament", "courts",
    "immigration", "water", "mining", "sports", "culture", "science",
    "housing", "planning", "trade", "industry", "fisheries", "forestry",
    "youth", "women", "welfare", "pensions", "police", "fire", "disaster",
    "elections", "archives", "library", "museums", "heritage", "standards",
    "meteorology", "aviation", "maritime", "railways", "roads", "telecom",
)

#: Countries that host foreign publisher sites, with their hosting org.
FOREIGN_HOSTING_ANCHORS: Dict[str, str] = {
    "DE": "Hosting-DE",
    "FR": "Hosting-FR",
    "US": "Hosting-US",
    "AU": "Hosting-AU",
    "SG": "Hosting-SG",
}

#: How often a country's regional publishers host abroad.
_FOREIGN_HOSTING_RATE: Dict[str, float] = {
    "NZ": 0.55, "RW": 0.4, "UG": 0.4, "AZ": 0.3, "JO": 0.35, "QA": 0.3,
    "PK": 0.3, "LB": 0.3, "DZ": 0.3, "EG": 0.3, "SA": 0.25, "AE": 0.2,
    "LK": 0.15, "TH": 0.2, "AR": 0.2, "GB": 0.1, "JP": 0.08, "AU": 0.08,
    "RU": 0.05, "TW": 0.1, "IN": 0.05, "CA": 0.05, "US": 0.0,
}


def _poisson(rng, mean: float) -> int:
    """Small-mean Poisson draw via inversion (deterministic, stdlib only)."""
    if mean <= 0:
        return 0
    import math

    level = math.exp(-mean)
    k, product = 0, rng.random()
    while product > level:
        k += 1
        product *= rng.random()
    return k


def _embedding_for(
    profile: CountryProfile,
    domain: str,
    category: str,
    specs: Dict[str, OrgSpec],
) -> List[EmbeddedResource]:
    """Deterministic embedded-resource list for one site."""
    rng = stable_rng("embed", domain)
    resources: List[EmbeddedResource] = []
    is_gov = category == CATEGORY_GOVERNMENT
    monetized_rate = profile.gov_monetized_rate if is_gov else profile.monetized_rate
    monetized = rng.random() < monetized_rate

    def allowed(org_name: str) -> bool:
        if not is_gov or not profile.gov_allowed_orgs:
            return True
        return org_name in profile.gov_allowed_orgs

    # African pages fetch region-sharded hostnames ("af.<host>") from orgs
    # that operate the Nairobi edge; these resolve to the same deployment
    # but are distinct FQDNs, mirroring the per-region shard names real
    # trackers use.  This is what concentrates hosted-domain counts in
    # Kenya (Figure 7).
    african_shards = profile.country in ("RW", "UG", "EG", "KE")

    def embed_org(spec: OrgSpec, host_range: Tuple[int, int], flaky: bool = False) -> None:
        hosts = list(spec.effective_hosts)
        count = min(len(hosts), rng.randint(*host_range))
        # Ad-auction-driven resources only win some visits; analytics
        # snippets load every time.  This is the visit-to-visit
        # variability the paper flags as a single-crawl limitation.
        probability = rng.uniform(0.75, 0.95) if flaky else 1.0
        for host in rng.sample(sorted(hosts), count):
            resources.append(EmbeddedResource(
                host=host, kind=ResourceKind.SCRIPT, load_probability=probability,
            ))
            if african_shards and "KE" in spec.pops and rng.random() < 0.8:
                resources.append(EmbeddedResource(
                    host=f"af.{host}", kind=ResourceKind.SCRIPT, load_probability=probability,
                ))

    # Named-org adoption (majors, local trackers, regional orgs).
    adoption_iter = sorted(profile.major_adoption) if monetized else []
    for org_name in adoption_iter:
        probability = profile.major_adoption[org_name]
        if is_gov:
            probability = profile.gov_adoption_overrides.get(
                org_name, probability * profile.gov_major_factor
            )
        if not allowed(org_name) or rng.random() >= probability:
            continue
        spec = specs[org_name]
        host_range = profile.major_hosts_range if spec.kind == OrgKind.MAJOR else (1, 2)
        embed_org(spec, host_range)

    # Long-tail trackers.
    mean = profile.longtail_mean * (profile.gov_longtail_factor if is_gov else 1.0)
    if monetized and profile.longtail_pool and mean > 0:
        names = [name for name, _w in profile.longtail_pool]
        weights = [w for _n, w in profile.longtail_pool]
        wanted = _poisson(rng, mean)
        # A small fraction of sites in tracker-rich markets stack far more
        # trackers than typical — the outliers of section 6.2.
        if mean >= 1.0 and rng.random() < 0.12:
            wanted = wanted * 3 + 4
        picked: List[str] = []
        for _ in range(wanted * 3):
            if len(picked) >= wanted:
                break
            choice = rng.choices(names, weights=weights, k=1)[0]
            if choice not in picked and allowed(choice):
                picked.append(choice)
        for i, org_name in enumerate(picked):
            # Roughly a third of the long tail arrives via ad auctions.
            embed_org(specs[org_name], (1, 2), flaky=(i % 3 == 2))

    # Non-tracking third parties.
    content_names = sorted(n for n, s in specs.items() if s.kind == OrgKind.CONTENT)
    if content_names and profile.content_mean > 0:
        wanted = max(1, _poisson(rng, profile.content_mean))
        # CloudMesh (the everywhere-CDN) is far more popular than the rest.
        weights = [5.0 if name == "CloudMesh" else 1.0 for name in content_names]
        # dict.fromkeys, not set(): set iteration order depends on the
        # process hash seed and would leak nondeterminism into the rng
        # consumption order.
        for org_name in dict.fromkeys(rng.choices(content_names, weights=weights, k=wanted)):
            embed_org(specs[org_name], (1, 2))
    return resources


def _hosting_for(country_code: str, domain: str, registry: GeoRegistry) -> str:
    """Which hosting deployment serves a regional publisher site."""
    rng = stable_rng("hosting", domain)
    if rng.random() >= _FOREIGN_HOSTING_RATE.get(country_code, 0.1):
        return f"Hosting-{country_code}"
    home = registry.country(country_code).capital
    nearest = min(
        FOREIGN_HOSTING_ANCHORS,
        key=lambda cc: (city_distance_km(home, registry.country(cc).capital), cc),
    )
    return FOREIGN_HOSTING_ANCHORS[nearest]


def generate_country_sites(
    profile: CountryProfile,
    registry: GeoRegistry,
    specs: Dict[str, OrgSpec],
    regional_candidates: int = 92,
) -> List[GeneratedSite]:
    """All of one country's sites: regional candidates + government sites.

    More regional candidates than the 50-site quota are generated so the
    ranking/filtering pipeline has something to drop and back-fill
    (including a few adult and banned sites).
    """
    country = registry.country(profile.country)
    cc = profile.country
    cctld = country.cctld.lstrip(".")
    generated: List[GeneratedSite] = []

    for i in range(regional_candidates):
        word = _SITE_WORDS[i % len(_SITE_WORDS)]
        suffix = cctld if i % 2 == 0 else f"com.{cctld}"
        # Not every ccTLD has a com.<cc> second level in the suffix list;
        # fall back to the bare ccTLD.
        if suffix not in PUBLIC_SUFFIXES:
            suffix = cctld
        domain = f"{word}{i}.{suffix}"
        rng = stable_rng("site-meta", domain)
        adult = i in (61, 63, 65, 79)
        banned = i in (62, 66, 83)
        # Adult/banned sites are popular enough to chart in the raw top-50;
        # the target-list builder must drop and back-fill them.
        popularity = 590.0 + i if (adult or banned) else 600.0 - 6.0 * i + rng.uniform(0, 4)
        site = Website(
            domain=domain,
            country_code=cc,
            category=CATEGORY_REGIONAL,
            owner_org=f"Publisher {domain}",
            embedded=_embedding_for(profile, domain, CATEGORY_REGIONAL, specs),
            complexity=1.0 + rng.random() * 1.5,
            adult=adult,
            banned=banned,
            popularity=popularity,
        )
        generated.append(GeneratedSite(site, _hosting_for(cc, domain, registry)))

    gov_tld = country.gov_tlds[0].lstrip(".")
    for i in range(profile.gov_site_count):
        name = _MINISTRIES[i] if i < len(_MINISTRIES) else f"agency{i}"
        domain = f"{name}.{gov_tld}"
        rng = stable_rng("site-meta", domain)
        site = Website(
            domain=domain,
            country_code=cc,
            category=CATEGORY_GOVERNMENT,
            owner_org=f"Government of {country.name}",
            embedded=_embedding_for(profile, domain, CATEGORY_GOVERNMENT, specs),
            complexity=1.0 + rng.random() * 0.8,
            popularity=90.0 - 1.5 * i + rng.uniform(0, 1),
        )
        generated.append(GeneratedSite(site, f"Hosting-{cc}"))
    return generated


#: Per-domain embeddings of the multi-national platform sites.
def _global_site_embeddings(domain: str, owner: str, specs: Dict[str, OrgSpec]) -> List[EmbeddedResource]:
    def res(host: str, **kwargs) -> EmbeddedResource:
        return EmbeddedResource(host=host, kind=ResourceKind.SCRIPT, **kwargs)

    google_trackers = [
        "www.googletagmanager.com", "www.google-analytics.com",
        "stats.g.doubleclick.net", "pagead2.googlesyndication.com",
        "www.googleadservices.com", "fonts.googleapis.com", "www.gstatic.com",
        "ad.doubleclick.net", "securepubads.g.doubleclick.net",
        "tpc.googlesyndication.com", "safeframe.googlesyndication.com",
        "ajax.googleapis.com",
    ]
    if domain == "google.com":
        return []  # the famously clean homepage
    if domain == "youtube.com":
        return [res(h) for h in google_trackers]
    if domain.startswith("google."):  # the ccTLD search portals
        return [res(h) for h in google_trackers[:4]]
    if owner == "Meta":
        extras = []
        if domain == "facebook.com":
            # First-party pixel loads observed from a couple of countries
            # (part of the paper's 23 first-party sites).
            extras.append(res("pixel.facebook.com", countries=("QA", "AZ")))
        return [res("static.xx.fbcdn.net"), res("scontent.fbcdn.net")] + extras
    if owner == "Twitter":
        return [
            res("abs.twimg.com"),
            res("syndication.twitter.com", countries=("JO",)),
        ]
    if domain == "linkedin.com":
        return [
            res("snap.licdn.com"),
            res("px.ads.linkedin.com", countries=("PK",)),
        ]
    if domain == "yahoo.com":
        return [
            res("analytics.yahoo.com"), res("geo.yahoo.com"), res("s.yimg.com"),
            res("www.google-analytics.com"),
            # Regional ad-stack differences the paper highlights in its
            # conclusion: extra trackers only served to AU/QA/AE visitors.
            res("dpm.demdex.net", countries=("AU", "QA", "AE")),
            res("tags.bluekai.com", countries=("AU", "QA", "AE")),
            res("cdn.taboola.com", countries=("AU", "QA", "AE")),
        ]
    if domain == "bbc.com":
        return [res("static.files.bbci.co.uk"), res("cookie-oven.api.bbci.co.uk")]
    if domain == "booking.com":
        return [res("cf.bstatic.com"), res("b.bstatic.com")]
    if domain == "wikipedia.org":
        return [res("upload.wikimedia.org")]
    if domain == "openai.com":
        return [res("cdn.openai.com")]
    return []


_GLOBAL_SITE_OWNERS: Dict[str, str] = {
    "google.com": "Google", "youtube.com": "Google", "wikipedia.org": "Wikimedia",
    "facebook.com": "Meta", "instagram.com": "Meta", "whatsapp.com": "Meta",
    "twitter.com": "Twitter", "linkedin.com": "Microsoft", "openai.com": "OpenAI",
    "yahoo.com": "Yahoo", "bbc.com": "BBC", "booking.com": "Booking.com",
}


def generate_global_sites(
    profiles: Dict[str, CountryProfile],
    specs: Dict[str, OrgSpec],
) -> List[GeneratedSite]:
    """The multi-national platform sites, listed in many countries."""
    placements: Dict[str, List[str]] = {}
    for cc, profile in profiles.items():
        for domain in profile.global_sites:
            placements.setdefault(domain, []).append(cc)

    generated: List[GeneratedSite] = []
    for domain in sorted(placements):
        owner = _GLOBAL_SITE_OWNERS.get(domain)
        if owner is None and domain.startswith("google."):
            owner = "Google"
        if owner is None:
            raise ValueError(f"global site {domain} has no owner mapping")
        site = Website(
            domain=domain,
            country_code=specs[owner].home,
            category=CATEGORY_REGIONAL,
            owner_org=owner,
            embedded=_global_site_embeddings(domain, owner, specs),
            complexity=1.2,
            popularity=2000.0 - 10.0 * sorted(placements).index(domain),
            listed_in=tuple(sorted(placements[domain])),
        )
        generated.append(GeneratedSite(site, owner))
    return generated
