"""Probe mesh: density bias, coverage gaps, fallbacks, measurements."""

import pytest

from repro.atlas.measurements import AtlasMeasurementService
from repro.atlas.probes import ProbeDensityModel, ProbeMesh
from repro.netsim.geography import default_registry
from repro.netsim.network import World

REG = default_registry()


@pytest.fixture(scope="module")
def mesh():
    return ProbeMesh(REG)


class TestDensityModel:
    def test_europe_denser_than_africa(self, mesh):
        assert len(mesh.probes_in("DE")) > len(mesh.probes_in("EG"))

    def test_default_gaps(self, mesh):
        for cc in ("QA", "JO", "RW", "UG"):
            assert not mesh.has_probes(cc)

    def test_probe_counts_by_tier(self):
        model = ProbeDensityModel()
        assert model.count_for("FR", "Europe") == 12
        assert model.count_for("JP", "Asia") == 6
        assert model.count_for("IN", "Asia") == 3
        assert model.count_for("EG", "Africa") == 1
        assert model.count_for("QA", "Asia") == 0

    def test_override_wins(self):
        model = ProbeDensityModel(overrides={"FR": 2})
        assert model.count_for("FR", "Europe") == 2

    def test_total_probes_positive(self, mesh):
        assert mesh.total_probes > 100

    def test_probe_ids_unique(self, mesh):
        ids = [p.probe_id for cc in REG.country_codes for p in mesh.probes_in(cc)]
        assert len(ids) == len(set(ids))


class TestSelection:
    def test_nearest_probe_in_country(self, mesh):
        probe = mesh.nearest_probe_to(REG.city("Marseille, FR"), "FR")
        assert probe.country_code == "FR"

    def test_nearest_probe_global(self, mesh):
        probe = mesh.nearest_probe_to(REG.city("Doha, QA"))
        assert probe is not None
        assert probe.country_code != "QA"

    def test_probe_for_country_local(self, mesh):
        probe, used = mesh.probe_for_country("FR")
        assert used == "FR"
        assert probe.country_code == "FR"

    def test_qatar_falls_back_to_neighbour(self, mesh):
        probe, used = mesh.probe_for_country("QA")
        assert used != "QA"
        # The paper used Saudi Arabia; our nearest mesh probe is in the
        # UAE or Saudi Arabia — either way a Gulf neighbour.
        assert used in ("SA", "AE")

    def test_jordan_falls_back_to_israel(self, mesh):
        probe, used = mesh.probe_for_country("JO")
        assert used == "IL"

    def test_no_probes_in_country_filter(self, mesh):
        assert mesh.nearest_probe_to(REG.city("Doha, QA"), "QA") is None


class TestMeasurementService:
    def test_traceroute_from_probe(self):
        world = World(geo=REG)
        allocation = world.ips.allocate(1, REG.city("Frankfurt, DE"), label="X/fra1")
        service = AtlasMeasurementService(world)
        probe = service.mesh.probes_in("DE")[0]
        result = service.traceroute(probe, str(allocation.address(1)))
        assert result.source_city.country_code == "DE"

    def test_probes_ignore_volunteer_blocking(self):
        from repro.netsim.traceroute import TracerouteBlocking

        world = World(
            geo=REG,
            traceroute_blocking=TracerouteBlocking(blocked_source_countries={"AU"}),
        )
        allocation = world.ips.allocate(1, REG.city("Frankfurt, DE"), label="X/fra1")
        service = AtlasMeasurementService(world)
        probe = service.mesh.probes_in("AU")[0]
        # Retry keys until the background unreachable rate lets one through.
        reached = any(
            service.traceroute(probe, str(allocation.address(1)), f"k{i}").reached
            for i in range(10)
        )
        assert reached
