"""AS registry and IPv4 address-space management."""

import ipaddress

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.netsim.asn import ASRegistry, AutonomousSystem
from repro.netsim.geography import City
from repro.netsim.ip import IPSpace

CITY = City("Testville", "XX", 10.0, 20.0)
OTHER = City("Elsewhere", "YY", -5.0, 60.0)


class TestASRegistry:
    def test_register_assigns_sequential_asns(self):
        registry = ASRegistry()
        a = registry.register("A-NET", "OrgA", "US")
        b = registry.register("B-NET", "OrgB", "DE")
        assert b.asn == a.asn + 1

    def test_duplicate_asn_rejected(self):
        registry = ASRegistry()
        registry.add(AutonomousSystem(100, "X", "OrgX", "US"))
        with pytest.raises(ValueError):
            registry.add(AutonomousSystem(100, "Y", "OrgY", "US"))

    def test_lookup(self):
        registry = ASRegistry()
        asys = registry.register("A-NET", "OrgA", "US")
        assert registry.get(asys.asn).org == "OrgA"
        assert registry.has(asys.asn)
        assert not registry.has(asys.asn + 99)

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            ASRegistry().get(1)

    def test_by_org(self):
        registry = ASRegistry()
        registry.register("A1", "OrgA", "US")
        registry.register("A2", "OrgA", "DE")
        registry.register("B1", "OrgB", "US")
        assert len(registry.by_org("OrgA")) == 2
        assert registry.by_org("missing") == []

    def test_cloud_flag(self):
        registry = ASRegistry()
        asys = registry.register("CLOUD", "Cloudy", "US", is_cloud=True)
        assert registry.get(asys.asn).is_cloud

    def test_org_of(self):
        registry = ASRegistry()
        asys = registry.register("A", "OrgA", "US")
        assert registry.org_of(asys.asn) == "OrgA"
        assert registry.org_of(999999) is None

    def test_len_and_iter(self):
        registry = ASRegistry()
        registry.register("A", "OrgA", "US")
        registry.register("B", "OrgB", "US")
        assert len(registry) == 2
        assert {a.org for a in registry} == {"OrgA", "OrgB"}


class TestIPSpace:
    def test_allocates_global_slash24(self):
        space = IPSpace()
        allocation = space.allocate(65000, CITY)
        assert allocation.network.prefixlen == 24
        assert allocation.network.is_global

    def test_allocations_disjoint(self):
        space = IPSpace()
        nets = [space.allocate(1, CITY).network for _ in range(20)]
        for i, a in enumerate(nets):
            for b in nets[i + 1:]:
                assert not a.overlaps(b)

    def test_lookup_roundtrip(self):
        space = IPSpace()
        allocation = space.allocate(42, CITY, label="test/pop")
        address = allocation.address(7)
        found = space.lookup(address)
        assert found is allocation
        assert space.owner_asn(address) == 42
        assert space.true_city(address) is CITY
        assert space.true_country(address) == "XX"

    def test_lookup_unallocated_returns_none(self):
        space = IPSpace()
        assert space.lookup("8.8.8.8") is None
        assert space.true_country("8.8.8.8") is None

    def test_address_host_bounds(self):
        allocation = IPSpace().allocate(1, CITY)
        with pytest.raises(ValueError):
            allocation.address(0)
        with pytest.raises(ValueError):
            allocation.address(255)
        assert int(allocation.address(1)) == int(allocation.network.network_address) + 1

    def test_different_cities_tracked(self):
        space = IPSpace()
        a = space.allocate(1, CITY)
        b = space.allocate(1, OTHER)
        assert space.true_city(a.address(1)).key == CITY.key
        assert space.true_city(b.address(1)).key == OTHER.key

    def test_len_and_iter(self):
        space = IPSpace()
        space.allocate(1, CITY)
        space.allocate(2, OTHER)
        assert len(space) == 2
        assert {a.asn for a in space} == {1, 2}

    def test_addresses_parse_as_ipv4(self):
        allocation = IPSpace().allocate(1, CITY)
        parsed = ipaddress.IPv4Address(str(allocation.address(10)))
        assert parsed in allocation.network


#: Enough /24s that allocated heads reach three-digit octets (5.1.x).
_SPACE = IPSpace()
_ALLOCATIONS = [_SPACE.allocate(7, CITY) for _ in range(300)]
_BY_NETWORK = {allocation.network: allocation for allocation in _ALLOCATIONS}


def reference_lookup(address):
    """The allocation covering *address*, found by parsing it in full."""
    parsed = ipaddress.IPv4Address(str(address))
    return _BY_NETWORK.get(ipaddress.IPv4Network((int(parsed) & ~0xFF, 24)))


def _outcome(lookup, address):
    try:
        return lookup(address)
    except ValueError as error:
        return type(error), error.args


_octet = st.integers(0, 255)
_head = st.sampled_from(_ALLOCATIONS).map(
    lambda allocation: str(allocation.network.network_address).rpartition(".")[0]
)
#: Last-octet spellings ``ipaddress`` rejects: leading zeros, out of
#: range, signs, whitespace, non-ASCII digits.
_ODD_OCTETS = ["00", "01", "007", "256", "999", "1000", "-1", "+1", "", " 1", "1 ",
               "1\n", "1.", "0x1", "1e2", "\u0661", "\u00b2", "\uff11"]
_allocated = st.builds(
    "{}.{}".format, _head,
    st.one_of(_octet.map(str), st.sampled_from(_ODD_OCTETS), st.text(max_size=4)),
)
_quad = st.builds("{}.{}.{}.{}".format, _octet, _octet, _octet, _octet)
_decorated = st.builds(
    lambda text, template: template.format(text),
    st.one_of(_allocated, _quad),
    st.sampled_from([" {}", "{} ", "{}.", "{}\n", "0{}", "{}.0"]),
)
_addresses = st.one_of(
    _allocated,
    _quad,
    _decorated,
    _head.flatmap(lambda head: _octet.map(lambda last: ipaddress.IPv4Address(f"{head}.{last}"))),
    st.integers(0, 2**32 - 1).map(ipaddress.IPv4Address),
    st.integers(-1, 2**33),
)


class TestLookupIndex:
    """The prefix-indexed lookup answers exactly as a full parse does."""

    @settings(max_examples=600, deadline=None)
    @given(_addresses)
    @example("5.0.7.256")
    @example("5.0.7.01")
    @example("5.0.7.\u0661")
    @example(" 5.0.7.1")
    @example("5.0.7.1.")
    def test_equals_reference(self, address):
        assert _outcome(_SPACE.lookup, address) == _outcome(reference_lookup, address)

    def test_every_allocated_address_is_indexed(self):
        for allocation in _ALLOCATIONS[::37]:
            for host in (0, 1, 99, 200, 255):
                address = str(allocation.network.network_address + host)
                assert _SPACE.lookup(address) is allocation
