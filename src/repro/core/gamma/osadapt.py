"""OS abstraction layer.

Scapy-style raw-socket probing is unavailable on Windows (and root-gated
elsewhere), so Gamma shells out to OS-native tools and normalises their
output.  Each adapter knows which command its platform provides and how
to obtain its raw text; the simulation substitutes packet emission but
the *textual interface* — the part Gamma's portability layer actually
handles — is produced and parsed verbatim.
"""

from __future__ import annotations

from repro.core.gamma.normalize import normalize_direct
from repro.core.gamma.parsers import NormalizedTraceroute
from repro.netsim.geography import City
from repro.netsim.traceroute import TracerouteEngine, render_linux, render_windows

__all__ = ["OSAdapter", "LinuxAdapter", "WindowsAdapter", "DarwinAdapter", "adapter_for"]


class OSAdapter:
    """Platform-specific measurement command access."""

    name = "abstract"
    traceroute_command = "traceroute"
    #: Which text format :meth:`raw_traceroute` produces — and therefore
    #: which quantisation the direct normaliser must reproduce.
    render_format = "linux"

    def raw_traceroute(self, engine: TracerouteEngine, source: City, target_ip: str, key: str) -> str:
        raise NotImplementedError

    def normalized_traceroute(
        self, engine: TracerouteEngine, source: City, target_ip: str, key: str
    ) -> NormalizedTraceroute:
        """One normalised trace without the render → parse round trip.

        Byte-identical to ``parse_traceroute_output(self.raw_traceroute(...))``
        — the equivalence the oracle tests in
        ``tests/test_gamma_normalize.py`` lock down per platform format.
        """
        return normalize_direct(engine.trace(source, target_ip, key), self.render_format)


class LinuxAdapter(OSAdapter):
    name = "linux"
    traceroute_command = "traceroute"

    def raw_traceroute(self, engine: TracerouteEngine, source: City, target_ip: str, key: str) -> str:
        return render_linux(engine.trace(source, target_ip, key))


class WindowsAdapter(OSAdapter):
    name = "windows"
    traceroute_command = "tracert"
    render_format = "windows"

    def raw_traceroute(self, engine: TracerouteEngine, source: City, target_ip: str, key: str) -> str:
        return render_windows(engine.trace(source, target_ip, key))


class DarwinAdapter(OSAdapter):
    name = "darwin"
    traceroute_command = "traceroute"

    def raw_traceroute(self, engine: TracerouteEngine, source: City, target_ip: str, key: str) -> str:
        return render_linux(engine.trace(source, target_ip, key))


_ADAPTERS = {cls.name: cls for cls in (LinuxAdapter, WindowsAdapter, DarwinAdapter)}


def adapter_for(os_name: str) -> OSAdapter:
    """The adapter for a platform name; raises on unsupported platforms."""
    try:
        return _ADAPTERS[os_name]()
    except KeyError:
        raise ValueError(f"unsupported OS {os_name!r}") from None
