"""Reference traceroute text round trip: the oracle for the normaliser.

Gamma (section 3 of the paper) shells out to ``traceroute`` on Linux and
macOS and to ``tracert`` on Windows, then normalises both outputs into
one JSON schema.  :mod:`repro.core.gamma.normalize` builds that record
straight from the engine's structured trace, reproducing each tool's
printed quantisation.  These functions keep the text interface it
replaces: renderers that print a :class:`TracerouteResult` as each tool
would, and parsers that read the text back into a
:class:`NormalizedTraceroute`.  ``tests/test_gamma_normalize.py``,
``tests/test_probe_fastpath.py`` and the probe benchmarks check the
normaliser against ``parse_traceroute_output(render_<os>(result))``.
"""

from __future__ import annotations

import re
from typing import List

from repro.core.gamma.parsers import NormalizedHop, NormalizedTraceroute
from repro.netsim.geography import City
from repro.netsim.traceroute import TracerouteEngine, TracerouteResult, probe_rtts

__all__ = [
    "parse_linux_traceroute",
    "parse_traceroute_output",
    "parse_windows_tracert",
    "raw_traceroute",
    "render_linux",
    "render_windows",
]


def render_linux(result: TracerouteResult, max_hops: int = 30) -> str:
    """Render in the GNU ``traceroute`` text format Gamma parses on Linux."""
    lines = [f"traceroute to {result.target} ({result.target}), {max_hops} hops max, 60 byte packets"]
    for hop in result.hops:
        if not hop.responded:
            lines.append(f"{hop.index:2d}  * * *")
            continue
        rtts = probe_rtts(hop)
        rtt_text = "  ".join(f"{value:.3f} ms" for value in rtts)
        lines.append(f"{hop.index:2d}  {hop.address} ({hop.address})  {rtt_text}")
    return "\n".join(lines) + "\n"


def render_windows(result: TracerouteResult, max_hops: int = 30) -> str:
    """Render in the Windows ``tracert`` text format Gamma parses there."""
    lines = [
        "",
        f"Tracing route to {result.target} over a maximum of {max_hops} hops",
        "",
    ]
    for hop in result.hops:
        if not hop.responded:
            lines.append(f"  {hop.index:2d}     *        *        *     Request timed out.")
            continue
        cells = []
        for value in probe_rtts(hop):
            cells.append("<1 ms" if value < 1.0 else f"{int(round(value)):d} ms")
        lines.append(f"  {hop.index:2d}  {cells[0]:>8} {cells[1]:>8} {cells[2]:>8}  {hop.address}")
    lines.append("")
    lines.append("Trace complete." if result.reached else "Unable to resolve target system name or trace aborted.")
    return "\n".join(lines) + "\n"


#: The text each OS's traceroute tool prints; macOS prints the Linux layout.
_RENDERERS = {"linux": render_linux, "darwin": render_linux, "windows": render_windows}


def raw_traceroute(
    os_name: str, engine: TracerouteEngine, source: City, target_ip: str, key: str
) -> str:
    """The text *os_name*'s tool would print for one engine trace."""
    try:
        render = _RENDERERS[os_name]
    except KeyError:
        raise ValueError(f"unsupported OS {os_name!r}") from None
    return render(engine.trace(source, target_ip, key))


_LINUX_HEADER_RE = re.compile(r"^traceroute to (\S+) \((\S+)\)")
_LINUX_HOP_RE = re.compile(r"^\s*(\d+)\s+(.*)$")
_LINUX_RTT_RE = re.compile(r"([\d.]+)\s*ms")
_LINUX_ADDR_RE = re.compile(r"(\d{1,3}(?:\.\d{1,3}){3})")

_WIN_HEADER_RE = re.compile(r"^Tracing route to (\S+)")
_WIN_HOP_RE = re.compile(r"^\s*(\d+)\s+(.*)$")
_WIN_RTT_RE = re.compile(r"(?:<\s*(\d+)|(\d+))\s*ms")


def parse_linux_traceroute(text: str) -> NormalizedTraceroute:
    """Parse GNU ``traceroute`` output into the normalised schema."""
    target = ""
    hops: List[NormalizedHop] = []
    for line in text.splitlines():
        header = _LINUX_HEADER_RE.match(line)
        if header:
            target = header.group(2)
            continue
        hop_match = _LINUX_HOP_RE.match(line)
        if not hop_match:
            continue
        index = int(hop_match.group(1))
        rest = hop_match.group(2)
        if rest.replace("*", "").strip() == "":
            hops.append(NormalizedHop(hop=index, address=None))
            continue
        address_match = _LINUX_ADDR_RE.search(rest)
        rtts = tuple(float(v) for v in _LINUX_RTT_RE.findall(rest))
        hops.append(
            NormalizedHop(
                hop=index,
                address=address_match.group(1) if address_match else None,
                rtts_ms=rtts,
            )
        )
    if not target:
        raise ValueError("not traceroute output: missing header line")
    reached = bool(hops) and hops[-1].address == target
    return NormalizedTraceroute(target=target, reached=reached, hops=hops, tool="traceroute")


def parse_windows_tracert(text: str) -> NormalizedTraceroute:
    """Parse Windows ``tracert`` output into the normalised schema."""
    target = ""
    hops: List[NormalizedHop] = []
    complete = False
    for line in text.splitlines():
        header = _WIN_HEADER_RE.match(line.strip())
        if header:
            target = header.group(1)
            continue
        if line.strip() == "Trace complete.":
            complete = True
            continue
        hop_match = _WIN_HOP_RE.match(line)
        if not hop_match:
            continue
        index = int(hop_match.group(1))
        rest = hop_match.group(2)
        if "Request timed out" in rest:
            hops.append(NormalizedHop(hop=index, address=None))
            continue
        rtts: List[float] = []
        for lt_value, value in _WIN_RTT_RE.findall(rest):
            if lt_value:
                rtts.append(float(lt_value) / 2.0)  # "<1 ms" -> 0.5 ms estimate
            else:
                rtts.append(float(value))
        address_match = _LINUX_ADDR_RE.search(rest)
        hops.append(
            NormalizedHop(
                hop=index,
                address=address_match.group(1) if address_match else None,
                rtts_ms=tuple(rtts),
            )
        )
    if not target:
        raise ValueError("not tracert output: missing header line")
    reached = complete and bool(hops) and hops[-1].address == target
    return NormalizedTraceroute(target=target, reached=reached, hops=hops, tool="tracert")


def parse_traceroute_output(text: str) -> NormalizedTraceroute:
    """Auto-detect the tool from the output and parse accordingly."""
    stripped = text.lstrip()
    if stripped.startswith("traceroute to"):
        return parse_linux_traceroute(text)
    if stripped.startswith("Tracing route to"):
        return parse_windows_tracert(text)
    raise ValueError("unrecognised traceroute output format")
