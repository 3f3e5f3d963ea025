"""Direct traceroute normalisation — the probe-layer fast path.

:class:`~repro.core.gamma.probes.ProbeRunner` historically produced its
:class:`NormalizedTraceroute` records by rendering each structured
:class:`~repro.netsim.traceroute.TracerouteResult` into OS-native text
(``traceroute`` / ``tracert``) and feeding that through the format
parsers.  The round trip exercises the portability layer the paper
describes, but it dominates study wall time: the render + regex-parse
pair costs an order of magnitude more than the trace synthesis itself.

The functions here construct the identical ``NormalizedTraceroute``
straight from the structured result, faithfully reproducing each
format's *lossy quantisation*:

* Linux ``traceroute`` prints per-probe RTTs as ``%.3f ms`` — the
  normalised samples are those 3-decimal values.
* Windows ``tracert`` prints integer milliseconds and ``<1 ms`` cells —
  normalised as ``float(int(round(v)))`` and the parser's ``0.5`` ms
  estimate respectively.
* Unresponsive hops (``* * *`` / ``Request timed out.``) normalise to
  an address-less hop; unreached traces keep their trailing all-star
  tail and never mark ``reached``.

The render → parse round trip survives as the correctness oracle:
``normalize_direct(result, fmt) ==
parse_traceroute_output(render_<fmt>(result))`` byte for byte, locked
down by the property tests in ``tests/test_gamma_normalize.py`` and
end to end by ``tests/test_probe_fastpath.py``, which runs studies with
the round trip patched into ``ProbeRunner.traceroute``.
"""

from __future__ import annotations

import re
from typing import List

from repro.core.gamma.parsers import NormalizedHop, NormalizedTraceroute
from repro.netsim.traceroute import TracerouteResult, probe_rtts

__all__ = ["normalize_linux", "normalize_windows", "normalize_direct"]

#: Same dotted-quad extraction the parsers apply to each hop line.  The
#: RTT cells can never contain four dot-separated octet groups, so
#: searching the address field alone is equivalent to searching the line.
_ADDR_RE = re.compile(r"(\d{1,3}(?:\.\d{1,3}){3})")

#: Addresses repeat heavily within a study (the gateway on every trace,
#: each target once per hop list), so the extraction memoises.  Bounded
#: by wholesale reset, like the hash-prefix memo.
_ADDR_MEMO: dict = {}
_ADDR_MEMO_LIMIT = 65536

#: Distinguishes "memo miss" from a memoised ``None`` (unparseable text).
_MISS = object()


def _parsed_address(address: str):
    match = _ADDR_RE.search(address)
    parsed = match.group(1) if match else None
    if len(_ADDR_MEMO) >= _ADDR_MEMO_LIMIT:
        _ADDR_MEMO.clear()
    _ADDR_MEMO[address] = parsed
    return parsed


def normalize_linux(result: TracerouteResult) -> NormalizedTraceroute:
    """What ``parse_linux_traceroute(render_linux(result))`` returns."""
    hops: List[NormalizedHop] = []
    append = hops.append
    make_hop = NormalizedHop
    memo_get = _ADDR_MEMO.get
    for hop in result.hops:
        address = hop.address
        if address is None:
            append(make_hop(hop.index, None))
            continue
        parsed = memo_get(address, _MISS)
        if parsed is _MISS:
            parsed = _parsed_address(address)
        samples = hop.probes if hop.probes is not None else probe_rtts(hop)
        # round(v, 3) is the float the parser reads back from the
        # renderer's "%.3f" cell: both round half-even at the third
        # decimal digit (the oracle properties cover the equivalence).
        if len(samples) == 3:  # always, from the engine; unrolled for speed
            first, second, third = samples
            rtts = (round(first, 3), round(second, 3), round(third, 3))
        else:
            rtts = tuple(round(value, 3) for value in samples)
        append(make_hop(hop.index, parsed, rtts))
    reached = bool(hops) and hops[-1].address == result.target
    return NormalizedTraceroute(
        target=result.target, reached=reached, hops=hops, tool="traceroute"
    )


def normalize_windows(result: TracerouteResult) -> NormalizedTraceroute:
    """What ``parse_windows_tracert(render_windows(result))`` returns."""
    hops: List[NormalizedHop] = []
    append = hops.append
    make_hop = NormalizedHop
    memo_get = _ADDR_MEMO.get
    for hop in result.hops:
        address = hop.address
        if address is None:
            append(make_hop(hop.index, None))
            continue
        parsed = memo_get(address, _MISS)
        if parsed is _MISS:
            parsed = _parsed_address(address)
        samples = hop.probes if hop.probes is not None else probe_rtts(hop)
        # tracert prints "<1 ms" below a millisecond (parsed back as the
        # 0.5 ms estimate) and integer milliseconds otherwise.
        if len(samples) == 3:  # always, from the engine; unrolled for speed
            first, second, third = samples
            rtts = (
                0.5 if first < 1.0 else float(round(first)),
                0.5 if second < 1.0 else float(round(second)),
                0.5 if third < 1.0 else float(round(third)),
            )
        else:
            rtts = tuple(
                0.5 if value < 1.0 else float(round(value)) for value in samples
            )
        append(make_hop(hop.index, parsed, rtts))
    reached = result.reached and bool(hops) and hops[-1].address == result.target
    return NormalizedTraceroute(
        target=result.target, reached=reached, hops=hops, tool="tracert"
    )


_NORMALIZERS = {"linux": normalize_linux, "windows": normalize_windows}


def normalize_direct(result: TracerouteResult, render_format: str) -> NormalizedTraceroute:
    """Normalise *result* as the given OS text format would quantise it."""
    try:
        normalizer = _NORMALIZERS[render_format]
    except KeyError:
        raise ValueError(f"unknown render format {render_format!r}") from None
    return normalizer(result)
