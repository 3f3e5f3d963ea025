"""Traceroute normalisation: component C3's one probe path.

Gamma shells out to each OS's native tool — ``traceroute`` on Linux and
macOS, ``tracert`` on Windows — and normalises the printed text into one
:class:`NormalizedTraceroute` schema.  The simulation has no text to
read: the functions here build the same record straight from the
engine's structured :class:`~repro.netsim.traceroute.TracerouteResult`,
reproducing each tool's printed *lossy quantisation*:

* Linux ``traceroute`` prints per-probe RTTs as ``%.3f ms`` — the
  normalised samples are those 3-decimal values.
* Windows ``tracert`` prints integer milliseconds and ``<1 ms`` cells —
  normalised as ``float(int(round(v)))`` and the parser's ``0.5`` ms
  estimate respectively.
* Unresponsive hops (``* * *`` / ``Request timed out.``) normalise to
  an address-less hop; unreached traces keep their trailing all-star
  tail and never mark ``reached``.

Every responded hop the engine emits carries a dotted-quad address and
exactly three probe samples, which is all the tools print.

``tests/trace_oracle.py`` holds the text interface these functions
replace: a renderer per tool and the parsers that read its text back.
The property tests in ``tests/test_gamma_normalize.py`` prove each
normaliser's record byte-identical to the parse of its tool's rendered
text, and ``tests/test_probe_fastpath.py`` does the same end to end by
running studies with that text round trip patched into
``ProbeRunner.traceroute``.
"""

from __future__ import annotations

from typing import List

from repro.core.gamma.parsers import NormalizedHop, NormalizedTraceroute
from repro.netsim.traceroute import TracerouteResult, probe_rtts

__all__ = ["normalize_linux", "normalize_windows", "normalize_direct"]


def normalize_linux(result: TracerouteResult) -> NormalizedTraceroute:
    """The record GNU ``traceroute``'s printout of *result* normalises to."""
    hops: List[NormalizedHop] = []
    append = hops.append
    make_hop = NormalizedHop
    for hop in result.hops:
        address = hop.address
        if address is None:
            append(make_hop(hop.index, None))
            continue
        # round(v, 3) is the float the parser reads back from the
        # "%.3f" cell: both round half-even at the third decimal digit
        # (the oracle properties cover the equivalence).
        first, second, third = hop.probes if hop.probes is not None else probe_rtts(hop)
        append(make_hop(hop.index, address, (round(first, 3), round(second, 3), round(third, 3))))
    reached = bool(hops) and hops[-1].address == result.target
    return NormalizedTraceroute(
        target=result.target, reached=reached, hops=hops, tool="traceroute"
    )


def normalize_windows(result: TracerouteResult) -> NormalizedTraceroute:
    """The record Windows ``tracert``'s printout of *result* normalises to."""
    hops: List[NormalizedHop] = []
    append = hops.append
    make_hop = NormalizedHop
    for hop in result.hops:
        address = hop.address
        if address is None:
            append(make_hop(hop.index, None))
            continue
        # tracert prints "<1 ms" below a millisecond (parsed back as the
        # 0.5 ms estimate) and integer milliseconds otherwise.
        first, second, third = hop.probes if hop.probes is not None else probe_rtts(hop)
        append(make_hop(hop.index, address, (
            0.5 if first < 1.0 else float(round(first)),
            0.5 if second < 1.0 else float(round(second)),
            0.5 if third < 1.0 else float(round(third)),
        )))
    reached = result.reached and bool(hops) and hops[-1].address == result.target
    return NormalizedTraceroute(
        target=result.target, reached=reached, hops=hops, tool="tracert"
    )


#: Each supported OS's normaliser; macOS ``traceroute`` prints the Linux layout.
_NORMALIZERS = {"linux": normalize_linux, "darwin": normalize_linux, "windows": normalize_windows}


def normalize_direct(result: TracerouteResult, os_name: str) -> NormalizedTraceroute:
    """Normalise *result* as *os_name*'s traceroute tool would print it."""
    try:
        normalizer = _NORMALIZERS[os_name]
    except KeyError:
        raise ValueError(f"unsupported OS {os_name!r}") from None
    return normalizer(result)
