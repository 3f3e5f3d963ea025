"""The normalised traceroute record.

Section 3 of the paper: Gamma shells out to ``traceroute`` on Linux and
``tracert`` on Windows, then normalises both into "an identical structure
JSON file with hop and RTT information".  :class:`NormalizedTraceroute`
and its :class:`NormalizedHop` rows are that structure, whatever the
tool; :mod:`repro.core.gamma.normalize` builds them from the engine's
traces.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.slotstate import install_slot_state

__all__ = ["NormalizedHop", "NormalizedTraceroute"]


@dataclass(frozen=True, slots=True)
class NormalizedHop:
    """One hop in the normalised schema."""

    hop: int
    address: Optional[str]  # None when all probes timed out
    rtts_ms: tuple = ()  # individual probe RTTs

    @property
    def rtt_ms(self) -> Optional[float]:
        """Canonical per-hop RTT: the median of the probe samples."""
        samples = self.rtts_ms
        if not samples:
            return None
        # Hand-rolled medians for the only sizes the tools emit (one to
        # three probes) — bit-identical to statistics.median, an order
        # of magnitude cheaper on the geolocation hot path.
        if len(samples) == 1:
            return float(samples[0])
        if len(samples) == 3:
            a, b, c = samples
            return float(max(min(a, b), min(max(a, b), c)))
        return float(statistics.median(samples))

    def to_dict(self) -> dict:
        return {"hop": self.hop, "ip": self.address, "rtt_ms": list(self.rtts_ms)}


@dataclass(slots=True)
class NormalizedTraceroute:
    """The OS-independent traceroute record Gamma stores."""

    target: str
    reached: bool
    hops: List[NormalizedHop] = field(default_factory=list)
    tool: str = ""  # "traceroute" or "tracert" (provenance only)

    @property
    def first_hop_rtt(self) -> Optional[float]:
        for hop in self.hops:
            if hop.address is not None and hop.rtts_ms:
                return hop.rtt_ms
        return None

    @property
    def last_hop_rtt(self) -> Optional[float]:
        for hop in reversed(self.hops):
            if hop.address is not None and hop.rtts_ms:
                return hop.rtt_ms
        return None

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "reached": self.reached,
            "tool": self.tool,
            "hops": [hop.to_dict() for hop in self.hops],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "NormalizedTraceroute":
        return cls(
            target=payload["target"],
            reached=payload["reached"],
            tool=payload.get("tool", ""),
            hops=[
                NormalizedHop(
                    hop=entry["hop"],
                    address=entry.get("ip"),
                    rtts_ms=tuple(entry.get("rtt_ms", [])),
                )
                for entry in payload.get("hops", [])
            ],
        )


# Pickle state stays the historical field-ordered dict so pre-slots
# checkpoints load and fresh pickle bytes are unchanged.
install_slot_state(NormalizedHop, ("hop", "address", "rtts_ms"))
install_slot_state(NormalizedTraceroute, ("target", "reached", "hops", "tool"))

