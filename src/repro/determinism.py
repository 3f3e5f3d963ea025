"""Deterministic randomness helpers.

Every stochastic decision in the reproduction flows through
:func:`stable_rng` or :func:`stable_hash`, which derive entropy from
SHA-256 digests of caller-supplied strings.  This keeps experiments
bit-identical across runs and across machines, and makes them immune to
Python's per-process hash randomisation (``PYTHONHASHSEED``).

The digests sit on the study's hot path (building the world and
running a serial 23-country study make about 62k calls), so
:func:`stable_hash` does exactly one thing per call: join the parts' string forms with ``\x1f``, encode, and
digest once.  Memoising partially-fed digest states per leading tuple
does not pay: nearly half of the lookups miss, a miss builds, stores
and copies a state, and even a hit costs as much as the one-shot digest
of a short key string.
``tests/test_determinism_fastpath.py`` pins :func:`stable_hash` and
:func:`stable_draw_rng` to reference implementations.
"""

from __future__ import annotations

import hashlib
import random

__all__ = [
    "stable_hash",
    "stable_rng",
    "stable_draw_rng",
]


def stable_hash(*parts: object) -> int:
    """Return a 64-bit integer hash derived from the string forms of *parts*.

    Unlike the built-in :func:`hash`, the result is identical across
    processes and Python versions: the first eight bytes of the SHA-256
    digest of ``"\\x1f".join(str(p) for p in parts)``, big-endian.
    """
    digest = hashlib.sha256("\x1f".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def stable_rng(*parts: object) -> random.Random:
    """Return a :class:`random.Random` seeded from :func:`stable_hash`.

    Always a fresh instance: callers hold the generator and interleave
    draws with other ``stable_*`` calls, so the state cannot be shared.
    """
    return random.Random(stable_hash(*parts))


#: :func:`stable_draw_rng` reseeds one long-lived module-level generator:
#: ``Random.seed(n)`` installs the exact state ``Random(n)`` would, and
#: the draw consumes it whole, so reuse is invisible in the results
#: while skipping a generator allocation per call.  Every draw of a
#: study runs on its process's main thread, so one generator serves.
_DRAW_RNG = random.Random()


def _seeded_draw_rng(seed: int) -> random.Random:
    _DRAW_RNG.seed(seed)
    return _DRAW_RNG


def stable_draw_rng(*parts: object) -> random.Random:
    """The shared draw generator reseeded from *parts* — single-use.

    State-identical to ``stable_rng(*parts)`` (``Random.seed(n)``
    installs exactly the state ``Random(n)`` starts with) but without
    allocating a generator per call — the win on hot paths that draw a
    short, fixed burst.  The caller must consume its draws immediately:
    holding the generator across any other ``stable_*`` draw reseeds
    it out from under the holder.  When the generator escapes to
    callers or draws interleave, use :func:`stable_rng`.
    """
    return _seeded_draw_rng(stable_hash(*parts))

