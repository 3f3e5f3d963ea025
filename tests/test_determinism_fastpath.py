"""The determinism helpers vs their reference implementations.

``stable_hash`` digests the ``\\x1f``-joined string forms of its parts
in one shot, and ``stable_draw_rng`` reseeds one module-level
generator instead of allocating a fresh ``random.Random`` per draw.
Every value must equal what the reference — digest the joined string,
seed a fresh generator — produces.  These properties pin
that equivalence down, including for repeated keys.  (No thread draws:
``tests/test_exec_cache.py::TestCacheTraffic`` pins that every draw of
a study runs on its process's main thread.)
"""

from __future__ import annotations

import hashlib
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.determinism import stable_draw_rng, stable_hash, stable_rng


def reference_stable_hash(*parts: object) -> int:
    """SHA-256 of the separator-joined string forms, written out plainly."""
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


#: Part values as call sites use them — strings (including ones that
#: contain the separator), numbers, bools, tuples.
_part = st.one_of(
    st.text(max_size=24),
    st.text(alphabet="\x1f\\x1f|:", max_size=6),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.tuples(st.integers(), st.text(max_size=5)),
)
_parts = st.lists(_part, min_size=0, max_size=6)


class TestStableHashFastPath:
    @settings(max_examples=300, deadline=None)
    @given(_parts)
    def test_equals_reference(self, parts):
        assert stable_hash(*parts) == reference_stable_hash(*parts)

    def test_no_parts_and_single_part(self):
        assert stable_hash() == reference_stable_hash()
        assert stable_hash("x") == reference_stable_hash("x")
        assert stable_hash(42) == reference_stable_hash(42)

    def test_repeated_keys_equal_reference(self):
        # Hot call sites repeat whole keys and leading tuples thousands
        # of times per study: every repeat hashes to the same value.
        expected = reference_stable_hash("trace", "Auckland, NZ", "10.1.2.3", "site:0")
        for i in range(2000):
            key = ("trace", "Auckland, NZ", "10.1.2.3", f"site:{i}")
            assert stable_hash(*key) == reference_stable_hash(*key)
            assert stable_hash("trace", "Auckland, NZ", "10.1.2.3", "site:0") == expected

    def test_prefix_boundary_does_not_alias(self):
        # ("ab", "c") and ("a", "bc") share the joined text length but
        # not the digest; the separator keeps part boundaries distinct.
        assert stable_hash("ab", "c") != stable_hash("a", "bc")
        assert stable_hash("ab", "c") == reference_stable_hash("ab", "c")
        assert stable_hash("a", "bc") == reference_stable_hash("a", "bc")


class TestSingleDrawFastPath:
    @settings(max_examples=200, deadline=None)
    @given(_parts, st.floats(min_value=-1e6, max_value=1e6),
           st.floats(min_value=0.0, max_value=1e6))
    def test_draw_rng_equals_reference(self, parts, low, span):
        expected = random.Random(reference_stable_hash(*parts)).uniform(low, low + span)
        assert stable_draw_rng(*parts).uniform(low, low + span) == expected

    def test_draws_do_not_disturb_each_other(self):
        # Interleaving single draws from the shared generator with fresh
        # stable_rng generators must leave every value exactly as when
        # drawn alone.
        alone_uniform = stable_draw_rng("a").uniform(0.0, 1.0)
        alone_choice = stable_draw_rng("b").choice([1, 2, 3, 4])
        rng = stable_rng("seq")
        mixed = []
        for _ in range(3):
            mixed.append(rng.random())
            assert stable_draw_rng("a").uniform(0.0, 1.0) == alone_uniform
            assert stable_draw_rng("b").choice([1, 2, 3, 4]) == alone_choice
        fresh = stable_rng("seq")
        assert mixed == [fresh.random() for _ in range(3)]


class TestStableRngUnchanged:
    def test_fresh_instance_every_call(self):
        first = stable_rng("k")
        second = stable_rng("k")
        assert first is not second
        assert [first.random() for _ in range(5)] == [second.random() for _ in range(5)]

    def test_seeded_from_fast_hash(self):
        assert stable_rng("a", "b").random() == random.Random(
            reference_stable_hash("a", "b")
        ).random()
