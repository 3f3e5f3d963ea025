"""Determinism helpers: the root of all reproducibility."""

import random

from hypothesis import given
from hypothesis import strategies as st

from repro.determinism import stable_hash, stable_rng


class TestStableHash:
    def test_repeatable(self):
        assert stable_hash("a", 1, 2.5) == stable_hash("a", 1, 2.5)

    def test_differs_by_part(self):
        assert stable_hash("a") != stable_hash("b")

    def test_differs_by_order(self):
        assert stable_hash("a", "b") != stable_hash("b", "a")

    def test_no_separator_collision(self):
        # ("ab", "c") must not collide with ("a", "bc").
        assert stable_hash("ab", "c") != stable_hash("a", "bc")

    def test_64_bit_range(self):
        value = stable_hash("anything")
        assert 0 <= value < 2**64

    @given(st.lists(st.text(), min_size=1, max_size=5))
    def test_stable_across_calls(self, parts):
        assert stable_hash(*parts) == stable_hash(*parts)


class TestStableRng:
    def test_returns_random_instance(self):
        assert isinstance(stable_rng("x"), random.Random)

    def test_same_seed_same_stream(self):
        a = stable_rng("seed", 1)
        b = stable_rng("seed", 1)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_seed_different_stream(self):
        a = stable_rng("seed", 1).random()
        b = stable_rng("seed", 2).random()
        assert a != b
