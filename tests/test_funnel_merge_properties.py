"""Property-based algebra of ``FunnelCounters.merged_with``.

Parallel workers hand their per-country funnels back in completion
order; the merge in ``StudyOutcome.funnel`` must therefore behave as a
commutative monoid — merge order unobservable, empty counter neutral —
for out-of-order parallel merging to be provably safe.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.geoloc.pipeline import FunnelCounters

FIELDS = [f.name for f in dataclasses.fields(FunnelCounters)]

counts = st.integers(min_value=0, max_value=10**9)
funnels = st.builds(FunnelCounters, **{name: counts for name in FIELDS})


@settings(max_examples=200)
@given(a=funnels, b=funnels)
def test_merge_is_commutative(a: FunnelCounters, b: FunnelCounters):
    assert a.merged_with(b) == b.merged_with(a)


@settings(max_examples=200)
@given(a=funnels, b=funnels, c=funnels)
def test_merge_is_associative(a: FunnelCounters, b: FunnelCounters, c: FunnelCounters):
    assert a.merged_with(b).merged_with(c) == a.merged_with(b.merged_with(c))


@settings(max_examples=200)
@given(a=funnels)
def test_empty_counter_is_identity(a: FunnelCounters):
    empty = FunnelCounters()
    assert a.merged_with(empty) == a
    assert empty.merged_with(a) == a


@settings(max_examples=200)
@given(a=funnels, b=funnels)
def test_merge_is_pure(a: FunnelCounters, b: FunnelCounters):
    """Merging never mutates its operands (workers may share them)."""
    a_before, b_before = dataclasses.replace(a), dataclasses.replace(b)
    a.merged_with(b)
    assert a == a_before
    assert b == b_before


@settings(max_examples=200)
@given(a=funnels, b=funnels)
def test_every_field_adds(a: FunnelCounters, b: FunnelCounters):
    """The merge is field-wise addition — no counter is dropped, so the
    dataclass can grow fields only if ``merged_with`` grows with it."""
    merged = a.merged_with(b)
    for name in FIELDS:
        assert getattr(merged, name) == getattr(a, name) + getattr(b, name), name


@settings(max_examples=200)
@given(parts=st.lists(funnels, min_size=0, max_size=8))
def test_fold_order_unobservable(parts):
    """Any fold order over a worker-result list yields the same total —
    exactly what the parallel merge relies on."""
    forward = FunnelCounters()
    for funnel in parts:
        forward = forward.merged_with(funnel)
    backward = FunnelCounters()
    for funnel in reversed(parts):
        backward = backward.merged_with(funnel)
    assert forward == backward


def test_derived_stages_consistent_after_merge():
    a = FunnelCounters(total_hosts=10, nonlocal_candidates=8, discarded_source=2,
                       discarded_destination=1, discarded_rdns=1, verified_nonlocal=4)
    b = FunnelCounters(total_hosts=7, nonlocal_candidates=5, discarded_source=1,
                       discarded_destination=0, discarded_rdns=2, verified_nonlocal=2)
    merged = a.merged_with(b)
    assert merged.after_latency_constraints == (
        a.after_latency_constraints + b.after_latency_constraints
    )
    assert merged.after_rdns == a.after_rdns + b.after_rdns
    assert merged.after_rdns == merged.verified_nonlocal


def test_stages_name_every_field_in_field_order():
    """``stages()`` is the one list of funnel stages that the
    ``country_funnel`` journal event and ``geoloc_funnel_total`` read, so
    its names and order are part of both formats."""
    funnel = FunnelCounters(*range(1, len(FIELDS) + 1))
    assert funnel.stages() == {
        "total_hosts": 1,
        "unlocated": 2,
        "local": 3,
        "nonlocal_candidates": 4,
        "discarded_source": 5,
        "discarded_destination": 6,
        "discarded_rdns": 7,
        "verified_nonlocal": 8,
        "destination_traceroutes": 9,
    }
    assert list(funnel.stages()) == FIELDS
