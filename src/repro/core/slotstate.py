"""Pickle-state shims for ``__slots__``-backed measurement records.

Moving a hot dataclass to ``slots=True`` changes its default pickle
protocol from NEWOBJ + ``__dict__`` state to a ``(None, slots_dict)``
2-tuple — which would both break old ``.run.pkl`` checkpoints (written
before the slots rollout) and change the pickle bytes of fresh runs.

:func:`install_slot_state` restores the historical wire format: a
field-ordered plain dict as ``__getstate__`` (byte-identical to the
pre-slots pickles) and a ``__setstate__`` that accepts both that dict
(old and new checkpoints alike) and the slotted 2-tuple (defensive, in
case a foreign pickler produced one).  Frozen dataclasses are handled
via ``object.__setattr__``.
"""

from __future__ import annotations

from typing import Optional, Sequence

__all__ = ["install_slot_state"]


def install_slot_state(cls, fields: Sequence[str],
                       optional: Sequence[str] = ()) -> None:
    """Give *cls* dict-shaped pickle state despite ``__slots__``.

    *fields* is the exact attribute order of the historical
    ``__dict__`` (dataclass field order).  Names in *optional* are
    omitted from the state when unset and tolerated when absent on
    restore — used for memo slots that old checkpoints never carried.
    """
    field_names = tuple(fields)
    optional_names = frozenset(optional)
    sentinel = object()

    def __getstate__(self):
        state = {}
        for name in field_names:
            value = getattr(self, name, sentinel)
            if value is sentinel:
                if name in optional_names:
                    continue
                raise AttributeError(name)
            state[name] = value
        return state

    def __setstate__(self, state):
        if isinstance(state, tuple):  # (dict_state, slots_state) pair
            merged = dict(state[0] or {})
            merged.update(state[1] or {})
            state = merged
        setter = object.__setattr__
        for name, value in state.items():
            setter(self, name, value)

    cls.__getstate__ = __getstate__
    cls.__setstate__ = __setstate__
