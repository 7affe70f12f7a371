"""Audit: hot-path object types must stay ``__slots__``-only.

These classes are allocated per message / per cache line / per transaction
on the kernel's hot path.  A stray attribute or a subclass/edit that drops
``__slots__`` silently reintroduces a per-instance ``__dict__`` (56+ bytes
and a dict allocation each) — this test pins the invariant.
"""

from __future__ import annotations

import pytest

from repro.coherence.directory_entry import DirEntry
from repro.coherence.engine import Transition
from repro.coherence.transactions import Transaction
from repro.mem.block import LineData
from repro.mem.cache_array import CacheLine
from repro.protocol.messages import Message
from repro.protocol.types import MsgType
from repro.sim.stats import StatGroup

HOT_CLASSES = [Message, Transaction, CacheLine, DirEntry, LineData, StatGroup,
               Transition]


def _instance(cls):
    if cls is Message:
        return Message(MsgType.RDBLK, "a", "b", 0x40)
    if cls is Transaction:
        # one per in-flight directory request; carries its Figure-2 state
        return Transaction(Message(MsgType.RDBLK, "a", "b", 0x40))
    if cls is DirEntry:
        return DirEntry({"l2.0": 1})
    if cls is StatGroup:
        return StatGroup("g")
    if cls is Transition:
        return Transition("A", "e", ("A",), None, None, "handled", "", None)
    return cls()


@pytest.mark.parametrize("cls", HOT_CLASSES, ids=lambda c: c.__name__)
def test_hot_class_defines_slots(cls):
    assert "__slots__" in cls.__dict__, f"{cls.__name__} lost its __slots__"


@pytest.mark.parametrize("cls", HOT_CLASSES, ids=lambda c: c.__name__)
def test_hot_instances_have_no_dict(cls):
    instance = _instance(cls)
    # __dict__ sneaks back in when any class in the MRO lacks __slots__
    assert not hasattr(instance, "__dict__"), (
        f"{cls.__name__} instances carry a __dict__; some class in its MRO "
        "is missing __slots__"
    )


@pytest.mark.parametrize("cls", HOT_CLASSES, ids=lambda c: c.__name__)
def test_hot_instances_reject_ad_hoc_attributes(cls):
    with pytest.raises(AttributeError):
        _instance(cls).definitely_not_a_slot = 1
