"""Hierarchical statistics.

Every component owns a :class:`StatGroup`.  Groups hold integer counters,
scalar values, and child groups, and can be rendered as a flat
``name.counter = value`` listing — close in spirit to gem5's ``stats.txt``.

Counter rule: ``_counters`` is a ``defaultdict(int)``, so a counter comes
into existence with its first increment and nowhere else.  Hot paths may
bind ``group._counters`` once and write ``counters[name] += amount``
directly; :meth:`StatGroup.inc` is the same operation behind a method call.
Reads go through ``group[name]``, :meth:`~StatGroup.get`,
:meth:`~StatGroup.total` or :meth:`~StatGroup.counters`, none of which
creates a counter, so a missing name never shows up in ``as_dict()``.  A
counter and a child group may not share a name (their dotted keys would
collide): :meth:`~StatGroup.inc`, :meth:`~StatGroup.set` and
:meth:`~StatGroup.child` refuse one at creation, and
:meth:`~StatGroup.flatten_into` (behind ``walk()`` and ``as_dict()``)
refuses one made by a direct increment.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterator


class StatGroup:
    """A named bag of counters and child groups."""

    __slots__ = ("name", "_counters", "_children")

    def __init__(self, name: str) -> None:
        self.name = name
        self._counters: defaultdict[str, int | float] = defaultdict(int)
        self._children: dict[str, "StatGroup"] = {}

    # -- counters ---------------------------------------------------------

    def inc(self, counter: str, amount: int | float = 1) -> None:
        """Increment ``counter`` by ``amount`` (creating it at zero)."""
        counters = self._counters
        if counter not in counters:
            self._reserve_counter(counter)
        counters[counter] += amount

    def set(self, counter: str, value: int | float) -> None:
        if counter not in self._counters:
            self._reserve_counter(counter)
        self._counters[counter] = value

    def _reserve_counter(self, counter: str) -> None:
        if counter in self._children:
            raise ValueError(
                f"stat name collision in group {self.name!r}: {counter!r} is "
                "already a child group; the dotted keys would collide in "
                "walk()/as_dict()"
            )

    def get(self, counter: str, default: int | float = 0) -> int | float:
        return self._counters.get(counter, default)

    def __getitem__(self, counter: str) -> int | float:
        return self._counters.get(counter, 0)

    def counters(self) -> dict[str, int | float]:
        """A copy of this group's own counters (children excluded)."""
        return dict(self._counters)

    # -- hierarchy --------------------------------------------------------

    def child(self, name: str) -> "StatGroup":
        """Get or create a child group."""
        group = self._children.get(name)
        if group is None:
            if name in self._counters:
                raise ValueError(
                    f"stat name collision in group {self.name!r}: {name!r} is "
                    "already a counter; the dotted keys would collide in "
                    "walk()/as_dict()"
                )
            group = StatGroup(name)
            self._children[name] = group
        return group

    def children(self) -> dict[str, "StatGroup"]:
        return dict(self._children)

    # -- aggregation ------------------------------------------------------

    def total(self, counter: str) -> int | float:
        """Sum of ``counter`` over this group and all descendants."""
        value = self._counters.get(counter, 0)
        for childgroup in self._children.values():
            value += childgroup.total(counter)
        return value

    def flatten_into(self, out: dict[str, int | float], prefix: str = "") -> None:
        """Write every counter in the subtree into ``out`` as
        ``dotted_name -> value``: this group's counters sorted by name, then
        each child's subtree in child-name order.  One pass, no generators,
        so a whole system's groups can fill one dict."""
        base = f"{prefix}{self.name}."
        counters = self._counters
        children = self._children
        for child_name in children:
            if child_name in counters:
                self._reserve_counter(child_name)
        for counter in sorted(counters):
            out[base + counter] = counters[counter]
        for child_name in sorted(children):
            children[child_name].flatten_into(out, base)

    def walk(self, prefix: str = "") -> Iterator[tuple[str, int | float]]:
        """``(dotted_name, value)`` for every counter in the subtree, in
        :meth:`flatten_into` order."""
        out: dict[str, int | float] = {}
        self.flatten_into(out, prefix)
        return iter(out.items())

    def as_dict(self) -> dict[str, int | float]:
        out: dict[str, int | float] = {}
        self.flatten_into(out)
        return out

    def dump(self) -> str:
        """Render the subtree as aligned ``name = value`` lines."""
        rows = list(self.walk())
        if not rows:
            return f"{self.name}: (no stats)"
        width = max(len(name) for name, _value in rows)
        lines = [f"{name:<{width}} = {value}" for name, value in rows]
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"StatGroup({self.name!r}, counters={len(self._counters)}, "
            f"children={len(self._children)})"
        )
