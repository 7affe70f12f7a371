"""Tree-PLRU replacement, the policy of every cache in Table II.

:class:`TreePLRU` is the reference walk over an explicit bit list.
:class:`~repro.mem.cache_array.CacheArray` keeps each set's tree in one
integer and derives its touch masks and victim table from this class, so the
two cannot disagree.  §VII's state-aware directory replacement is a cost key
over the same tree: ``CacheArray.choose_victim(cost_of=...)`` filters to the
cheapest ways and ranks them with :func:`preferred_order`.
"""

from __future__ import annotations

import copy
from typing import Iterable


class TreePLRU:
    """Tree pseudo-LRU over the next power of two of ``ways``.

    Internal nodes hold one bit each: 0 means "the LRU side is the left
    subtree", 1 means right.  Touching a way flips the bits on its root path
    to point away from it; the victim walk follows the bits.  For non-power-
    of-two associativities the walk is re-run with the reached leaf marked
    most-recent until it lands on a real way (bounded by tree height).
    """

    def __init__(self, ways: int) -> None:
        self.ways = ways
        self._leaves = 1
        while self._leaves < ways:
            self._leaves *= 2
        # bits[1] is the root; children of node i are 2i and 2i+1.
        self._bits = [0] * self._leaves

    def touch(self, way: int) -> None:
        """Record an access to ``way``."""
        node = 1
        span = self._leaves
        base = 0
        while span > 1:
            span //= 2
            if way < base + span:
                self._bits[node] = 1  # LRU side is now the right
                node = 2 * node
            else:
                self._bits[node] = 0
                node = 2 * node + 1
                base += span
        # leaf reached; nothing stored at leaves

    def victim(self) -> int:
        """Choose the way to replace."""
        for _attempt in range(self._leaves):
            node = 1
            span = self._leaves
            base = 0
            while span > 1:
                span //= 2
                if self._bits[node] == 0:
                    node = 2 * node
                else:
                    node = 2 * node + 1
                    base += span
            if base < self.ways:
                return base
            # Padding leaf (non-power-of-two ways): mark it recent and retry.
            self.touch(base)
        raise RuntimeError("TreePLRU failed to find a victim")  # pragma: no cover


def preferred_order(policy: TreePLRU, ways: Iterable[int] | None = None) -> list[int]:
    """Rank ``ways`` (default: all of them) from most- to least-preferred
    victim, without disturbing the live policy state.

    The ranking comes from repeatedly victimizing and touching a copy: each
    round surfaces the next-preferred way.
    """
    requested = list(range(policy.ways)) if ways is None else list(ways)
    invalid = [way for way in requested if not 0 <= way < policy.ways]
    if invalid:
        raise ValueError(f"ways out of range for {policy.ways}-way policy: {invalid}")
    clone = copy.deepcopy(policy)
    ranking: list[int] = []
    remaining = set(range(policy.ways))
    while remaining:
        victim = clone.victim()
        if victim in remaining:
            ranking.append(victim)
            remaining.discard(victim)
        clone.touch(victim)
    rank = {way: r for r, way in enumerate(ranking)}
    return sorted(requested, key=lambda way: rank[way])
