"""Immutable per-line data values.

A 64-byte line is modelled as 16 four-byte words holding Python integers.
Workloads write tagged tokens and counters into words; the verification
oracle (:mod:`repro.verify`) checks every load returns a legal value.
Immutability means a line snapshot captured in a message can never be
corrupted by a later in-place write — mirroring hardware's copy semantics.

Partial-line writes travel as ``{word index: value}`` update dicts, applied
with :meth:`LineData.merged`.  A write-back cache remembers which words it
dirtied as an int bitmask in ``CacheLine.meta`` (:func:`mark_dirty`) — the
word-granular stand-in for gem5's byte masks — and sends back exactly those
words with :meth:`LineData.pick`.
"""

from __future__ import annotations

from typing import Iterable

from repro.mem.address import WORDS_PER_LINE


class LineData:
    """An immutable 16-word cache-line value."""

    __slots__ = ("words",)

    def __init__(self, words: Iterable[int] | None = None) -> None:
        if words is None:
            object.__setattr__(self, "words", _ZERO_WORDS)
        else:
            value = tuple(words)
            if len(value) != WORDS_PER_LINE:
                raise ValueError(
                    f"a line holds {WORDS_PER_LINE} words, got {len(value)}"
                )
            object.__setattr__(self, "words", value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("LineData is immutable")

    def word(self, index: int) -> int:
        return self.words[index]

    def with_word(self, index: int, value: int) -> "LineData":
        """A copy of this line with one word replaced."""
        words = list(self.words)
        words[index] = value
        return LineData(words)

    def merged(self, updates: dict[int, int] | None) -> "LineData":
        """This line with ``updates`` written over it (itself if none)."""
        if not updates:
            return self
        words = list(self.words)
        for index, value in updates.items():
            words[index] = value
        return LineData(words)

    def pick(self, mask: int) -> dict[int, int]:
        """The words whose bits are set in ``mask`` (0: the whole line)."""
        words = self.words
        if not mask:
            return dict(enumerate(words))
        return {i: w for i, w in enumerate(words) if mask >> i & 1}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LineData) and self.words == other.words

    def __hash__(self) -> int:
        return hash(self.words)

    def __repr__(self) -> str:
        nonzero = {i: w for i, w in enumerate(self.words) if w}
        return f"LineData({nonzero or '0'})"


def mark_dirty(line, updates: dict[int, int]) -> None:
    """Apply a store to a write-back cache ``line`` and add the stored
    words to its dirty mask (``line.meta``), so write-backs and probe
    forwards never clobber other agents' words in a falsely-shared line."""
    line.data = line.data.merged(updates)
    line.dirty = True
    mask = line.meta or 0
    for index in updates:
        mask |= 1 << index
    line.meta = mask


_ZERO_WORDS = (0,) * WORDS_PER_LINE

#: The all-zero line (fresh memory).
ZERO_LINE = LineData()
