"""Tests for line data and address arithmetic."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mem.address import (
    LINE_BYTES,
    WORDS_PER_LINE,
    line_addr,
    make_addr,
    word_index,
)
from repro.mem.block import ZERO_LINE, LineData, mark_dirty
from repro.mem.cache_array import CacheLine


class TestAddress:
    def test_line_addr_aligns_down(self):
        assert line_addr(0) == 0
        assert line_addr(63) == 0
        assert line_addr(64) == 64
        assert line_addr(130) == 128

    def test_word_index(self):
        assert word_index(0) == 0
        assert word_index(4) == 1
        assert word_index(63) == 15

    def test_make_addr_roundtrip(self):
        addr = make_addr(5, 3)
        assert line_addr(addr) == 5 * LINE_BYTES
        assert word_index(addr) == 3

    def test_make_addr_rejects_bad_word(self):
        with pytest.raises(ValueError):
            make_addr(0, WORDS_PER_LINE)
        with pytest.raises(ValueError):
            make_addr(0, -1)

    @given(st.integers(min_value=0, max_value=2**40))
    def test_line_addr_idempotent(self, addr):
        assert line_addr(line_addr(addr)) == line_addr(addr)

    @given(
        st.integers(min_value=0, max_value=2**20),
        st.integers(min_value=0, max_value=WORDS_PER_LINE - 1),
    )
    def test_make_addr_decomposition(self, line_no, word):
        addr = make_addr(line_no, word)
        assert line_addr(addr) // LINE_BYTES == line_no
        assert word_index(addr) == word


class TestLineData:
    def test_zero_line_is_all_zero(self):
        assert all(w == 0 for w in ZERO_LINE.words)

    def test_with_word_replaces_one_word(self):
        line = ZERO_LINE.with_word(3, 99)
        assert line.word(3) == 99
        assert line.word(0) == 0
        assert ZERO_LINE.word(3) == 0  # original untouched

    def test_immutable(self):
        with pytest.raises(AttributeError):
            ZERO_LINE.words = ()  # type: ignore[misc]

    def test_equality_and_hash(self):
        a = ZERO_LINE.with_word(1, 5)
        b = LineData([0, 5] + [0] * 14)
        assert a == b
        assert hash(a) == hash(b)
        assert a != ZERO_LINE

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            LineData([1, 2, 3])

    def test_merged_without_updates_is_the_same_line(self):
        line = ZERO_LINE.with_word(2, 4)
        assert line.merged(None) is line
        assert line.merged({}) is line

    def test_merged_writes_only_the_given_words(self):
        line = ZERO_LINE.with_word(0, 1).merged({3: 7, 15: 9})
        assert line == LineData([1, 0, 0, 7] + [0] * 11 + [9])

    def test_pick_zero_mask_is_the_whole_line(self):
        line = LineData(range(WORDS_PER_LINE))
        assert line.pick(0) == {i: i for i in range(WORDS_PER_LINE)}
        assert line.pick((1 << 2) | (1 << 11)) == {2: 2, 11: 11}

    def test_mark_dirty_accumulates_the_word_mask(self):
        cached = CacheLine()
        cached.data = ZERO_LINE.with_word(1, 5)
        mark_dirty(cached, {3: 7})
        mark_dirty(cached, {9: 1, 3: 8})
        assert cached.dirty
        assert cached.meta == (1 << 3) | (1 << 9)
        assert cached.data.pick(cached.meta) == {3: 8, 9: 1}
        assert cached.data.word(1) == 5  # untouched words survive

    def test_repr_shows_nonzero_words(self):
        line = ZERO_LINE.with_word(2, 7)
        assert "2: 7" in repr(line)

    @given(
        st.integers(min_value=0, max_value=WORDS_PER_LINE - 1),
        st.integers(),
        st.integers(min_value=0, max_value=WORDS_PER_LINE - 1),
        st.integers(),
    )
    def test_with_word_order_independence_for_distinct_words(self, i, v1, j, v2):
        if i == j:
            return
        a = ZERO_LINE.with_word(i, v1).with_word(j, v2)
        b = ZERO_LINE.with_word(j, v2).with_word(i, v1)
        assert a == b
