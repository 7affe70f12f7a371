"""Memory-system substrate: line data, cache arrays, replacement, DRAM."""

from repro.mem.address import (
    BYTES_PER_WORD,
    LINE_BYTES,
    WORDS_PER_LINE,
    line_addr,
    make_addr,
    word_index,
)
from repro.mem.block import LineData
from repro.mem.cache_array import CacheArray, CacheLine
from repro.mem.main_memory import MainMemory
from repro.mem.replacement import TreePLRU

__all__ = [
    "BYTES_PER_WORD",
    "CacheArray",
    "CacheLine",
    "LINE_BYTES",
    "LineData",
    "MainMemory",
    "TreePLRU",
    "WORDS_PER_LINE",
    "line_addr",
    "make_addr",
    "word_index",
]
