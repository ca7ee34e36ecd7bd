"""GhostDB index structures: B+-trees on flash, climbing indexes,
Subtree Key Tables, Bloom filters and the Fig.-7 sizing model."""

from repro.index.bloom import BloomFilter, false_positive_rate
from repro.index.btree import BPlusTree
from repro.index.climbing import ClimbingIndex
from repro.index.keys import KeyCodec
from repro.index.sizing import IndexSizingModel, TableSpec
from repro.index.skt import SubtreeKeyTable

__all__ = [
    "BloomFilter",
    "BPlusTree",
    "ClimbingIndex",
    "IndexSizingModel",
    "KeyCodec",
    "SubtreeKeyTable",
    "TableSpec",
    "false_positive_rate",
]
