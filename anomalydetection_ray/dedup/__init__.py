"""Deduplication pipelines — exact, MinHash-LSH, SimHash, n-gram Jaccard,
embedding-cosine near-dup pairs, cross-document line/boilerplate and
duplicated-substring spans. First-class engine features for training-data
curation (the reference has no dedup at all, SURVEY.md §2.7)."""

from .exact import dedup_against_snapshot, exact_dedup
from .lines import line_dedup, line_drop_pairs
from .substrings import dup_span_stats, duplicated_gram_hashes, strip_dup_spans
from .neardup import (
    embedding_neardup_pairs,
    minhash_lsh_dedup,
    minhash_lsh_dedup_verified,
    neardup_pairs,
    simhash_dedup,
    simhash_fingerprints,
)

__all__ = [
    "exact_dedup",
    "dedup_against_snapshot",
    "line_dedup",
    "line_drop_pairs",
    "minhash_lsh_dedup",
    "minhash_lsh_dedup_verified",
    "neardup_pairs",
    "simhash_dedup",
    "simhash_fingerprints",
    "embedding_neardup_pairs",
    "duplicated_gram_hashes",
    "dup_span_stats",
    "strip_dup_spans",
]
