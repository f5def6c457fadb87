"""Duplicated-substring detection/removal (dedup/substrings.py) against a
pure-Python byte-level reference — actual substrings, not hashes, so the
tests also pin the rolling-hash kernel's correctness end to end."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from anomalydetection_ray.dedup.substrings import dup_span_stats, strip_dup_spans
from anomalydetection_ray.functions import shuffle
from anomalydetection_ray.functions.text import _WIN_BASE, kgram_hashes


def ref_marks(texts: list[str | None], k: int, min_docs: int = 2) -> list[np.ndarray]:
    """Byte positions per doc whose k-gram occurs in >= min_docs docs."""
    enc = [None if t is None else t.encode("utf-8", "surrogatepass") for t in texts]
    doc_count: dict[bytes, int] = {}
    for b in enc:
        if b is None:
            continue
        for g in {b[i: i + k] for i in range(len(b) - k + 1)}:
            doc_count[g] = doc_count.get(g, 0) + 1
    dup = {g for g, c in doc_count.items() if c >= min_docs}
    out = []
    for b in enc:
        if b is None or len(b) < k:
            out.append(np.empty(0, dtype=np.int64))
        else:
            out.append(np.array(
                [i for i in range(len(b) - k + 1) if b[i: i + k] in dup], dtype=np.int64
            ))
    return out


def ref_spans(pos: np.ndarray, k: int) -> list[tuple[int, int]]:
    spans: list[list[int]] = []
    for p in pos.tolist():
        if spans and p - (spans[-1][1] - k) <= k:
            spans[-1][1] = max(spans[-1][1], p + k)
        else:
            spans.append([p, p + k])
    return [tuple(s) for s in spans]


def ref_stats(texts, k, min_docs=2):
    rows = []
    for pos in ref_marks(texts, k, min_docs):
        spans = ref_spans(pos, k)
        rows.append((len(pos), len(spans), sum(e - s for s, e in spans)))
    return rows


def ref_strip(texts, k, min_docs=2):
    out = []
    for t, pos in zip(texts, ref_marks(texts, k, min_docs)):
        if t is None:
            out.append(None)
            continue
        b = t.encode("utf-8", "surrogatepass")
        keep, prev = [], 0
        for s, e in ref_spans(pos, k):
            # same codepoint snapping as the implementation: widen cuts
            # that land mid-UTF-8-character so kept text re-decodes
            while s > prev and s < len(b) and (b[s] & 0xC0) == 0x80:
                s -= 1
            while e < len(b) and (b[e] & 0xC0) == 0x80:
                e += 1
            keep.append(b[prev:max(s, prev)])
            prev = max(e, prev)
        keep.append(b[prev:])
        out.append(b"".join(keep).decode("utf-8", "surrogatepass"))
    return out


def _corpus() -> list[str | None]:
    rng = np.random.default_rng(7)
    vocab = ["alpha", "bravo", "charlie", "delta", "echo", "fox", "golf", "hotel"]
    header = "SPDX license header common to many documents in this corpus. "
    quote = " a famous quoted paragraph that several documents embed verbatim "
    texts: list[str | None] = []
    for i in range(60):
        words = " ".join(rng.choice(vocab, size=rng.integers(5, 40)))
        t = words
        if i % 4 == 0:
            t = header + t
        if i % 7 == 0:
            mid = len(t) // 2
            t = t[:mid] + quote + t[mid:]
        texts.append(t)
    texts += [None, "", "tiny", texts[5]]  # null, empty, short, exact dup
    return texts


def _ds(texts):
    import ray.data as rd

    return rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), type=pa.int64()),
        "text": pa.array(texts, type=pa.string()),
    }))


def _sorted_stats(res) -> list[tuple[int, int, int]]:
    t = pa.concat_tables(
        [b for b in res.iter_batches(batch_format="pyarrow", batch_size=None)],
        promote_options="default",
    ).sort_by([("doc_id", "ascending")])
    return list(zip(
        t["dup_gram_count"].to_pylist(),
        t["dup_span_count"].to_pylist(),
        t["dup_span_bytes"].to_pylist(),
    ))


K = 12


@pytest.mark.parametrize("forced", [False, True], ids=["broadcast", "distributed"])
def test_stats_match_reference(ray_session, forced, monkeypatch):
    if forced:
        monkeypatch.setattr(shuffle, "DRIVER_MAX_ROWS", -1)
    texts = _corpus()
    got = _sorted_stats(dup_span_stats(_ds(texts), k=K))
    assert got == ref_stats(texts, K)
    assert any(g for g, _, _ in got)  # non-degenerate: planted dups found


@pytest.mark.parametrize("forced", [False, True], ids=["broadcast", "distributed"])
def test_strip_matches_reference(ray_session, forced, monkeypatch):
    if forced:
        monkeypatch.setattr(shuffle, "DRIVER_MAX_ROWS", -1)
    texts = _corpus()
    res = strip_dup_spans(_ds(texts), k=K)
    t = pa.concat_tables(
        [b for b in res.iter_batches(batch_format="pyarrow", batch_size=None)],
        promote_options="default",
    ).sort_by([("doc_id", "ascending")])
    assert t["text"].to_pylist() == ref_strip(texts, K)
    # planted header/quote really were cut from every carrier
    for cleaned in t["text"].to_pylist():
        if cleaned:
            assert "SPDX license header" not in cleaned
            assert "famous quoted paragraph" not in cleaned


def test_strip_min_remaining_drops(ray_session):
    # two identical docs: everything is duplicated, remaining text is empty
    texts = ["exactly the same content here", "exactly the same content here",
             "some other unique content x1"]
    res = strip_dup_spans(_ds(texts), k=8, min_remaining_bytes=1)
    t = pa.concat_tables(
        [b for b in res.iter_batches(batch_format="pyarrow", batch_size=None)],
        promote_options="default",
    )
    assert t.num_rows == 1 and t["doc_id"].to_pylist() == [2]


def test_non_ascii_byte_semantics(ray_session):
    # multi-byte UTF-8: positions/lengths count BYTES; the reference
    # operates on encoded bytes, so agreement pins the semantics
    texts = ["préfixe commun ünïcode partagé entre documents AAAA",
             "préfixe commun ünïcode partagé entre documents BBBB",
             "täxte complètement différent sans chevauchement ici"]
    got = _sorted_stats(dup_span_stats(_ds(texts), k=10))
    assert got == ref_stats(texts, 10)
    assert got[0][2] > 0 and got[0] == got[1]


def test_strip_span_starting_mid_codepoint(ray_session):
    # a duplicated byte-run that starts on a UTF-8 continuation byte
    # (shared suffix behind different multi-byte leads) used to crash the
    # cut with UnicodeDecodeError; the cut must snap to codepoint
    # boundaries and the output must stay valid, reference-identical text
    shared = "0123456789abcdefghijklmnopqrstuv"  # >= k ASCII bytes
    texts = ["é" + shared, "ĩ" + shared, "unrelated filler text zzzz"]
    res = strip_dup_spans(_ds(texts), k=8)
    t = pa.concat_tables(
        [b for b in res.iter_batches(batch_format="pyarrow", batch_size=None)],
        promote_options="default",
    ).sort_by([("doc_id", "ascending")])
    got = t["text"].to_pylist()
    assert got == ref_strip(texts, 8)
    for cleaned in got:
        assert shared not in cleaned
        cleaned.encode("utf-8")  # valid text, no dangling bytes


def test_within_doc_repeat_not_marked(ray_session):
    # a substring repeated only WITHIN one doc is not cross-doc duplicated
    texts = ["zzzzrepeatmezzzzrepeatmezzzz", "totally unrelated words here"]
    got = _sorted_stats(dup_span_stats(_ds(texts), k=8))
    assert got == [(0, 0, 0), (0, 0, 0)]


def test_min_docs_threshold(ray_session):
    shared = "this sentence appears in exactly two documents"
    texts = [shared + " one", shared + " two", "nothing in common at all q"]
    got = _sorted_stats(dup_span_stats(_ds(texts), k=10))
    assert got[0][2] >= len(shared) and got[2] == (0, 0, 0)


def test_kgram_hashes_bit_identical_to_naive():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n, k = int(rng.integers(0, 200)), int(rng.integers(1, 32))
        b = rng.integers(0, 256, size=n).astype(np.uint8)
        win = np.lib.stride_tricks.sliding_window_view(b, k).astype(np.uint64) \
            if n >= k else np.empty((0, k), dtype=np.uint64)
        powers = np.array([pow(int(_WIN_BASE), k - 1 - i, 1 << 64) for i in range(k)],
                          dtype=np.uint64)
        h = (win * powers).sum(axis=1)
        h ^= h >> np.uint64(33)
        h *= np.uint64(0xFF51AFD7ED558CCD)
        h ^= h >> np.uint64(33)
        got = kgram_hashes(b, k)
        assert got.shape == h.shape and (got == h).all()


def test_strip_min_remaining_keeps_null_text_rows(ray_session):
    """Null-text rows were never cut; min_remaining_bytes must not drop
    them (round-5 review: coalesce-to-0 silently lost them at any
    positive threshold while 0 kept them)."""
    import ray.data as rd

    texts = ["exactly the same content here", "exactly the same content here", None]
    t = pa.table({
        "doc_id": pa.array([0, 1, 2], type=pa.int64()),
        "text": pa.array(texts, type=pa.string()),
    })
    res = strip_dup_spans(rd.from_arrow(t), k=8, min_remaining_bytes=1)
    out = pa.concat_tables(
        [b for b in res.iter_batches(batch_format="pyarrow", batch_size=None)],
        promote_options="default",
    )
    assert out["doc_id"].to_pylist() == [2]
    assert out["text"].to_pylist() == [None]
