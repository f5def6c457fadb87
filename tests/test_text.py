"""Text-function unit tests + a planted-PII curation-gate equivalence test.

The synthetic corpus contains zero email/URL/IP hits by construction, so the
curation pipeline's PII gate is vacuous at driver-test scale; here we plant
PII and degenerate-repetition docs into a scratch corpus and assert both the
batch kernels and the full curation pipeline (Ray vs its own DuckDB oracle)
react to them.
"""

from __future__ import annotations

import duckdb
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from anomalydetection_ray.functions.text import (
    pii_pattern_counts_batch,
    repetition_batch,
)


def test_pii_pattern_counts_planted():
    batch = pa.Table.from_pydict(
        {
            "doc_id": [0, 1, 2, 3],
            "text": [
                "contact me at alice@example.com or bob.smith+x@sub.domain.org",
                "see https://example.com/path?q=1 and http://foo.bar",
                "server at 10.0.0.1 and 192.168.1.255 responded",
                "perfectly clean text with no personal identifiers at all",
            ],
        }
    )
    out = pii_pattern_counts_batch(batch)
    assert out["n_emails"].to_pylist() == [2, 0, 0, 0]
    assert out["n_urls"].to_pylist() == [0, 2, 0, 0]
    assert out["n_ips"].to_pylist() == [0, 0, 2, 0]


def test_repetition_batch_degenerate():
    batch = pa.Table.from_pydict(
        {
            "doc_id": [0, 1, 2],
            "text": [
                "spam " * 40,  # 40 tokens, 1 distinct
                " ".join(f"w{i}" for i in range(40)),  # all distinct
                None,
            ],
        }
    )
    out = repetition_batch(batch)
    ratios = out["distinct_ratio"].to_pylist()
    assert ratios[0] == pytest.approx(1 / 40)
    assert ratios[1] == 1.0
    assert out["n_tokens_r"].to_pylist()[2] == 0
    assert out["top_token_share"].to_pylist()[0] == 1.0


def test_curation_gate_drops_pii_and_repetition(ray_session, tmp_path):
    """Plant PII-bearing and repetitive docs; the curation pipeline must
    drop them, and the Ray result must still match its composed DuckDB
    oracle on the planted corpus (the gate has real effect here, unlike
    on the synthetic testdata where PII is vacuously absent)."""
    from anomalydetection_ray.pipelines.queries import registry

    fn, sql = registry()["curation_pipeline_docs"]

    clean = " ".join(f"tok{i}" for i in range(30))
    bench_text = " ".join(f"bench{i}" for i in range(30))
    # doc 128 sits on the doc_id % 64 == 0 benchmark slice: it and any doc
    # sharing an 8-token n-gram with it must fall to decontamination
    leak = " ".join(f"bench{i}" for i in range(10, 20)) + " " + " ".join(
        f"other{i}" for i in range(16)
    )
    rows = pd.DataFrame(
        {
            "doc_id": [100, 101, 102, 103, 104, 128, 105],
            "text": [
                clean,  # kept
                clean + " email hit alice@example.com now",  # PII -> dropped
                "dup " * 40,  # distinct_ratio 1/40 -> dropped
                "short text",  # < 24 tokens -> dropped
                clean + " extra",  # near-dup of doc 100 (J ~ 0.97) -> collapses
                bench_text,  # benchmark slice doc: self-contaminated -> dropped
                leak,  # shares a 10-token run with the bench doc -> dropped
            ],
            "lang": ["en"] * 7,
        }
    )
    pq.write_table(pa.Table.from_pandas(rows), str(tmp_path / "documents.parquet"))

    res = fn(str(tmp_path))
    got = res.to_pandas().sort_values("doc_id").reset_index(drop=True)

    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{tmp_path}/documents.parquet')"
    )
    want = con.sql(sql).df().sort_values("doc_id").reset_index(drop=True)

    # PII doc, repetitive doc, short doc all gone; the bench doc and its
    # n-gram leak fall to decontamination; doc 104 collapses into 100
    assert got["doc_id"].tolist() == [100]
    pd.testing.assert_frame_equal(
        got[sorted(got.columns)].astype(str), want[sorted(want.columns)].astype(str)
    )


def test_term_doc_stats_and_tfidf_topk(ray_session):
    import duckdb
    import numpy as np
    import ray.data as rd

    from anomalydetection_ray.functions.text import term_doc_stats, tfidf_top_terms
    from anomalydetection_ray.pipelines.queries import as_table

    docs = pa.table(
        {
            "text": pa.array(
                ["a b a", "b c", None, "", "a a a a", "c c b", "x y", "y x y"]
            )
        }
    )
    for parts in (1, 5):
        ds = rd.from_arrow(docs).repartition(parts)
        got = (
            as_table(term_doc_stats(ds))
            .to_pandas()
            .sort_values("term")
            .reset_index(drop=True)
        )
        # hand-check: a appears 2+4=6 times in 2 docs; b 1+1+1=3 in 3 docs
        want = {
            "a": (6, 2), "b": (3, 3), "c": (3, 2), "x": (2, 2), "y": (3, 2),
        }
        assert {r.term: (r.cnt, r.df) for r in got.itertuples()} == want

    top = tfidf_top_terms(rd.from_arrow(docs).repartition(3), n_docs=docs.num_rows, k=3)
    con = duckdb.connect()
    con.register("d", docs)
    want_df = con.execute(
        r"""
        WITH n AS (SELECT CAST(COUNT(*) AS DOUBLE) AS nd FROM d),
        toks AS (SELECT ROW_NUMBER() OVER () AS i, unnest(regexp_extract_all(COALESCE(text,''), '\S+')) AS tok FROM d),
        s AS (SELECT tok AS term, COUNT(*) AS cnt, COUNT(DISTINCT i) AS df FROM toks GROUP BY tok)
        SELECT term, cnt, df, ROUND(cnt * LN(nd / df), 6) AS tfidf FROM s, n
        ORDER BY tfidf DESC, term LIMIT 3
        """
    ).df()
    got_df = top.to_pandas()
    assert got_df["term"].tolist() == want_df["term"].tolist()
    np.testing.assert_allclose(got_df["tfidf"], want_df["tfidf"], rtol=0, atol=1e-9)

    with pytest.raises(ValueError, match="ngram"):
        term_doc_stats(rd.from_arrow(docs), ngram=3)
    with pytest.raises(ValueError, match="order"):
        tfidf_top_terms(rd.from_arrow(docs), n_docs=8, order="df")


def test_bm25_scores_match_python_reference(ray_session):
    """BM25 (Okapi, Lucene idf): corpus stats match a per-doc Python
    reference at any block layout; per-row scores match it too; zero
    score for docs with no query term; guards."""
    import math

    import numpy as np
    import ray.data as rd

    from anomalydetection_ray.functions.text import bm25_corpus_stats, bm25_score_batch

    texts = [
        "hash join fast",
        "join join join slow",
        None,
        "",
        "scan scan hash scan table",
        "the quick brown fox",
        "fast fast",
    ]
    docs = pa.table({"doc_id": pa.array(range(len(texts)), type=pa.int64()), "text": texts})
    q = ["hash", "join", "scan", "fast"]
    k1, b = 1.2, 0.75

    # Python reference
    toklists = [(t or "").split() for t in texts]
    N = len(texts)
    dls = [len(t) for t in toklists]
    avgdl_ref = sum(dls) / N
    df_ref = {t: sum(1 for toks in toklists if t in toks) for t in q}
    idf = {t: math.log(1.0 + (N - df_ref[t] + 0.5) / (df_ref[t] + 0.5)) for t in q}

    def ref_score(toks):
        dl = len(toks)
        s = 0.0
        for t in q:
            tf = toks.count(t)
            if tf:
                s += idf[t] * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avgdl_ref))
        return s

    want = [ref_score(t) for t in toklists]

    for parts in (1, 4):
        ds = rd.from_arrow(docs).repartition(parts)
        n_docs, avgdl, df = bm25_corpus_stats(ds, q)
        assert (n_docs, df) == (N, df_ref) and abs(avgdl - avgdl_ref) < 1e-12
    got = bm25_score_batch(docs, idf, avgdl_ref, k1=k1, b=b)["bm25"].to_numpy()
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    # docs with no query term score exactly 0 (None, "", "the quick...")
    assert want[2] == want[3] == want[5] == 0.0 and got[2] == got[3] == got[5] == 0.0

    with pytest.raises(ValueError, match="non-empty"):
        bm25_corpus_stats(rd.from_arrow(docs), [])


def test_char_trigram_lm_fit_score_unseen_and_layout(ray_session):
    """CharTrigramLM: layout-invariant fit, exact hand-checked probabilities,
    unseen-trigram floor (never -inf), <3-char texts -> null, unicode safe."""
    import math

    import numpy as np
    import pandas as pd
    import ray.data as rd

    from anomalydetection_ray.functions.text import CharTrigramLM, char_trigram_lm

    corpus = pd.DataFrame({"text": ["abcabc", "bca", "日本語のテキスト", None, "xy"]})
    # trigram multiset: abcabc -> abc,bca,cab,abc ; bca -> bca ;
    # 日本語のテキスト -> 6 windows ; None/xy -> none. total = 11
    models = [
        char_trigram_lm(rd.from_pandas(corpus).repartition(nb)) for nb in (1, 2, 5)
    ]
    m0 = models[0]
    assert m0.total == 11.0
    for m in models[1:]:
        assert np.array_equal(m.vocab, m0.vocab) and np.array_equal(m.counts, m0.counts)

    lp = m0.logprob(["abc", "bca", "zzz", "ab", "", None, "日本語"])
    assert abs(lp[0] - math.log(2 / 11)) < 1e-12      # abc seen twice
    assert abs(lp[1] - math.log(2 / 11)) < 1e-12      # bca seen twice
    assert abs(lp[2] - math.log(1 / 11)) < 1e-12      # unseen floors at count 1
    assert np.isnan(lp[3]) and np.isnan(lp[4]) and np.isnan(lp[5])
    assert np.isfinite(lp[6])

    # min_count pruning: trigrams below the floor score as unseen
    pruned = char_trigram_lm(rd.from_pandas(corpus), min_count=2)
    assert pruned.vocab.size == 2  # only abc and bca survive
    lp2 = pruned.logprob(["cab"])
    assert abs(lp2[0] - math.log(1 / pruned.total)) < 1e-12

    # empty corpus
    empty = char_trigram_lm(rd.from_pandas(pd.DataFrame({"text": ["ab", None]})))
    assert np.isnan(empty.logprob(["abcdef"])[0])


def test_decontaminate_filters_ngram_overlap(ray_session, monkeypatch):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from anomalydetection_ray.functions.text import decontaminate

    corpus = pa.table(
        {
            "doc_id": pa.array(list(range(5)), type=pa.int64()),
            "text": [
                "the quick brown fox jumps over the lazy dog",  # shares 4-gram with bench
                "completely unrelated text about ray data engines",
                "short one",  # < n tokens -> clean
                "quick brown fox jumps",  # exactly the bench 4-gram
                "the quick brown wolf jumps over nothing",  # no shared 4-gram
            ],
        }
    )
    bench = pa.table({"text": ["we saw the quick brown fox jumps today", "evaluation prompt xyz"]})
    for parts in (1, 3):
        ds = rd.from_arrow(corpus).repartition(parts)
        out = (
            decontaminate(ds, "text", rd.from_arrow(bench), n=4)
            .to_pandas()
            .sort_values("doc_id")
        )
        assert out["doc_id"].tolist() == [1, 2, 4]
    # n larger than every doc -> everything clean
    out2 = decontaminate(rd.from_arrow(corpus), "text", rd.from_arrow(bench), n=50).to_pandas()
    assert len(out2) == 5
    # bench-size contract enforced loudly
    import pytest as _pytest

    from anomalydetection_ray.functions import text as text_mod

    with monkeypatch.context() as m, _pytest.raises(ValueError, match="MAX_BENCH_NGRAMS"):
        m.setattr(text_mod, "MAX_BENCH_NGRAMS", 1)
        decontaminate(rd.from_arrow(corpus), "text", rd.from_arrow(bench), n=2).to_pandas()
    with _pytest.raises(ValueError):
        decontaminate(rd.from_arrow(corpus), "text", rd.from_arrow(bench), n=0)


def test_decontaminate_matches_python_reference(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from anomalydetection_ray.functions.text import decontaminate

    rng = np.random.default_rng(13)
    vocab = [f"w{i}" for i in range(30)]
    docs = [" ".join(rng.choice(vocab, size=rng.integers(3, 40))) for _ in range(200)]
    bench = [" ".join(rng.choice(vocab, size=rng.integers(5, 25))) for _ in range(20)]
    n = 3

    def grams(s):
        t = s.split()
        return {tuple(t[i : i + n]) for i in range(len(t) - n + 1)}

    bset = set().union(*[grams(b) for b in bench])
    want_clean = [i for i, d in enumerate(docs) if not (grams(d) & bset)]
    t = pa.table({"doc_id": pa.array(list(range(200)), type=pa.int64()), "text": docs})
    got = (
        decontaminate(
            rd.from_arrow(t).repartition(4), "text", rd.from_arrow(pa.table({"text": bench})), n=n
        )
        .to_pandas()["doc_id"]
        .sort_values()
        .tolist()
    )
    assert got == want_clean
    assert 0 < len(got) < 200  # the test corpus genuinely splits


def test_dsir_weights_match_single_pass_reference(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from anomalydetection_ray.functions.text import (
        dsir_bucket_counts,
        dsir_logratio_vector,
        dsir_weights,
        hashed_ngram_buckets,
    )

    rng = np.random.default_rng(7)
    sci = ["protein", "enzyme", "genome", "catalysis", "neuron"]
    web = ["click", "buy", "sale", "free", "login", "page"]
    texts = [" ".join(rng.choice(sci if i % 3 == 0 else web, size=12)) for i in range(90)]
    texts += ["", None]
    ids = list(range(len(texts)))
    t = pa.table({"doc_id": pa.array(ids, type=pa.int64()), "text": pa.array(texts, type=pa.string())})
    raw = rd.from_arrow(t).repartition(5)
    tgt_t = t.filter(pa.array([i % 3 == 0 for i in ids]))
    tgt = rd.from_arrow(tgt_t).repartition(3)

    n_buckets = 512
    got = (
        dsir_weights(raw, "text", tgt, n_buckets=n_buckets)
        .to_pandas()
        .sort_values("doc_id")["dsir_logratio"]
        .to_numpy()
    )

    # single-pass reference: same feature map, whole corpus in one table
    def counts(tab):
        _, b = hashed_ngram_buckets(tab["text"], (1, 2), n_buckets)
        return np.bincount(b, minlength=n_buckets).astype(np.int64)

    lr = dsir_logratio_vector(counts(tgt_t), counts(t))
    i, b = hashed_ngram_buckets(t["text"], (1, 2), n_buckets)
    want = np.bincount(i, weights=lr[b], minlength=len(ids))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    # distributed counts match the single-pass counts exactly
    np.testing.assert_array_equal(dsir_bucket_counts(raw, n_buckets=n_buckets), counts(t))

    # science-like docs (the target domain) must outscore web-like docs
    sci_scores = [s for did, s in zip(ids, want) if did % 3 == 0 and texts[did]]
    web_scores = [s for did, s in zip(ids, want) if did % 3 != 0 and texts[did]]
    assert min(sci_scores) > max(web_scores)
    # empty/null docs carry zero evidence
    assert got[-1] == 0.0 and got[-2] == 0.0


def test_dsir_logratio_vector_validation():
    import numpy as np
    import pytest as _pytest

    from anomalydetection_ray.functions.text import dsir_logratio_vector

    with _pytest.raises(ValueError):
        dsir_logratio_vector(np.zeros(4, dtype=np.int64), np.zeros(8, dtype=np.int64))
    with _pytest.raises(ValueError):
        dsir_logratio_vector(np.zeros(4, dtype=np.int64), np.zeros(4, dtype=np.int64), alpha=0)
    # all-empty corpora degrade to a uniform/uniform ratio: exactly zero
    lr = dsir_logratio_vector(np.zeros(4, dtype=np.int64), np.zeros(4, dtype=np.int64))
    assert (lr == 0).all()


def test_decontaminate_bloom_mode_matches_exact(ray_session, monkeypatch):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from anomalydetection_ray.functions.text import decontaminate

    rng = np.random.default_rng(23)
    vocab = [f"w{i}" for i in range(200)]
    texts = [" ".join(rng.choice(vocab, size=30)) for _ in range(120)]
    corpus = pa.table({"doc_id": pa.array(np.arange(120), type=pa.int64()),
                       "text": pa.array(texts, type=pa.string())})
    # bench: 10 fresh prompts plus verbatim copies of 6 corpus docs
    bench_texts = [" ".join(rng.choice(vocab, size=25)) for _ in range(10)]
    bench_texts += [texts[i] for i in (3, 17, 40, 77, 90, 119)]
    bench = pa.table({"text": pa.array(bench_texts, type=pa.string())})

    for parts in (1, 4):
        ds = rd.from_arrow(corpus).repartition(parts)
        bds = rd.from_arrow(bench).repartition(parts)
        exact = decontaminate(ds, "text", bds, n=8).to_pandas()["doc_id"].tolist()
        bloom = decontaminate(ds, "text", bds, n=8, mode="bloom", fp_rate=1e-9).to_pandas()[
            "doc_id"
        ].tolist()
        # no false negatives ever; at fp 1e-9 on this corpus no false
        # positives either -> identical output
        assert sorted(bloom) == sorted(exact)
        for leaked in (3, 17, 40, 77, 90, 119):
            assert leaked not in bloom
    # capacity contract still enforced loudly in bloom mode
    import pytest as _pytest

    from anomalydetection_ray.functions import text as text_mod

    with monkeypatch.context() as m, _pytest.raises(ValueError, match="MAX_BENCH_NGRAMS"):
        m.setattr(text_mod, "MAX_BENCH_NGRAMS", 1)
        decontaminate(rd.from_arrow(corpus), "text", rd.from_arrow(bench), n=2, mode="bloom").to_pandas()
    with _pytest.raises(ValueError, match="mode"):
        decontaminate(rd.from_arrow(corpus), "text", rd.from_arrow(bench), mode="nope")
    # empty bench set: everything clean
    empty = pa.table({"text": pa.array([], type=pa.string())})
    out = decontaminate(rd.from_arrow(corpus), "text", rd.from_arrow(empty), n=8,
                        mode="bloom").to_pandas()
    assert len(out) == 120


def test_bloom_view_bytes_zero_copy_probe():
    import numpy as np

    from anomalydetection_ray.sketches.bloom import BloomFilter

    vals = np.arange(1000, dtype=np.uint64)
    bf = BloomFilter(1000, 1e-6).update(vals)
    raw = bf.to_bytes()
    view = BloomFilter.view_bytes(raw)
    assert view.contains(vals).all()
    assert not view.contains(np.arange(10_000, 11_000, dtype=np.uint64)).any()
    # the view is read-only: mutation must fail, not silently corrupt
    import pytest as _pytest

    with _pytest.raises((ValueError, TypeError)):
        view.update(np.array([7], dtype=np.uint64))


def test_normalize_and_strip_markup_and_encoding_damage():
    import pyarrow as pa

    from anomalydetection_ray.functions.text import (
        normalize_text_batch,
        strip_markup_batch,
    )

    true = "caf" + chr(0xE9) + " said " + chr(0x201C) + "hello" + chr(0x201D) + " " + chr(0x2014) + " fine"

    def damage(s, enc):
        raw = s.encode("utf-8")
        try:
            return raw.decode(enc)
        except UnicodeDecodeError:
            return raw.decode("latin-1")

    tb = pa.table({"text": [
        damage(true, "cp1252"),   # latin-1 fallback (0x9D unmapped in cp1252)
        damage("caf" + chr(0xE9) + " ok", "cp1252"),  # pure cp1252 artifact
        "<p>Hi &amp; bye</p>\n\n  spaced\tout  ",
        "e" + chr(0x301) + "tude",  # decomposed -> NFC composes
        None,
    ]})
    out = normalize_text_batch(strip_markup_batch(tb))["text"].to_pylist()
    assert out[0] == true
    assert out[1] == "caf" + chr(0xE9) + " ok"
    assert out[2] == "Hi & bye spaced out"
    assert out[3] == chr(0xE9) + "tude"
    assert out[4] == ""


def test_normalize_and_strip_markup_write_the_named_column(ray_session, tmp_path):
    """Both kernels rewrite ``text_col`` in place: a corpus whose text
    column is ``content`` gets stripped, normalized content and no stray
    ``text`` column — on the kernels and through ``curate_corpus``."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from anomalydetection_ray.functions.text import normalize_text_batch, strip_markup_batch
    from anomalydetection_ray.pipelines.curate import curate_corpus

    raw = "<b>Hi</b>   there, this " + "caf" + chr(0xC3) + chr(0xA9) + " line has   enough tokens"
    clean = "Hi there, this caf" + chr(0xE9) + " line has enough tokens"
    tb = pa.table({"doc_id": pa.array([1], type=pa.int64()), "content": [raw]})
    out = normalize_text_batch(strip_markup_batch(tb, "content"), "content")
    assert out.column_names == ["doc_id", "content"]
    assert out["content"].to_pylist() == [clean]

    src = str(tmp_path / "docs.parquet")
    pq.write_table(tb, src)
    res = curate_corpus(src, str(tmp_path / "out"), text_col="content", partition_col=None,
                        dedup="none", min_tokens=1, min_distinct_ratio_pct=0)
    assert res["rows_out"] == 1
    got = pq.read_table(str(tmp_path / "out"))
    assert "text" not in got.column_names
    assert got["content"].to_pylist() == [clean]


def test_strip_markup_no_double_unescape():
    import pyarrow as pa

    from anomalydetection_ray.functions.text import strip_markup_batch

    # escaped-escaped markup (HTML tutorials / code samples) must decode
    # ONE level: '&amp;lt;' -> '&lt;', never '<'
    tb = pa.table({"text": ["&amp;lt;b&amp;gt;bold&amp;lt;/b&amp;gt;", "a &amp;&amp; b"]})
    out = strip_markup_batch(tb)["text"].to_pylist()
    assert out[0] == "&lt;b&gt;bold&lt;/b&gt;"
    assert out[1] == "a && b"


def test_trigram_window_kernel_survives_lone_surrogates():
    # Arrow string columns can never carry lone surrogates, but the
    # trigram kernel is also a direct-Python API; it must tolerate
    # damaged text like every other kernel (surrogatepass), not crash
    # on encode('utf-32-le')
    import numpy as np

    from anomalydetection_ray.functions.text import _pack_trigram_windows

    packed, doc_idx, mask = _pack_trigram_windows(["the quick", "bad \udc80\udc81 bytes", None])
    assert len(packed) == len(doc_idx) == len(mask) > 0
    assert set(np.unique(doc_idx)).issubset({0, 1, 2})


def test_normalize_text_batch_in_dataset(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from anomalydetection_ray.functions.text import normalize_text_batch

    t = pa.table({"doc_id": pa.array([1, 2], type=pa.int64()),
                  "text": pa.array(["  a  b ", None], type=pa.string())})
    got = (
        rd.from_arrow(t)
        .map_batches(normalize_text_batch, batch_format="pyarrow", batch_size=None)
        .to_pandas()
        .sort_values("doc_id")["text"]
        .tolist()
    )
    assert got == ["a b", ""]


# --------------------------------------------------- lexical diversity / zipf


def _lex_docs():
    import pyarrow as pa

    return pa.table({
        "lang": pa.array(["en", "en", "de", "de", None], type=pa.string()),
        "text": pa.array(
            ["a b a c", "b b a", "x y", "y z y", "a a"], type=pa.string()
        ),
    })


def test_grouped_lexical_diversity_exact_counts(ray_session):
    import ray.data as rd

    from anomalydetection_ray.functions.text import grouped_lexical_diversity

    for blocks in (1, 3):
        out = grouped_lexical_diversity(
            rd.from_arrow(_lex_docs()).repartition(blocks), group_col="lang"
        ).set_index("lang")
        # en: tokens a b a c b b a -> 7 total, {a,b,c}=3 distinct
        # en bigrams: (a b, b a, a c) + (b b, b a) -> {a b, b a, a c, b b}=4
        assert out.loc["en", "tokens_total"] == 7
        assert out.loc["en", "distinct_tokens"] == 3
        assert out.loc["en", "distinct_bigrams"] == 4
        assert out.loc["en", "ttr"] == round(3 / 7, 6)
        # de: x y y z y -> 5 total, {x,y,z}=3; bigrams {x y, y z, z y}=3
        assert out.loc["de", "tokens_total"] == 5
        assert out.loc["de", "distinct_tokens"] == 3
        assert out.loc["de", "distinct_bigrams"] == 3
        # HLL linear counting over a tiny vocabulary is near-exact
        assert abs(out.loc["en", "hll_distinct_est"] - 3.0) < 0.05
        # null group kept as its own group (SQL GROUP BY semantics)
        assert out.loc[None, "tokens_total"] == 2


def test_grouped_lexical_diversity_global_zipf(ray_session):
    import numpy as np
    import ray.data as rd

    from anomalydetection_ray.functions.text import grouped_lexical_diversity

    out = grouped_lexical_diversity(
        rd.from_arrow(_lex_docs()).repartition(2), group_col=None, zipf_top_n=10
    )
    assert len(out) == 1 and out.loc[0, "group"] == "__all__"
    # global: a x5, b x3, y x3, c/x/z x1 -> 14 tokens, 6 distinct
    assert out.loc[0, "tokens_total"] == 14
    assert out.loc[0, "distinct_tokens"] == 6
    assert out.loc[0, "zipf_top_token"] == "a" and out.loc[0, "zipf_top_count"] == 5
    assert out.loc[0, "zipf_n_ranks"] == 6
    # closed-form regr_slope over (ln rank, ln cnt): counts desc, term asc
    cnt = np.array([5, 3, 3, 1, 1, 1], dtype=float)
    x, y = np.log(np.arange(1, 7, dtype=float)), np.log(cnt)
    dx = x - x.mean()
    want = round(float((dx * (y - y.mean())).sum() / (dx * dx).sum()), 6)
    assert out.loc[0, "zipf_slope"] == want


def test_corpus_totals_degenerate_single_token_corpus(ray_session, tmp_path):
    """Round-5 review: a corpus with < 2 ranked tokens has no Zipf slope
    (SQL regr_slope is NULL on one point) — the engine row must carry a
    null, not crash on float(None)."""
    import os

    import pyarrow.parquet as pq

    from anomalydetection_ray.pipelines.queries import corpus_totals_docs

    t = pa.table({
        "doc_id": pa.array([1, 2], type=pa.int64()),
        "text": pa.array(["hello hello hello", "hello"], type=pa.string()),
        "lang": pa.array(["en", "en"], type=pa.string()),
        "source": pa.array(["s", "s"], type=pa.string()),
        "n_chars": pa.array([17, 5], type=pa.int64()),
    })
    pq.write_table(t, os.path.join(str(tmp_path), "documents.parquet"))
    out = corpus_totals_docs(str(tmp_path))
    row = out.iloc[0] if hasattr(out, "iloc") else out.to_pandas().iloc[0]
    assert row["distinct_tokens"] == 1
    assert row["zipf_slope"] is None or (
        isinstance(row["zipf_slope"], float) and np.isnan(row["zipf_slope"])
    )
    assert row["zipf_top_token"] == "hello"
    assert row["zipf_n_ranks"] == 1
