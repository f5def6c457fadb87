"""Cross-document line dedup (dedup/lines.py): DuckDB parity for both
policies, plan equivalence, layout invariance, normalization and edge
semantics."""

from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd
import pytest


def _corpus(n_docs=120, seed=7) -> pd.DataFrame:
    """Multi-line docs with planted boilerplate: a header in ~half the
    docs, a footer in ~a third, plus random unique body lines and the
    occasional repeated body line / blank line / whitespace run."""
    rng = np.random.default_rng(seed)
    words = ["alpha", "beta", "gamma", "delta", "code", "data", "spark", "ray"]
    rows = []
    for d in range(n_docs):
        lines = []
        if d % 2 == 0:
            lines.append("(c) 2026 Example Corp — all rights reserved")
        if d % 3 == 0:
            lines.append("  unsubscribe here  ")  # strip-normalizes across docs
        for i in range(int(rng.integers(1, 6))):
            lines.append(" ".join(rng.choice(words, size=int(rng.integers(2, 6)))))
        if d % 7 == 0:
            lines.append("")  # blank line, structural
        if d % 11 == 0 and len(lines) > 1:
            lines.append(lines[-1])  # within-doc repeat
        rows.append({"doc_id": d, "text": "\n".join(lines), "lang": words[d % 3]})
    rows.append({"doc_id": n_docs, "text": None, "lang": "xx"})
    rows.append({"doc_id": n_docs + 1, "text": "", "lang": "xx"})
    return pd.DataFrame(rows)


def _duck_drop_common(df: pd.DataFrame, min_docs: int) -> pd.DataFrame:
    con = duckdb.connect()
    con.register("docs", df)
    return con.sql(
        f"""
        WITH ex AS (
          SELECT doc_id,
                 unnest(string_split(text, chr(10))) AS line,
                 unnest(generate_series(1, len(string_split(text, chr(10))))) AS idx
          FROM docs WHERE text IS NOT NULL AND doc_id IS NOT NULL
        ),
        keyed AS (SELECT doc_id, idx, line, TRIM(line) AS k FROM ex),
        common AS (
          SELECT k FROM keyed WHERE k <> '' GROUP BY k
          HAVING COUNT(DISTINCT doc_id) >= {min_docs}
        ),
        kept AS (
          SELECT doc_id, idx, line FROM keyed
          WHERE k = '' OR k NOT IN (SELECT k FROM common)
        ),
        agg AS (
          SELECT k.doc_id,
                 string_agg(k.line, chr(10) ORDER BY k.idx) AS new_text,
                 COUNT(*) AS n_kept
          FROM kept k GROUP BY k.doc_id
        ),
        tot AS (SELECT doc_id, COUNT(*) AS n_lines FROM keyed GROUP BY doc_id)
        SELECT d.doc_id,
               CASE WHEN d.text IS NULL THEN NULL ELSE COALESCE(a.new_text, '') END AS text,
               d.lang,
               t.n_lines,
               CASE WHEN d.text IS NULL THEN NULL ELSE COALESCE(a.n_kept, 0) END AS n_lines_kept
        FROM docs d
        LEFT JOIN agg a USING (doc_id)
        LEFT JOIN tot t USING (doc_id)
        ORDER BY d.doc_id
        """
    ).df()


def _duck_keep_first(df: pd.DataFrame) -> pd.DataFrame:
    con = duckdb.connect()
    con.register("docs", df)
    return con.sql(
        """
        WITH ex AS (
          SELECT doc_id,
                 unnest(string_split(text, chr(10))) AS line,
                 unnest(generate_series(1, len(string_split(text, chr(10))))) AS idx
          FROM docs WHERE text IS NOT NULL AND doc_id IS NOT NULL
        ),
        keyed AS (SELECT doc_id, idx, line, TRIM(line) AS k FROM ex),
        ranked AS (
          SELECT doc_id, idx, line, k,
                 ROW_NUMBER() OVER (PARTITION BY k ORDER BY doc_id, idx) AS rn
          FROM keyed WHERE k <> ''
        ),
        kept AS (
          SELECT doc_id, idx, line FROM ranked WHERE rn = 1
          UNION ALL
          SELECT doc_id, idx, line FROM keyed WHERE k = ''
        ),
        agg AS (
          SELECT doc_id, string_agg(line, chr(10) ORDER BY idx) AS new_text,
                 COUNT(*) AS n_kept
          FROM kept GROUP BY doc_id
        ),
        tot AS (SELECT doc_id, COUNT(*) AS n_lines FROM keyed GROUP BY doc_id)
        SELECT d.doc_id,
               CASE WHEN d.text IS NULL THEN NULL ELSE COALESCE(a.new_text, '') END AS text,
               d.lang,
               t.n_lines,
               CASE WHEN d.text IS NULL THEN NULL ELSE COALESCE(a.n_kept, 0) END AS n_lines_kept
        FROM docs d
        LEFT JOIN agg a USING (doc_id)
        LEFT JOIN tot t USING (doc_id)
        ORDER BY d.doc_id
        """
    ).df()


def _run(df: pd.DataFrame, n_parts: int, **kw) -> pd.DataFrame:
    import ray.data as rd

    from anomalydetection_ray.dedup.lines import line_dedup

    ds = rd.from_pandas(df).repartition(n_parts)
    out = line_dedup(ds, "doc_id", "text", **kw).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _assert_frames(got: pd.DataFrame, want: pd.DataFrame):
    got = got.sort_values("doc_id").reset_index(drop=True)
    want = want.sort_values("doc_id").reset_index(drop=True)
    for c in ("doc_id", "text", "lang"):
        assert list(got[c].fillna("<null>")) == list(want[c].fillna("<null>")), c
    for c in ("n_lines", "n_lines_kept"):
        assert list(got[c].fillna(-1).astype(int)) == list(want[c].fillna(-1).astype(int)), c


def test_drop_common_duckdb_parity(ray_session):
    df = _corpus()
    want = _duck_drop_common(df, min_docs=10)
    _assert_frames(_run(df, 5, mode="drop_common", min_docs=10), want)


def test_keep_first_duckdb_parity(ray_session):
    df = _corpus()
    want = _duck_keep_first(df)
    _assert_frames(_run(df, 5, mode="keep_first"), want)


def test_plan_equivalence_and_layout_invariance(ray_session, monkeypatch):
    from anomalydetection_ray.functions import shuffle

    df = _corpus(n_docs=80, seed=11)
    base = _run(df, 4, mode="drop_common", min_docs=5)
    kf_base = _run(df, 4, mode="keep_first")
    monkeypatch.setattr(shuffle, "DRIVER_MAX_ROWS", -1)  # distributed apply plan
    forced = _run(df, 9, mode="drop_common", min_docs=5)
    _assert_frames(forced, base)
    kf_forced = _run(df, 9, mode="keep_first")
    _assert_frames(kf_forced, kf_base)


def test_no_duplicates_is_identity(ray_session):
    df = pd.DataFrame(
        {"doc_id": [1, 2], "text": ["a unique one\nanother", "totally different"], "lang": ["x", "y"]}
    )
    out = _run(df, 2, mode="keep_first")
    assert list(out["text"]) == list(df["text"])
    assert list(out["n_lines_kept"]) == [2, 1]


def test_lines_compare_stripped_not_lowercased(ray_session):
    df = pd.DataFrame(
        {
            "doc_id": [1, 2, 3],
            "text": ["Hello World", "  hello world  ", "HELLO WORLD"],
            "lang": ["x"] * 3,
        }
    )
    # lines compare stripped but not lowercased: three distinct keys,
    # nothing drops
    out = _run(df, 2, mode="drop_common", min_docs=3)
    assert list(out["text"]) == list(df["text"])


def test_custom_separator_token_granularity(ray_session):
    df = pd.DataFrame(
        {
            "doc_id": [1, 2, 3],
            "text": ["the cat sat", "the dog ran", "a cat ran"],
            "lang": ["x"] * 3,
        }
    )
    out = _run(df, 2, sep=" ", mode="drop_common", min_docs=2)
    assert list(out["text"]) == ["sat", "dog", "a"]
    assert list(out["n_lines_kept"]) == [1, 1, 1]


def test_guards(ray_session):
    import ray.data as rd

    from anomalydetection_ray.dedup.lines import line_dedup, line_drop_pairs

    ds = rd.from_pandas(pd.DataFrame({"doc_id": ["a"], "text": ["x"]}))
    with pytest.raises(ValueError, match="mode"):
        line_drop_pairs(ds, "doc_id", "text", mode="bogus")
    with pytest.raises(ValueError, match="integer id"):
        line_dedup(ds, "doc_id", "text", mode="keep_first")
    with pytest.raises(ValueError, match="min_docs"):
        line_drop_pairs(ds, "doc_id", "text", min_docs=0)
