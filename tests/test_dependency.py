"""Functional-dependency check (checks/dependency.py): exactness vs a
DuckDB oracle, null semantics, plan equivalence, degenerate inputs."""

from __future__ import annotations

import duckdb
import numpy as np
import pyarrow as pa
import pytest

from anomalydetection_ray.checks.dependency import fd_violations
from anomalydetection_ray.pipelines.queries import as_table


def _collect(ds) -> pa.Table:
    t = as_table(ds)
    if t.num_rows == 0:
        return t
    return t.sort_by([(c, "ascending") for c in t.column_names[:-1]]).combine_chunks()


def _synth(n: int = 20_000, seed: int = 7) -> pa.Table:
    """Code-corpus-shaped table where ext→lang holds except for planted
    violations: ext 'py' additionally maps to 'cython' for some rows and
    ext 'rb' to null."""
    rng = np.random.default_rng(seed)
    exts = np.array(["py", "js", "go", "rs", "rb"])
    lang_of = {"py": "python", "js": "javascript", "go": "go", "rs": "rust", "rb": "ruby"}
    e = exts[rng.integers(0, len(exts), n)]
    lang = np.array([lang_of[x] for x in e], dtype=object)
    bad_py = (e == "py") & (rng.random(n) < 0.01)
    lang[bad_py] = "cython"
    bad_rb = (e == "rb") & (rng.random(n) < 0.005)
    lang[bad_rb] = None
    return pa.table({"ext": e.astype(object), "lang": lang, "repo": rng.integers(0, 50, n)})


def _oracle(tb: pa.Table) -> pa.Table:
    """DuckDB FD violations with NULLS-DISTINCT semantics (the engine's
    documented divergence from COUNT(DISTINCT))."""
    con = duckdb.connect()
    con.register("t", tb)
    out = con.sql(
        """
        WITH bindings AS (
          SELECT ext, lang, COUNT(*) AS n_rows FROM t GROUP BY ext, lang
        ), bad AS (
          SELECT ext FROM bindings GROUP BY ext HAVING COUNT(*) >= 2
        )
        SELECT b.ext, b.lang, b.n_rows FROM bindings b SEMI JOIN bad USING (ext)
        ORDER BY b.ext, b.lang
        """
    ).arrow()
    con.close()
    return out


@pytest.fixture(scope="module")
def synth_ds(ray_session):
    import ray.data as rd

    tb = _synth()
    return rd.from_arrow(tb).repartition(8), tb


def test_fd_matches_duckdb_oracle(synth_ds):
    ds, tb = synth_ds
    got = _collect(fd_violations(ds, ["ext"], "lang"))
    want = _oracle(tb).cast(got.schema)
    assert got.equals(want.sort_by([("ext", "ascending"), ("lang", "ascending")]).combine_chunks())
    # the planted defects are exactly the flagged determinants
    assert set(got["ext"].to_pylist()) == {"py", "rb"}


def test_fd_plan_equivalence(synth_ds, monkeypatch):
    """All four (candidate-plan × recovery-plan) combinations agree; a
    budget constant set to -1 forces its shuffle rung."""
    from anomalydetection_ray.checks import dependency
    from anomalydetection_ray.functions import shuffle

    ds, _ = synth_ds
    base = _collect(fd_violations(ds, ["ext"], "lang"))
    cand = (dependency, "_DRIVER_MERGE_MAX_BYTES")
    recover = (shuffle, "DRIVER_MAX_ROWS")
    for forced in ([cand], [recover], [cand, recover]):
        with monkeypatch.context() as m:
            for mod, name in forced:
                m.setattr(mod, name, -1)
            other = _collect(fd_violations(ds, ["ext"], "lang"))
        assert base.equals(other), forced


def test_fd_null_dependent_is_distinct(ray_session):
    """x→{null, 'a'} is a violation (nulls-distinct); x→{null only} is not."""
    import ray.data as rd

    tb = pa.table(
        {
            "x": ["k1", "k1", "k2", "k2", "k3"],
            "y": [None, "a", None, None, "b"],
        }
    )
    got = _collect(fd_violations(rd.from_arrow(tb), ["x"], "y"))
    assert got["x"].to_pylist() == ["k1", "k1"]
    assert sorted(got["y"].to_pylist(), key=lambda v: (v is None, v)) == ["a", None]


def test_fd_null_determinant_groups(ray_session):
    """Null determinant tuples form a normal group."""
    import ray.data as rd

    tb = pa.table({"x": [None, None, "k"], "y": ["a", "b", "c"]})
    got = _collect(fd_violations(rd.from_arrow(tb), ["x"], "y"))
    assert got.num_rows == 2
    assert got["x"].null_count == 2


def test_fd_composite_determinant(ray_session):
    import ray.data as rd

    tb = pa.table(
        {
            "repo": ["r0", "r0", "r0", "r1"],
            "path": ["a", "a", "b", "a"],
            "lang": ["go", "rust", "go", "go"],
        }
    )
    got = _collect(fd_violations(rd.from_arrow(tb), ["repo", "path"], "lang"))
    assert got.num_rows == 2
    assert set(zip(got["repo"].to_pylist(), got["path"].to_pylist())) == {("r0", "a")}
    assert got["n_rows"].to_pylist() == [1, 1]


def test_fd_holds_returns_empty(ray_session):
    import ray.data as rd

    tb = pa.table({"x": ["a", "a", "b"], "y": [1, 1, 2]})
    got = fd_violations(rd.from_arrow(tb), ["x"], "y")
    assert _collect(got).num_rows == 0


def test_fd_empty_input(ray_session):
    import ray.data as rd

    tb = pa.table({"x": pa.array([], type=pa.string()), "y": pa.array([], type=pa.int64())})
    assert _collect(fd_violations(rd.from_arrow(tb), ["x"], "y")).num_rows == 0


def test_fd_vacuous_raises(ray_session):
    import ray.data as rd

    tb = pa.table({"x": ["a"], "y": [1]})
    with pytest.raises(ValueError):
        fd_violations(rd.from_arrow(tb), ["x", "y"], "y")


def test_fd_in_validation_suite(ray_session, tmp_path):
    """SuiteConfig.fd_checks: checkpointed unit, global verdict row,
    exact violating bindings in the violations dict, resume reuse."""
    import pyarrow.parquet as pq

    from anomalydetection_ray.pipelines.validate import SuiteConfig, run_suite

    n = 300
    rows = []
    for i in range(n):
        repo = f"r{i % 5}"
        # planted: r2 maps to two langs
        lang = "rust" if (repo == "r2" and i % 3 == 0) else {"r0": "go", "r1": "go", "r2": "python", "r3": "ruby", "r4": "js"}[repo]
        rows.append(
            {"repo": repo, "path": f"src/f{i}.x", "commit": f"{i:040d}", "lang": lang, "content": f"line {i}\n"}
        )
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    pq.write_table(pa.Table.from_pylist(rows), corpus_dir / "part-0.parquet")

    cfg = SuiteConfig(fd_checks=((("repo",), "lang"),))
    out = str(tmp_path / "out")
    res = run_suite(str(corpus_dir), out, cfg)
    unit = "fd-repo--lang"
    assert not res.passed
    vt = res.violations[unit].to_pandas()
    assert set(vt["repo"]) == {"r2"}
    assert set(vt["lang"]) == {"python", "rust"}
    assert int(vt["n_rows"].sum()) == sum(1 for r in rows if r["repo"] == "r2")
    v = res.verdicts
    fd_row = v[v["check"] == unit]
    assert len(fd_row) == 1 and not bool(fd_row["passed"].iloc[0])
    assert float(fd_row["metric"].iloc[0]) == 1.0  # one conflicting determinant

    # resume: the FD unit is checkpointed — a second run reloads it and
    # produces identical verdicts
    res2 = run_suite(str(corpus_dir), out, cfg)
    import pandas.testing as pdt

    pdt.assert_frame_equal(res.verdicts, res2.verdicts)

    # a conforming corpus gets an explicit PASSING fd verdict row
    clean_dir = tmp_path / "clean"
    clean_dir.mkdir()
    clean = [dict(r, lang={"r0": "go", "r1": "go", "r2": "python", "r3": "ruby", "r4": "js"}[r["repo"]]) for r in rows]
    pq.write_table(pa.Table.from_pylist(clean), clean_dir / "part-0.parquet")
    res3 = run_suite(str(clean_dir), str(tmp_path / "out_clean"), cfg)
    v3 = res3.verdicts
    fd3 = v3[v3["check"] == unit]
    assert len(fd3) == 1 and bool(fd3["passed"].iloc[0]) and res3.passed
