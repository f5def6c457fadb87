"""Planted-defect end-to-end tests for the flagship validation suite
(SURVEY.md §5 strategy): generate a deterministic corpus with known
defects, assert the engine reports exactly those violations, verify the
sha256 per-row invariant, and exercise checkpoint resume.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pyarrow.parquet as pq
import pytest

from anomalydetection_ray.corpus import CorpusManifest, DefectSpec, generate_corpus


@pytest.fixture(scope="module")
def dirty_corpus(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("corpus_dirty"))
    man = generate_corpus(
        d,
        n_rows=4000,
        n_repos=120,
        seed=42,
        defects=DefectSpec(
            duplicate_frac=0.005,
            orphan_frac=0.004,
            null_lang_frac=0.003,
            empty_content_frac=0.003,
            drift_lang="go",
            drift_scale=4.0,
        ),
        rows_per_file=1000,
    )
    return d, man


@pytest.fixture(scope="module")
def clean_corpus(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("corpus_clean"))
    man = generate_corpus(d, n_rows=4000, n_repos=120, seed=42, rows_per_file=1000)
    return d, man


def test_corpus_deterministic(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    generate_corpus(a, n_rows=500, n_repos=40, seed=7, rows_per_file=200)
    generate_corpus(b, n_rows=500, n_repos=40, seed=7, rows_per_file=200)
    ta = pq.read_table(f"{a}/corpus/part-00000.parquet")
    tb = pq.read_table(f"{b}/corpus/part-00000.parquet")
    assert ta.equals(tb)


def test_corpus_shape_and_skew(clean_corpus):
    d, man = clean_corpus
    t = pq.read_table(f"{d}/corpus")
    assert t.column_names == ["repo", "path", "commit", "lang", "content"]
    assert t.num_rows == 4000
    langs = t["lang"].to_pandas().value_counts()
    assert langs.iloc[0] > 3 * langs.iloc[-1]  # Zipfian skew present


def test_suite_clean_corpus_passes(ray_session, clean_corpus, tmp_path):
    from anomalydetection_ray.pipelines.validate import SuiteConfig, run_suite

    d, _ = clean_corpus
    cfg = SuiteConfig(repos_dim_path=f"{d}/repos.parquet")
    res = run_suite(f"{d}/corpus", str(tmp_path / "out"), cfg)
    assert res.passed, res.verdicts[~res.verdicts["passed"]]
    for v in res.violations.values():
        assert v.num_rows == 0


def test_suite_finds_planted_defects(ray_session, dirty_corpus, tmp_path):
    from anomalydetection_ray.pipelines.validate import SuiteConfig, run_suite

    d, man = dirty_corpus
    cfg = SuiteConfig(repos_dim_path=f"{d}/repos.parquet")
    res = run_suite(f"{d}/corpus", str(tmp_path / "out"), cfg)
    assert not res.passed

    # uniqueness: every planted duplicate key is reported (both copies)
    uq = res.violations["uniqueness"].to_pandas()
    found_keys = set(map(tuple, uq[["repo", "path", "commit"]].itertuples(index=False, name=None)))
    planted = set(map(tuple, man.duplicate_keys))
    assert planted <= found_keys
    # and each reported key appears >= 2 times
    assert (uq.groupby(["repo", "path", "commit"]).size() >= 2).all()

    # referential: exactly the ghost repos
    rf = res.violations["referential"].to_pandas()
    assert set(rf["repo"]) == set(man.orphan_repos)

    # rowrules: null lang + empty content rows, exactly
    rr = res.violations["rowrules"].to_pandas()
    null_rows = rr[rr["violation_kind"] == "null_lang"]
    empty_rows = rr[rr["violation_kind"] == "empty_content"]
    assert set(map(tuple, null_rows[["repo", "path", "commit"]].itertuples(index=False, name=None))) == set(
        map(tuple, man.null_lang_rows)
    )
    assert set(map(tuple, empty_rows[["repo", "path", "commit"]].itertuples(index=False, name=None))) == set(
        map(tuple, man.empty_content_rows)
    )


def test_suite_violation_spill_matches_driver_plan(ray_session, dirty_corpus, tmp_path):
    """round-3 verdict item 3: above max_driver_violation_rows the suite
    spills violation rows to parquet and finalizes from the files —
    identical verdicts and identical violation rows, with the driver-held
    tables empty. Two budgets: one far below the violation count, and
    one between the duplicate-hash set's prediction (2 rows per duplicate
    hash) and the real violation count. Both stream every violation row
    to the driver, which flushes what it holds past the budget
    (``viol-driver-*`` shards); no scan task writes a file."""
    import glob

    import pandas.testing as pdt

    from anomalydetection_ray.pipelines.validate import SuiteConfig, run_suite

    d, _ = dirty_corpus
    base = run_suite(
        f"{d}/corpus", str(tmp_path / "mem"), SuiteConfig(repos_dim_path=f"{d}/repos.parquet")
    )
    assert base.violations_dir is None
    sort_cols = ["violation_kind", "repo", "path", "commit", "content_sha256"]
    want_tbl = pq.read_table(os.path.join(str(tmp_path / "mem"), "scan", "violations.parquet"))
    want = want_tbl.sort_by([(c, "ascending") for c in sort_cols])
    n_dup = pq.read_metadata(
        os.path.join(str(tmp_path / "mem"), "uniqueness", "dup_key_hashes.parquet")
    ).num_rows
    assert 2 * n_dup < want.num_rows  # room for a budget between the two

    for name, budget in (("spill", 4), ("flush", 2 * n_dup)):
        cfg = SuiteConfig(repos_dim_path=f"{d}/repos.parquet", max_driver_violation_rows=budget)
        spill = run_suite(f"{d}/corpus", str(tmp_path / name), cfg)
        assert spill.violations_dir and os.path.isdir(spill.violations_dir)
        for v in spill.violations.values():
            assert v.num_rows == 0  # driver holds counts only
        pdt.assert_frame_equal(spill.verdicts, base.verdicts)
        got = pq.read_table(spill.violations_dir).sort_by([(c, "ascending") for c in sort_cols])
        assert got.select(want.column_names).cast(want.schema).equals(want)
        driver_shards = glob.glob(
            os.path.join(str(tmp_path / name), "scan", "violations_spill", "viol-driver-*.parquet")
        )
        assert driver_shards
        spill_files = os.listdir(os.path.join(str(tmp_path / name), "scan", "violations_spill"))
        assert len(driver_shards) == len(spill_files)

        # resume reuses the spilled scan checkpoint
        again = run_suite(f"{d}/corpus", str(tmp_path / name), cfg)
        assert again.violations_dir == spill.violations_dir
        pdt.assert_frame_equal(again.verdicts, base.verdicts)


def test_suite_lineage_counts_same_held_and_spilled(ray_session, dirty_corpus, tmp_path):
    """The suite's lineage record keys ``n_violations`` by check (FD units
    included) whether the violations stay on the driver or spill."""
    from anomalydetection_ray.pipelines.validate import SuiteConfig, run_suite
    from anomalydetection_ray.state.checkpoint import RunState

    d, _ = dirty_corpus
    n_viol = {}
    for name, budget in (("held", 10**9), ("spill", 4)):
        cfg = SuiteConfig(
            repos_dim_path=f"{d}/repos.parquet",
            max_driver_violation_rows=budget,
            fd_checks=((("repo",), "lang"),),
        )
        res = run_suite(f"{d}/corpus", str(tmp_path / name), cfg)
        assert (res.violations_dir is not None) == (name == "spill")
        suite = [r for r in RunState(str(tmp_path / name)).lineage() if r["unit"] == "suite"]
        n_viol[name] = suite[-1]["metrics"]["n_violations"]
    assert n_viol["held"] == n_viol["spill"]
    assert {"rowrules", "uniqueness", "referential"} < set(n_viol["held"])
    assert n_viol["held"]["uniqueness"] > 0


def test_violation_sha_invariant(ray_session, dirty_corpus, tmp_path):
    from anomalydetection_ray.pipelines.validate import (
        SuiteConfig,
        run_suite,
        verify_violation_invariant,
    )

    d, _ = dirty_corpus
    cfg = SuiteConfig(repos_dim_path=f"{d}/repos.parquet")
    res = run_suite(f"{d}/corpus", str(tmp_path / "out"), cfg)
    for name, v in res.violations.items():
        assert verify_violation_invariant(v, f"{d}/corpus", cfg), name


def test_drift_detected_against_clean_baseline(ray_session, clean_corpus, dirty_corpus, tmp_path):
    from anomalydetection_ray.pipelines.validate import SuiteConfig, run_suite, write_baseline

    dc, _ = clean_corpus
    dd, man = dirty_corpus
    snap = str(tmp_path / "baseline.parquet")
    write_baseline(f"{dc}/corpus", snap)
    cfg = SuiteConfig(repos_dim_path=f"{dd}/repos.parquet")
    res = run_suite(f"{dd}/corpus", str(tmp_path / "out"), cfg, baseline_snapshot=snap)
    drift = res.verdicts[res.verdicts["check"] == "drift"]
    failed = set(drift.loc[~drift["passed"], "partition"])
    assert man.drift_lang in failed  # the drifted lang is flagged
    stable = {"python", "javascript"}  # high-count undrifted langs stay stable
    assert stable.isdisjoint(failed - {"<null>"})


def test_resume_skips_done_checks(ray_session, clean_corpus, tmp_path):
    from anomalydetection_ray.pipelines.validate import SuiteConfig, run_suite
    from anomalydetection_ray.state import RunState

    d, _ = clean_corpus
    out = str(tmp_path / "out")
    cfg = SuiteConfig(repos_dim_path=f"{d}/repos.parquet")
    res1 = run_suite(f"{d}/corpus", out, cfg)
    state = RunState(out)
    uqk = os.path.join(out, "uniqueness", "dup_key_hashes.parquet")
    t0 = os.path.getmtime(uqk)

    # simulate a crash after uniqueness: wipe the scan unit only
    shutil.rmtree(os.path.join(out, "scan"))
    res2 = run_suite(f"{d}/corpus", out, cfg)
    assert os.path.getmtime(uqk) == t0  # uniqueness NOT recomputed
    assert state.is_done_compat("scan")  # scan redone
    assert res2.verdicts.equals(res1.verdicts)  # identical final output

    # a recomputed uniqueness pass invalidates the scan checkpoint (its
    # broadcast dup-hash input may have changed)
    scan_path = os.path.join(out, "scan", "violations.parquet")
    t_scan = os.path.getmtime(scan_path)
    shutil.rmtree(os.path.join(out, "uniqueness"))
    res3 = run_suite(f"{d}/corpus", out, cfg)
    assert os.path.getmtime(scan_path) > t_scan  # scan recomputed
    assert res3.verdicts.equals(res1.verdicts)

    # lineage recorded every completed unit
    units = [r["unit"] for r in state.lineage()]
    assert units.count("scan") >= 2 and units.count("uniqueness") >= 2


def test_sharded_suite_matches_per_check_suite(ray_session, dirty_corpus, tmp_path):
    """run_suite_sharded must produce byte-identical verdicts + violations
    to run_suite — the shard decomposition is an execution detail."""
    from anomalydetection_ray.pipelines.validate import (
        SuiteConfig,
        run_suite,
        run_suite_sharded,
    )

    d, _ = dirty_corpus
    cfg = SuiteConfig(repos_dim_path=f"{d}/repos.parquet")
    r1 = run_suite(f"{d}/corpus", str(tmp_path / "per_check"), cfg)
    r2 = run_suite_sharded(f"{d}/corpus", str(tmp_path / "sharded"), cfg, n_shards=3)
    assert r2.verdicts.equals(r1.verdicts)
    assert set(r2.violations) == set(r1.violations)
    for name in r1.violations:
        assert r2.violations[name].equals(r1.violations[name]), name
    # merged stats: exact columns identical; moments to float tolerance;
    # KLL quantiles are merge-grouping-dependent sketch estimates → loose
    exact_cols = ["part", "column", "dtype", "count", "nulls", "null_rate", "distinct_est", "vmin", "vmax", "smin", "smax"]
    assert r1.stats[exact_cols].equals(r2.stats[exact_cols])
    assert np.allclose(r1.stats["mean"], r2.stats["mean"], rtol=1e-9, equal_nan=True)
    assert np.allclose(r1.stats["std"], r2.stats["std"], rtol=1e-6, equal_nan=True)
    # quantile sketches: estimates vary with merge grouping, so assert RANK
    # accuracy against exact data instead of cross-run value equality —
    # KLL(k=256) guarantees ~1% rank error; 5% here is comfortably safe
    corpus = pq.read_table(f"{d}/corpus").to_pandas()
    corpus["part"] = corpus["lang"].fillna("<null>")
    for stats in (r1.stats, r2.stats):
        for _, row in stats.iterrows():
            vals = corpus.loc[corpus["part"] == row["part"], row["column"]].dropna().str.len()
            vals = np.sort(vals.to_numpy(dtype=float))
            for col, phi in [("p50", 0.5), ("p95", 0.95), ("p99", 0.99)]:
                est = row[col]
                if len(vals) == 0:
                    assert np.isnan(est)
                    continue
                lo = np.searchsorted(vals, est, side="left") / len(vals)
                hi = np.searchsorted(vals, est, side="right") / len(vals)
                assert lo - 0.05 <= phi <= hi + 0.05, (row["part"], row["column"], col, est, lo, hi)


def test_sharded_resume_recomputes_only_invalid_shards(ray_session, dirty_corpus, tmp_path):
    """Each shard is one scan unit: a resume recomputes exactly the shards
    whose checkpoint is missing or untrusted, every shard when the
    uniqueness pass (whose dup-hash set feeds every shard's scan) had to be
    recomputed, and output always equals the first run's."""
    import json

    from anomalydetection_ray.pipelines.validate import (
        SuiteConfig,
        _uniq_ckpt_fmt,
        run_suite_sharded,
    )

    d, _ = dirty_corpus
    out = str(tmp_path / "out")
    cfg = SuiteConfig(repos_dim_path=f"{d}/repos.parquet")
    first = run_suite_sharded(f"{d}/corpus", out, cfg, n_shards=4)
    partials = [
        os.path.join(out, f"shard-{i:04d}-partials", "stats_partials.parquet") for i in range(4)
    ]

    def rerun_and_check(recomputed: set[int]) -> None:
        before = {i: os.path.getmtime(p) for i, p in enumerate(partials) if os.path.exists(p)}
        res = run_suite_sharded(f"{d}/corpus", out, cfg, n_shards=4)
        changed = {i for i, p in enumerate(partials) if os.path.getmtime(p) != before.get(i)}
        assert changed == recomputed
        assert res.verdicts.equals(first.verdicts)
        assert set(res.violations) == set(first.violations)
        for name in first.violations:
            assert res.violations[name].equals(first.violations[name]), name

    # wiping one shard unit recomputes that shard only
    shutil.rmtree(os.path.join(out, "shard-0001-partials"))
    rerun_and_check({1})

    # a recomputed uniqueness pass invalidates every shard
    shutil.rmtree(os.path.join(out, "uniqueness"))
    rerun_and_check({0, 1, 2, 3})

    # a shard marker carrying the earlier two-phase layout's format tag
    # (its violations lacked the duplicate-key rows) is recomputed, not
    # trusted
    marker = os.path.join(out, "shard-0002-partials", "_DONE")
    with open(marker) as f:
        payload = json.load(f)
    payload["format"] = _uniq_ckpt_fmt()
    with open(marker, "w") as f:
        json.dump(payload, f)
    rerun_and_check({2})


def test_key_counts_exact_on_hot_key(ray_session):
    """Skew: one giant hot key plus a long tail still counts exactly
    (SURVEY.md §7.3)."""
    import numpy as np
    import ray.data as rdata

    from anomalydetection_ray.checks.uniqueness import key_counts

    rng = np.random.default_rng(9)
    # one giant hot key + a long tail
    keys = np.concatenate([
        np.full(20_000, "hotlang"),
        np.array([f"k{i}" for i in rng.integers(0, 500, 5_000)]),
    ])
    rng.shuffle(keys)
    ds = rdata.from_items([{"k": str(k)} for k in keys])
    plain = key_counts(ds, ["k"]).to_pandas().sort_values("k").reset_index(drop=True)
    uniq, cnt = np.unique(keys, return_counts=True)
    assert plain["k"].tolist() == uniq.tolist()
    assert plain["cnt"].tolist() == cnt.tolist()
    assert int(plain.loc[plain["k"] == "hotlang", "cnt"].iloc[0]) == 20_000


def test_stat_tolerances_compose(ray_session, clean_corpus, tmp_path):
    """User-composable Tolerance constraints (§2.10 surface): bounds on
    any stats-table metric become per-(partition, column) verdicts."""
    from anomalydetection_ray.checks import Tolerance
    from anomalydetection_ray.pipelines.validate import SuiteConfig, run_suite

    d, _ = clean_corpus
    cfg = SuiteConfig(
        stat_tolerances=(
            Tolerance("p95", max_value=1.0, column="content"),  # absurd: must fail
            Tolerance("distinct_est", min_value=0.0),  # trivially passes everywhere
        )
    )
    res = run_suite(f"{d}/corpus", str(tmp_path / "out"), cfg, resume=False)
    tol_p95 = res.verdicts[res.verdicts["check"] == "tolerance:p95"]
    assert len(tol_p95) and not tol_p95["passed"].any()  # every partition over 1 char p95
    assert (tol_p95["column"] == "content").all()
    tol_d = res.verdicts[res.verdicts["check"] == "tolerance:distinct_est"]
    assert len(tol_d) and tol_d["passed"].all()
    assert not res.passed  # tolerance failures fail the suite


def test_sharded_single_file_corpus(ray_session, tmp_path):
    """n_shards clamps to the file count; a single-file corpus runs as one
    shard and still produces the full verdict set."""
    from anomalydetection_ray.pipelines.validate import SuiteConfig, run_suite_sharded
    from anomalydetection_ray.corpus import generate_corpus

    d = str(tmp_path / "c")
    generate_corpus(d, n_rows=500, n_repos=30, seed=11, rows_per_file=500)  # one file
    cfg = SuiteConfig(repos_dim_path=f"{d}/repos.parquet")
    res = run_suite_sharded(f"{d}/corpus", str(tmp_path / "out"), cfg, n_shards=8)
    assert res.passed
    assert {"stats", "min_rows", "rowrules", "uniqueness", "referential"} <= set(res.verdicts["check"].str.split(":").str[0])


def test_null_key_duplicates_reported(ray_session, tmp_path):
    """A duplicate whose key tuple contains a null must still be reported:
    the exact-verify recount groups with dropna=False (a default-dropna
    groupby gives null-key rows size=NaN and silently drops them)."""
    import pyarrow as pa
    from anomalydetection_ray.pipelines.validate import SuiteConfig, run_suite

    d = tmp_path / "c"
    d.mkdir()
    t = pa.table(
        {
            "repo": ["r1", "r1", "r2", "r3", "r4", "r5"],
            "path": ["a.py", "a.py", "b.py", "c.py", "d.py", "e.py"],
            "commit": [None, None, "c2", "c3", "c4", "c5"],
            "lang": ["python"] * 6,
            "content": [f"content {i}" for i in range(6)],
        }
    )
    pq.write_table(t, str(d / "part-00000.parquet"))
    cfg = SuiteConfig(max_null_rate=1.0)  # nulls in commit are allowed; the dup is the defect
    res = run_suite(str(d), str(tmp_path / "out"), cfg, resume=False)
    uq = res.violations["uniqueness"].to_pandas()
    assert len(uq) == 2
    assert (uq["repo"] == "r1").all() and uq["commit"].isna().all()


def test_nonnumeric_tolerance_fails_gracefully(ray_session, clean_corpus, tmp_path):
    """A tolerance naming a non-numeric stats column (smin/smax/dtype are
    user-specifiable via the CLI) must produce failed verdicts, not crash
    the suite after the scans."""
    from anomalydetection_ray.checks import Tolerance
    from anomalydetection_ray.pipelines.validate import SuiteConfig, run_suite

    d, _ = clean_corpus
    cfg = SuiteConfig(stat_tolerances=(Tolerance("smin", min_value=0.0),))
    res = run_suite(f"{d}/corpus", str(tmp_path / "out"), cfg, resume=False)
    tol = res.verdicts[res.verdicts["check"] == "tolerance:smin"]
    assert len(tol)
    bad = tol[~tol["passed"]]
    assert len(bad) and bad["detail"].str.contains("not numeric").all()
    assert not res.passed


def test_resume_recomputes_on_missing_or_stale_checkpoint(ray_session, clean_corpus, tmp_path):
    """A _DONE marker whose payload file is missing, or whose format tag
    differs (old layout / different polars hash build), triggers recompute
    instead of FileNotFoundError or a misread checkpoint."""
    import json

    from anomalydetection_ray.pipelines.validate import SuiteConfig, run_suite

    d, _ = clean_corpus
    out = str(tmp_path / "out")
    cfg = SuiteConfig(repos_dim_path=f"{d}/repos.parquet")
    first = run_suite(f"{d}/corpus", out, cfg)

    # payload file removed -> recompute cleanly
    os.remove(os.path.join(out, "uniqueness", "dup_key_hashes.parquet"))
    again = run_suite(f"{d}/corpus", out, cfg, resume=True)
    assert again.passed == first.passed
    assert os.path.exists(os.path.join(out, "uniqueness", "dup_key_hashes.parquet"))

    # stale format tag (e.g. checkpoint from another polars build) -> recompute
    marker = os.path.join(out, "uniqueness", "_DONE")
    with open(marker) as f:
        payload = json.load(f)
    payload["format"] = "uniq-hashes/v1/polars-0.0.0"
    with open(marker, "w") as f:
        json.dump(payload, f)
    third = run_suite(f"{d}/corpus", out, cfg, resume=True)
    assert third.passed == first.passed
    with open(marker) as f:
        assert json.load(f)["format"] != "uniq-hashes/v1/polars-0.0.0"


def test_spill_counts_identical_duplicate_blocks(ray_session, dirty_corpus, tmp_path):
    """Two byte-identical corpus FILES (duplicated inputs — exactly what a
    dup-detection suite scans) yield byte-identical blocks with
    byte-identical violation tables. Both blocks' rows must survive the
    spill: shards written under a content-digest name once collapsed them
    onto one file and silently halved the duplicate-key violation count.
    The driver names its flush shards by a running ordinal. Ground truth
    = the driver-held plan on the same duplicated corpus."""
    from anomalydetection_ray.pipelines.validate import SuiteConfig, run_suite

    d, _ = dirty_corpus
    dup = str(tmp_path / "dup_corpus")
    shutil.copytree(f"{d}/corpus", dup)
    first = sorted(f for f in os.listdir(dup) if f.endswith(".parquet"))[0]
    shutil.copyfile(os.path.join(dup, first), os.path.join(dup, "zz-clone.parquet"))

    base = run_suite(dup, str(tmp_path / "mem"), SuiteConfig(repos_dim_path=f"{d}/repos.parquet"))
    assert base.violations_dir is None
    spill = run_suite(
        dup,
        str(tmp_path / "spill"),
        SuiteConfig(repos_dim_path=f"{d}/repos.parquet", max_driver_violation_rows=4),
    )
    assert spill.violations_dir and os.path.isdir(spill.violations_dir)
    raw = os.path.join(str(tmp_path / "spill"), "scan", "violations_spill")
    assert any(f.endswith(".parquet") for f in os.listdir(raw))  # actually spilled
    sort_cols = ["violation_kind", "repo", "path", "commit", "content_sha256"]
    got = pq.read_table(spill.violations_dir).sort_by([(c, "ascending") for c in sort_cols])
    want = pq.read_table(os.path.join(str(tmp_path / "mem"), "scan", "violations.parquet")).sort_by(
        [(c, "ascending") for c in sort_cols]
    )
    assert got.num_rows == want.num_rows
    assert got.select(want.column_names).cast(want.schema).equals(want)


def test_retried_scan_task_matches_uninterrupted_run(ray_session, dirty_corpus, tmp_path, monkeypatch):
    """A scan task whose worker dies is re-run by Ray Data. Scan tasks
    write no file, so the retry can neither leave nor double-count a
    spilled violation row: a spilled run whose first scan task kills its
    worker process equals an uninterrupted run."""
    import anomalydetection_ray.pipelines.validate as V

    d, _ = dirty_corpus
    cfg = V.SuiteConfig(repos_dim_path=f"{d}/repos.parquet", max_driver_violation_rows=4)
    want = V.run_suite(f"{d}/corpus", str(tmp_path / "ref"), cfg)
    marker = str(tmp_path / "worker-died")
    real = V.make_row_violations_fn

    def dies_once(cfg, refs):
        row_fn = real(cfg, refs)

        def row_violations(batch):
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                return row_fn(batch)
            os.close(fd)
            os._exit(1)

        return row_violations

    monkeypatch.setattr(V, "make_row_violations_fn", dies_once)
    got = V.run_suite(f"{d}/corpus", str(tmp_path / "retried"), cfg)
    assert os.path.exists(marker)  # a worker did die mid-task
    assert got.violations_dir is not None and want.violations_dir is not None
    assert got.verdicts.equals(want.verdicts)
    sort_cols = [(c, "ascending") for c in ("violation_kind", "repo", "path", "commit", "content_sha256")]
    assert pq.read_table(got.violations_dir).sort_by(sort_cols).equals(
        pq.read_table(want.violations_dir).sort_by(sort_cols)
    )


def _finalize_with_every_candidate_dropped(run, d, out, monkeypatch):
    """Run a suite executor above its violation budget with a dup recount
    that drops EVERY spilled row (all candidates were key-collision
    artifacts): write_parquet leaves a shard-less violations_sorted dir,
    and the suite must finalize with zero violations instead of raising
    on read_parquet of an empty directory."""
    import anomalydetection_ray.pipelines.validate as V

    real = V._verify_dup_candidates_ds

    def drop_everything(viol_ds, key):
        return real(viol_ds, key).filter(expr="violation_kind == '__never__'")

    monkeypatch.setattr(V, "_verify_dup_candidates_ds", drop_everything)
    res = getattr(V, run)(
        f"{d}/corpus",
        out,
        V.SuiteConfig(repos_dim_path=f"{d}/repos.parquet", max_driver_violation_rows=4),
    )
    assert res.violations_dir is None
    # scan-sourced kinds report zero violations; the run completes cleanly
    for kind in ("uniqueness", "rowrules"):
        assert res.violations[kind].num_rows == 0


def test_spill_all_candidates_dropped_finalizes_empty(
    ray_session, dirty_corpus, tmp_path, monkeypatch
):
    """ADVICE round 3: run_suite's spill finalize with every candidate
    dropped by the exact recount."""
    _finalize_with_every_candidate_dropped("run_suite", dirty_corpus[0], str(tmp_path / "out"), monkeypatch)


def test_sharded_spill_all_candidates_dropped_finalizes_empty(
    ray_session, dirty_corpus, tmp_path, monkeypatch
):
    """The same empty-directory case through run_suite_sharded, which
    shares run_suite's violation finalize."""
    _finalize_with_every_candidate_dropped(
        "run_suite_sharded", dirty_corpus[0], str(tmp_path / "out"), monkeypatch
    )


def test_orphans_bloom_null_bearing_int_fact_keys(ray_session):
    """A null in a fact block must not flip the block's valid int keys to
    float64 hashing (they all read as 'definite orphans' against the
    int-hashed dim bloom)."""
    import pyarrow as pa
    import ray.data as rd

    from anomalydetection_ray.checks.referential import orphans_bloom

    fact = pa.table({
        "fk": pa.array([1, 2, None, 99], type=pa.int64()),
        "row": pa.array(range(4), type=pa.int64()),
    })
    dim = pa.table({"k": pa.array([1, 2, 3], type=pa.int64())})
    out = orphans_bloom(rd.from_arrow(fact), "fk", rd.from_arrow(dim), "k")
    got = sorted(r["row"] for t in out.iter_batches(batch_format="pyarrow", batch_size=None)
                 for r in t.to_pylist())
    assert got == [2, 3]  # the null FK and the genuinely absent 99 only


def test_sorted_probes_keep_large_int64_keys_exact(ray_session):
    """A null in a fact block must not widen its int64 keys to float64:
    2**60 + 1 and 2**60 round to the same float, so the orphan 2**60 + 1
    read as present — semi_join(anti=True) lost it and the semi join kept
    it. broadcast_value_filter runs the same probe."""
    import pyarrow as pa
    import ray.data as rd

    from anomalydetection_ray.checks.referential import semi_join
    from anomalydetection_ray.functions.relational import broadcast_value_filter

    fact = pa.table({
        "fk": pa.array([2**60 + 1, None, 2**60], type=pa.int64()),
        "row": pa.array(range(3), type=pa.int64()),
    })
    dim = pa.table({"k": pa.array([2**60], type=pa.int64())})

    def rows(ds) -> list[int]:
        return sorted(r["row"] for t in ds.iter_batches(batch_format="pyarrow", batch_size=None)
                      for r in t.to_pylist())

    assert rows(semi_join(rd.from_arrow(fact), "fk", rd.from_arrow(dim), "k", anti=True)) == [0, 1]
    assert rows(semi_join(rd.from_arrow(fact), "fk", rd.from_arrow(dim), "k")) == [2]
    keys = np.array([2**60], dtype=np.int64)
    assert rows(broadcast_value_filter(rd.from_arrow(fact), "fk", keys, keep=True)) == [2]
    assert rows(broadcast_value_filter(rd.from_arrow(fact), "fk", keys, keep=False)) == [0, 1]


def test_tolerance_nan_fails():
    from anomalydetection_ray.checks.base import Tolerance

    t = Tolerance("vmin", min_value=0.0)
    assert not t.passes(float("nan"))
    assert not t.passes(None)
    assert t.passes(0.5)


def test_runstate_unit_name_escaping_injective(tmp_path):
    from anomalydetection_ray.state.checkpoint import RunState

    s = RunState(str(tmp_path))
    s.mark_done("a/b", {"v": 1})
    assert s.is_done_compat("a/b") and not s.is_done_compat("a_b")
    s.mark_done("a_b", {"v": 2})
    assert s.done_metrics("a/b")["metrics"]["v"] == 1
    assert s.done_metrics("a_b")["metrics"]["v"] == 2


def test_bloom_probe_int_repo_with_nulls_no_false_orphans(ray_session, tmp_path):
    """Round-5 review: np.asarray on a null-bearing INT repo column gave
    float64 values whose bit-pattern hashes missed the int-built dim
    Bloom — EVERY valid key in the batch was flagged orphan. The probe
    must drop nulls first (dtype-preserving), like the build side."""
    import pyarrow as pa

    from anomalydetection_ray.pipelines.validate import (
        SuiteConfig,
        _prepare_rowpass_refs,
        make_row_violations_fn,
    )

    dim = pa.table({"repo_id": pa.array([1, 2, 3], type=pa.int64())})
    dim_path = str(tmp_path / "dim.parquet")
    pq.write_table(dim, dim_path)
    cfg = SuiteConfig(
        key=("id",), partition_by="lang", content_col="content",
        repo_col="repo_id", dim_key="repo_id", repos_dim_path=dim_path,
    )
    refs = _prepare_rowpass_refs(cfg, np.array([], dtype=np.uint64))
    fn = make_row_violations_fn(cfg, refs)
    batch = pa.table({
        "id": pa.array([10, 11, 12, 13], type=pa.int64()),
        "lang": pa.array(["py"] * 4),
        "content": pa.array(["a", "b", "c", "d"]),
        "repo_id": pa.array([1, None, 3, 99], type=pa.int64()),
    })
    out = fn(batch)
    kinds = dict(zip(out["id"].to_pylist(), out["violation_kind"].to_pylist()))
    # only the null repo and the genuinely-absent 99 are orphans
    assert kinds == {11: "orphan_repo", 13: "orphan_repo"}


def test_violation_invariant_duplicate_keys_and_nonstring_keys(ray_session, tmp_path):
    """Round-5 review: (a) duplicate-key violations with different hashes
    collapsed to the last in the want dict, so a corrupted earlier hash
    passed; (b) Python str() keys diverged from the Arrow cast the scan
    mask uses for bool/float keys, failing valid violations."""
    import hashlib

    import pyarrow as pa

    from anomalydetection_ray.pipelines.validate import (
        SuiteConfig,
        verify_violation_invariant,
    )

    corpus = pa.table({
        "k": pa.array([True, True, False], type=pa.bool_()),
        "content": pa.array(["c1", "c2", "c3"]),
    })
    path = str(tmp_path / "corpus.parquet")
    pq.write_table(corpus, path)
    cfg = SuiteConfig(key=("k",), content_col="content")
    sha = lambda s: hashlib.sha256(s.encode()).hexdigest()
    good = pa.table({
        "k": pa.array([True, True], type=pa.bool_()),
        "content_sha256": pa.array([sha("c1"), sha("c2")]),
        "violation_kind": pa.array(["duplicate_key"] * 2),
    })
    assert verify_violation_invariant(good, path, cfg)  # bool keys work
    # corrupting EITHER duplicate-key row's hash now fails
    bad = pa.table({
        "k": pa.array([True, True], type=pa.bool_()),
        "content_sha256": pa.array([sha("corrupted"), sha("c2")]),
        "violation_kind": pa.array(["duplicate_key"] * 2),
    })
    assert not verify_violation_invariant(bad, path, cfg)


def test_suite_profiles_binary_and_list_columns(ray_session, tmp_path):
    """Round-5 review: a binary or list column in the corpus schema
    crashed the whole fused scan in _numeric_view's float64 cast (and
    list hashing crashed the FNV dict cache). Binary profiles by byte
    length; nested types profile null structure + polars-hashed
    distincts."""
    import pyarrow as pa

    from anomalydetection_ray.checks.stats import column_stats
    import ray.data as rd

    t = pa.table({
        "lang": pa.array(["py", "py", "go"]),
        "blob": pa.array([b"abc", None, b"defgh"], type=pa.binary()),
        "tags": pa.array([[1, 2], None, [3]], type=pa.list_(pa.int64())),
    })
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = column_stats(
            rd.from_arrow(t), columns=["blob", "tags"], partition_by=["lang"]
        ).to_pandas()
    blob = out[(out["column"] == "blob") & (out["part"] == "py")].iloc[0]
    assert blob["nulls"] == 1
    assert blob["vmin"] == 3.0  # byte length of b"abc"
    tags = out[out["column"] == "tags"]
    assert int(tags["nulls"].sum()) == 1

    # nested values have no numeric projection: every numeric stat is NaN
    # (std included) and the merge warns about nothing; count, nulls and
    # distinct_est still profile the column
    from anomalydetection_ray.checks.stats import make_stats_partial_fn, merge_partials_to_stats

    fn = make_stats_partial_fn(["tags"], ["lang"])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        merged = merge_partials_to_stats([fn(t), fn(t.slice(0, 2))]).set_index("part")
    for part, count, nulls in (("py", 4, 2), ("go", 1, 0)):
        row = merged.loc[part]
        assert (row["count"], row["nulls"]) == (count, nulls)
        assert round(row["distinct_est"]) == 1
        for stat in ("mean", "std", "vmin", "vmax", "p50", "p95", "p99"):
            assert np.isnan(row[stat]), (part, stat)
    for stat in ("mean", "std", "vmin", "vmax", "p50"):
        assert tags[stat].isna().all(), stat


def test_corpus_files_walks_partitioned_layout(ray_session, tmp_path):
    """Round-5 review: the engine's own hive-partitioned writer output
    (lang=xx/part-*.parquet) raised a bare IndexError in _corpus_schema
    and produced an empty shard basis in run_suite_sharded."""
    import pyarrow as pa

    from anomalydetection_ray.pipelines.validate import _corpus_files, _corpus_schema

    root = tmp_path / "hive"
    for lang in ("en", "de"):
        d = root / f"lang={lang}"
        d.mkdir(parents=True)
        pq.write_table(pa.table({"x": [1]}), str(d / "part-0.parquet"))
    files = _corpus_files(str(root))
    assert len(files) == 2 and all(f.endswith(".parquet") for f in files)
    assert _corpus_schema(str(root)).names == ["x"]
    empty = tmp_path / "empty_dir_x"
    empty.mkdir()
    with pytest.raises(FileNotFoundError, match="no parquet files"):
        _corpus_schema(str(empty))


def test_sharded_suite_spills_above_violation_budget(ray_session, dirty_corpus, tmp_path):
    """Round-5 review: run_suite_sharded concatenated every shard's
    violation table on the driver regardless of
    max_driver_violation_rows. Above the budget it must take the same
    distributed finalize as run_suite (empty driver table +
    violations_dir), with identical verdict counts."""
    from anomalydetection_ray.pipelines.validate import (
        SuiteConfig,
        run_suite,
        run_suite_sharded,
    )

    d, _ = dirty_corpus
    base = run_suite(
        f"{d}/corpus", str(tmp_path / "mem"),
        SuiteConfig(repos_dim_path=f"{d}/repos.parquet"),
    )
    spilled = run_suite_sharded(
        f"{d}/corpus", str(tmp_path / "spill"),
        cfg=SuiteConfig(repos_dim_path=f"{d}/repos.parquet", max_driver_violation_rows=4),
        n_shards=3,
    )
    assert spilled.violations_dir is not None
    # verdict counts identical to the in-memory plan
    bv = base.verdicts.sort_values(["check", "partition", "column"]).reset_index(drop=True)
    sv = spilled.verdicts.sort_values(["check", "partition", "column"]).reset_index(drop=True)
    import pandas as pd

    pd.testing.assert_frame_equal(
        bv[["check", "partition", "metric", "passed"]],
        sv[["check", "partition", "metric", "passed"]],
    )
    # the driver flushed each shard unit's violation rows past the budget
    # into that unit's spill directory; the finalized rows equal the
    # driver-held plan's
    import glob

    import pyarrow as pa

    assert glob.glob(
        os.path.join(str(tmp_path / "spill"), "shard-*-partials", "violations_spill", "viol-driver-*.parquet")
    )
    sort_cols = [(c, "ascending") for c in ("violation_kind", "repo", "path", "commit", "content_sha256")]
    want = pa.concat_tables(
        [base.violations[k] for k in ("rowrules", "uniqueness", "referential")]
    ).sort_by(sort_cols)
    got = pq.read_table(spilled.violations_dir).sort_by(sort_cols)
    assert got.select(want.column_names).cast(want.schema).equals(want)


def test_write_baseline_empty_corpus(ray_session, tmp_path):
    """Round-5 review: an empty corpus round-trips through Ray as a
    column-less frame — write_baseline raised KeyError instead of
    writing an empty snapshot."""
    import pyarrow as pa

    from anomalydetection_ray.checks.drift import load_snapshot
    from anomalydetection_ray.pipelines.validate import write_baseline

    empty = pa.table({
        "repo": pa.array([], type=pa.string()),
        "path": pa.array([], type=pa.string()),
        "commit": pa.array([], type=pa.string()),
        "lang": pa.array([], type=pa.string()),
        "content": pa.array([], type=pa.string()),
    })
    cp = str(tmp_path / "empty.parquet")
    pq.write_table(empty, cp)
    snap = str(tmp_path / "baseline.parquet")
    write_baseline(cp, snap)
    back = load_snapshot(snap)
    assert len(back) == 0
    assert "column" in back.columns


def _ray_dim_broadcast(path: str, dim_key: str):
    """Reference: the Ray-pipeline dimension broadcast build the suite ran
    before building it on the driver — per-block partial Bloom filters
    OR-merged on the driver, distinct keys per block then np.unique."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from anomalydetection_ray.checks.referential import _collect_dim_keys
    from anomalydetection_ray.sketches import BloomFilter

    dim = rd.read_parquet(path, columns=[dim_key]).materialize()
    cap = max(1024, dim.count())

    def partial(batch: pa.Table) -> pa.Table:
        bf = BloomFilter(cap, 0.001)
        bf.update(np.asarray(pc.drop_null(batch[dim_key].combine_chunks())))
        return pa.Table.from_pydict({"bloom": [bf.to_bytes()]})

    bloom = BloomFilter(cap, 0.001)
    for row in dim.map_batches(partial, batch_format="pyarrow", batch_size=None).take_all():
        bloom.merge(BloomFilter.from_bytes(row["bloom"]))
    return bloom.to_bytes(), _collect_dim_keys(dim, dim_key)


@pytest.mark.parametrize("shape", ["string", "int_nulls_above_2_53", "multi_file_dir", "all_null"])
def test_driver_dim_broadcast_matches_ray_build(ray_session, tmp_path, shape):
    """The suite's dimension broadcast, read and built on the driver, is
    byte-identical to the Ray-pipeline build: same Bloom bytes, same
    sorted exact keys (and dtype: int64 keys stay int64)."""
    import pyarrow as pa
    import ray

    from anomalydetection_ray.pipelines.validate import SuiteConfig, _prepare_rowpass_refs

    i64 = pa.int64()
    if shape == "string":
        tables = [pa.table({"k": pa.array(["b", "a", None, "c", "a"])})]
    elif shape == "int_nulls_above_2_53":
        tables = [pa.table({"k": pa.array([2**60 + 1, None, 2**60, 5, 2**53 + 1, 5], type=i64)})]
    elif shape == "multi_file_dir":
        tables = [
            pa.table({"k": pa.array([7, None, 3], type=i64)}),
            pa.table({"k": pa.array(list(range(2000)), type=i64)}),
            pa.table({"k": pa.array([3, 2**62], type=i64)}),
        ]
    else:
        tables = [pa.table({"k": pa.array([None] * 4, type=i64)})]
    if len(tables) == 1:
        path = str(tmp_path / "dim.parquet")
        pq.write_table(tables[0], path)
    else:
        path = str(tmp_path / "dim")
        os.makedirs(path)
        for i, t in enumerate(tables):
            pq.write_table(t, os.path.join(path, f"part-{i:05d}.parquet"))
        open(os.path.join(path, "_DONE"), "w").close()  # the resumable writer's marker

    refs = _prepare_rowpass_refs(
        SuiteConfig(repos_dim_path=path, dim_key="k"), np.array([], dtype=np.int64)
    )
    want_bloom, want_exact = _ray_dim_broadcast(path, "k")
    got_exact = ray.get(refs.exact_ref)
    assert ray.get(refs.bloom_ref) == want_bloom
    assert np.array_equal(got_exact, want_exact)
    if len(want_exact):
        assert got_exact.dtype == want_exact.dtype
    else:
        assert shape == "all_null" and len(got_exact) == 0


def test_suite_ray_executions_per_op(ray_session, dirty_corpus, tmp_path, monkeypatch):
    """A fresh run_suite with a dimension runs exactly two Ray Data
    executions — the uniqueness key pass and the fused scan; the
    broadcast state (dup hashes, dimension Bloom filter and exact keys)
    is built on the driver. A resume with the scan invalidated runs only
    the scan, and one with nothing invalidated runs nothing."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    from anomalydetection_ray.pipelines.validate import SuiteConfig, run_suite
    from anomalydetection_ray.state import RunState

    # every Dataset consumption runs one StreamingExecutor.execute
    calls: list = []
    real = StreamingExecutor.execute

    def counted(self, *args, **kwargs):
        calls.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    d, _ = dirty_corpus
    out = str(tmp_path / "out")
    cfg = SuiteConfig(repos_dim_path=f"{d}/repos.parquet")
    first = run_suite(f"{d}/corpus", out, cfg)
    assert first.violations["referential"].num_rows > 0
    assert len(calls) == 2

    calls.clear()
    RunState(out).invalidate("scan")
    again = run_suite(f"{d}/corpus", out, cfg)
    assert len(calls) == 1
    assert again.verdicts.equals(first.verdicts)

    calls.clear()
    third = run_suite(f"{d}/corpus", out, cfg)
    assert len(calls) == 0
    assert third.verdicts.equals(first.verdicts)
    for name in first.violations:
        assert third.violations[name].equals(first.violations[name]), name


def test_spilled_resume_runs_no_ray_execution(ray_session, dirty_corpus, tmp_path, monkeypatch):
    """A spilled run_suite keeps its per-(kind, partition) violation
    counts in the ``rowpass`` marker, so a resume with nothing
    invalidated runs no Ray Data execution at all. The counts equal the
    driver-held run's, and a marker without counts is recomputed."""
    import json

    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    from anomalydetection_ray.pipelines.validate import SuiteConfig, run_suite
    from anomalydetection_ray.state import RunState

    calls: list = []
    real = StreamingExecutor.execute

    def counted(self, *args, **kwargs):
        calls.append(1)
        return real(self, *args, **kwargs)

    d, _ = dirty_corpus
    held = run_suite(f"{d}/corpus", str(tmp_path / "held"), SuiteConfig())
    assert held.violations_dir is None
    out = str(tmp_path / "out")
    cfg = SuiteConfig(max_driver_violation_rows=4)
    first = run_suite(f"{d}/corpus", out, cfg)
    assert first.violations_dir is not None
    assert first.verdicts.equals(held.verdicts)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    again = run_suite(f"{d}/corpus", out, cfg)
    assert len(calls) == 0
    assert again.verdicts.equals(first.verdicts)

    # a marker written without counts is not trusted: the finalize reruns
    marker = RunState(out)._marker("rowpass")
    with open(marker) as f:
        payload = json.load(f)
    del payload["metrics"]["counts"]
    with open(marker, "w") as f:
        json.dump(payload, f)
    third = run_suite(f"{d}/corpus", out, cfg)
    assert len(calls) > 0
    assert third.verdicts.equals(first.verdicts)
    assert "counts" in RunState(out).done_metrics("rowpass")["metrics"]


def test_stats_merge_independent_of_partial_order():
    """merge_partials_to_stats orders the partial rows by content before
    combining them, so the stats table (KLL bytes and the float moments
    included) does not depend on the order the scan's blocks arrived in."""
    import pyarrow as pa

    from anomalydetection_ray.checks.stats import make_stats_partial_fn, merge_partials_to_stats

    rng = np.random.default_rng(3)
    fn = make_stats_partial_fn(["v"], ["p"])
    parts = []
    for _ in range(16):
        n = int(rng.integers(500, 3000))  # > k, so the partial KLLs hold several levels
        parts.append(fn(pa.table({
            "p": pa.array(rng.choice(["a", "b"], n)),
            "v": pa.array(rng.lognormal(0, 2, n) * 10.0 ** rng.integers(-3, 4)),
        })))
    a = pa.Table.from_pandas(merge_partials_to_stats(parts), preserve_index=False)
    for order in (parts[::-1], [parts[i] for i in rng.permutation(len(parts))]):
        b = pa.Table.from_pandas(merge_partials_to_stats(order), preserve_index=False)
        assert b.equals(a)


def test_resume_reuses_finalized_violations(ray_session, dirty_corpus, tmp_path, monkeypatch):
    """A resume whose units were all reused reuses the finalized
    violations (unit ``rowpass``): no distributed recount, no rewrite of
    ``rowpass/``, identical output. Invalidating one shard re-finalizes."""
    import anomalydetection_ray.pipelines.validate as V
    from anomalydetection_ray.state import RunState

    d, _ = dirty_corpus
    out = str(tmp_path / "out")
    cfg = V.SuiteConfig(repos_dim_path=f"{d}/repos.parquet", max_driver_violation_rows=4)
    first = V.run_suite_sharded(f"{d}/corpus", out, cfg, n_shards=3)
    assert first.violations_dir is not None
    want = pq.read_table(first.violations_dir)

    recounts: list = []
    real = V._verify_dup_candidates_ds

    def counted(viol_ds, key):
        recounts.append(1)
        return real(viol_ds, key)

    monkeypatch.setattr(V, "_verify_dup_candidates_ds", counted)

    def rowpass_mtimes() -> dict:
        root = os.path.join(out, "rowpass")
        return {
            os.path.join(dp, f): os.stat(os.path.join(dp, f)).st_mtime_ns
            for dp, _, fs in os.walk(root) for f in fs
        }

    before = rowpass_mtimes()
    again = V.run_suite_sharded(f"{d}/corpus", out, cfg, n_shards=3)
    assert recounts == []
    assert rowpass_mtimes() == before
    assert again.violations_dir == first.violations_dir
    assert again.verdicts.equals(first.verdicts)
    assert pq.read_table(again.violations_dir).equals(want)

    RunState(out).invalidate("shard-0001-partials")
    third = V.run_suite_sharded(f"{d}/corpus", out, cfg, n_shards=3)
    assert recounts == [1]
    assert third.verdicts.equals(first.verdicts)
    assert pq.read_table(third.violations_dir).equals(want)
