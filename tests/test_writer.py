"""Resumable partitioned Parquet sink (sources/writer.py)."""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq


def _mk(n=1000, langs=("en", "de", "fr"), with_null=True):
    import numpy as np

    rng = np.random.default_rng(7)
    lang = [langs[i % len(langs)] for i in range(n)]
    if with_null:
        lang[5] = None
    return pa.table({
        "doc_id": pa.array(np.arange(n), type=pa.int64()),
        "lang": pa.array(lang, type=pa.string()),
        "val": pa.array(rng.normal(size=n)),
    })


def _read_all(out_dir):
    import pandas as pd

    frames = []
    for name in sorted(os.listdir(out_dir)):
        d = os.path.join(out_dir, name)
        if not os.path.isdir(d):
            continue
        for f in sorted(os.listdir(d)):
            if f.endswith(".parquet"):
                frames.append(pq.read_table(os.path.join(d, f)).to_pandas())
    return pd.concat(frames, ignore_index=True) if frames else pd.DataFrame()


def test_write_partitioned_roundtrip_and_layout(ray_session, tmp_path):
    import ray.data as rd

    from anomalydetection_ray.sources.writer import write_partitioned

    t = _mk()
    out = str(tmp_path / "sink")
    summary = write_partitioned(rd.from_arrow(t).repartition(4), out, "lang")
    assert sorted(os.listdir(out)) == ["lang=__null__", "lang=de", "lang=en", "lang=fr"]
    for d in os.listdir(out):
        assert os.path.exists(os.path.join(out, d, "_DONE"))
    back = _read_all(out).sort_values("doc_id").reset_index(drop=True)
    assert len(back) == t.num_rows
    assert back["doc_id"].tolist() == list(range(t.num_rows))
    assert summary["skipped"].sum() == 0
    assert summary["rows"].sum() == t.num_rows


def test_write_partitioned_resume_skips_done(ray_session, tmp_path):
    import ray.data as rd

    from anomalydetection_ray.sources.writer import write_partitioned

    t = _mk(with_null=False)
    out = str(tmp_path / "sink")
    write_partitioned(rd.from_arrow(t), out, "lang")
    # simulate a crash on 'de': drop its marker and corrupt its shards
    de = os.path.join(out, "lang=de")
    os.remove(os.path.join(de, "_DONE"))
    for f in os.listdir(de):
        os.remove(os.path.join(de, f))
    with open(os.path.join(de, "part-stale.parquet"), "w") as f:
        f.write("junk")  # stale partial shard must be cleared, not kept

    en_files = set(os.listdir(os.path.join(out, "lang=en")))
    summary = write_partitioned(rd.from_arrow(t).repartition(3), out, "lang")
    # done partitions reported skipped and untouched
    sk = summary[summary["skipped"]]
    assert sorted(sk["partition"]) == ["en", "fr"]
    assert set(os.listdir(os.path.join(out, "lang=en"))) == en_files
    # de rewritten completely, marker restored, no stale junk
    assert os.path.exists(os.path.join(de, "_DONE"))
    assert "part-stale.parquet" not in os.listdir(de)
    back = _read_all(out).sort_values("doc_id").reset_index(drop=True)
    assert len(back) == t.num_rows and back["doc_id"].is_unique


def test_write_partitioned_idempotent_rerun(ray_session, tmp_path):
    import ray.data as rd

    from anomalydetection_ray.sources.writer import write_partitioned

    import re

    t = _mk(n=300, with_null=False)
    out = str(tmp_path / "sink")

    def canon_names():
        # shard names are deterministic up to the per-run nonce (which
        # exists precisely so a dead run's late shards can be swept)
        return {
            d: sorted(re.sub(r"-r[0-9a-f]{10}-", "-", f) for f in os.listdir(os.path.join(out, d)))
            for d in os.listdir(out)
        }

    write_partitioned(rd.from_arrow(t).repartition(2), out, "lang", resume=False)
    files1 = canon_names()
    # resume=False rewrites everything; task/block/content name parts
    # are deterministic -> identical modulo the run tag, no accumulation
    write_partitioned(rd.from_arrow(t).repartition(2), out, "lang", resume=False)
    files2 = canon_names()
    assert files1 == files2
    back = _read_all(out)
    assert len(back) == 300 and back["doc_id"].is_unique


def test_write_partitioned_bool_partition_resume(ray_session, tmp_path):
    # non-string partition columns: Python str(True)="True" vs Arrow's
    # "true" used to desynchronize dirnames from the resume filter, so
    # done partitions were silently re-written (rows duplicated)
    import numpy as np
    import ray.data as rd

    from anomalydetection_ray.sources.writer import write_partitioned

    t = pa.table({
        "doc_id": pa.array(np.arange(200), type=pa.int64()),
        "flag": pa.array([i % 2 == 0 for i in range(200)], type=pa.bool_()),
    })
    out = str(tmp_path / "sink")
    write_partitioned(rd.from_arrow(t), out, "flag")
    dirs = sorted(d for d in os.listdir(out) if os.path.isdir(os.path.join(out, d)))
    assert dirs == ["flag=false", "flag=true"]  # Arrow-canonical values
    # full resume: every partition done -> everything skipped, no new rows
    summary = write_partitioned(rd.from_arrow(t), out, "flag")
    assert summary["skipped"].all()
    back = _read_all(out)
    assert len(back) == 200 and back["doc_id"].is_unique


def test_write_partitioned_null_sentinel_value_distinct(ray_session, tmp_path):
    # a REAL partition value '__null__' must not merge into the null
    # sentinel directory (quote() keeps underscores verbatim): merged
    # dirs decoded as None on resume, so the string-valued rows re-scanned
    # and re-wrote into a dir already holding a _DONE marker (duplicates)
    import ray.data as rd

    from anomalydetection_ray.sources.writer import write_partitioned

    t = pa.table({
        "doc_id": pa.array([1, 2, 3], type=pa.int64()),
        "src": pa.array(["__null__", None, "web"], type=pa.string()),
    })
    out = str(tmp_path / "sink")
    write_partitioned(rd.from_arrow(t), out, "src")
    dirs = sorted(d for d in os.listdir(out) if os.path.isdir(os.path.join(out, d)))
    assert len(dirs) == 3 and "src=__null__" in dirs  # three DISTINCT partitions
    back = _read_all(out)
    assert len(back) == 3 and sorted(back["doc_id"]) == [1, 2, 3]
    # full resume: all three recognized as done, nothing re-written
    summary = write_partitioned(rd.from_arrow(t), out, "src")
    assert summary["skipped"].all() and len(summary) == 3
    assert len(_read_all(out)) == 3


def test_write_partitioned_identical_blocks_not_collapsed(ray_session, tmp_path):
    # two blocks with byte-identical content must BOTH persist (pure
    # content-hash shard names used to collapse them into one file,
    # silently losing rows while the summary counted both)
    import ray.data as rd

    from anomalydetection_ray.sources.writer import write_partitioned

    t = pa.table({
        "doc_id": pa.array([1, 2], type=pa.int64()),
        "lang": pa.array(["en", "en"], type=pa.string()),
    })
    dup = rd.from_arrow(t).union(rd.from_arrow(t))  # twin blocks
    out = str(tmp_path / "sink")
    summary = write_partitioned(dup, out, "lang")
    back = _read_all(out)
    assert len(back) == 4
    assert int(summary["rows"].sum()) == 4


def test_write_partitioned_max_rows_per_file(ray_session, tmp_path, monkeypatch):
    import ray.data as rd

    from anomalydetection_ray.sources import writer
    from anomalydetection_ray.sources.writer import write_partitioned

    t = _mk(n=90, langs=("en",), with_null=False)
    out = str(tmp_path / "sink")
    monkeypatch.setattr(writer, "MAX_ROWS_PER_FILE", 25)
    s = write_partitioned(rd.from_arrow(t), out, "lang")
    files = [f for f in os.listdir(os.path.join(out, "lang=en")) if f.endswith(".parquet")]
    assert len(files) == 4  # 25+25+25+15
    assert int(s.loc[s["partition"] == "en", "files"].iloc[0]) == 4
    back = _read_all(out)
    assert len(back) == 90 and back["doc_id"].is_unique


def test_manifest_sweep_evicts_zombie_shards(ray_session, tmp_path):
    """A crashed run's surviving workers can land shard files AFTER a
    resume run's up-front stale clean (chaos-test finding, round 5). The
    driver's pre-_DONE manifest sweep must evict any parquet file the
    current run did not write. The zombie is simulated by a map stage
    that drops an alien shard into the partition dir mid-write."""
    import json

    import ray.data as rd

    from anomalydetection_ray.sources.writer import write_partitioned

    t = _mk(n=300, langs=("en",), with_null=False)
    out = str(tmp_path / "sink")
    part_dir = os.path.join(out, "lang=en")
    os.makedirs(part_dir, exist_ok=True)
    alien = t.slice(0, 37)

    def plant_zombie(tb: pa.Table) -> pa.Table:
        # lands after write_partitioned's pre-clean (which ran at call
        # time) and before the driver's completion sweep
        pq.write_table(alien, os.path.join(part_dir, "part-rzombie00-t99999-b000-0000-dead.parquet"))
        return tb

    ds = rd.from_arrow(t).repartition(2).map_batches(
        plant_zombie, batch_format="pyarrow", batch_size=None
    )
    write_partitioned(ds, out, "lang")

    back = _read_all(out)
    assert len(back) == t.num_rows, "zombie shard rows leaked into the final output"
    files = {f for f in os.listdir(part_dir) if f.endswith(".parquet")}
    assert "part-rzombie00-t99999-b000-0000-dead.parquet" not in files
    # _DONE carries the manifest and it matches the directory exactly
    with open(os.path.join(part_dir, "_DONE")) as fh:
        lines = fh.read().splitlines()
    assert int(lines[0]) == t.num_rows
    manifest = json.loads(lines[1])
    assert sorted(files) == manifest["files"]
    assert all(f"-r{manifest['run']}-" in f for f in files)


def test_sweep_evicts_alien_shard_in_unwritten_partition(ray_session, tmp_path):
    """A dead run's late shard can land in a partition VALUE the resume
    run never writes (the corpus changed between runs) — that dir is in
    neither done_dirs nor this run's summary, so the manifest sweep
    skipped it and readers saw its phantom rows forever (round-5
    review). After a successful pass, any parquet in a no-_DONE,
    not-written-this-run dir must be evicted."""
    import ray.data as rd

    from anomalydetection_ray.sources.writer import write_partitioned

    t = _mk(n=200, langs=("en",), with_null=False)
    out = str(tmp_path / "sink")
    # run 2's corpus has no lang=xx rows; the zombie lands there after
    # the up-front clean (planted from inside the pipeline)
    alien_dir = os.path.join(out, "lang=xx")
    os.makedirs(alien_dir, exist_ok=True)
    alien = t.slice(0, 11).set_column(
        1, "lang", pa.array(["xx"] * 11, type=pa.string())
    )

    def plant(tb: pa.Table) -> pa.Table:
        pq.write_table(alien, os.path.join(alien_dir, "part-rdead0000-t1-b0-0000-beef.parquet"))
        return tb

    ds = rd.from_arrow(t).repartition(2).map_batches(
        plant, batch_format="pyarrow", batch_size=None
    )
    write_partitioned(ds, out, "lang")

    back = _read_all(out)
    assert len(back) == t.num_rows, "alien-partition rows leaked into the output"
    assert not [f for f in os.listdir(alien_dir) if f.endswith(".parquet")]
    assert not os.path.exists(os.path.join(alien_dir, "_DONE"))
