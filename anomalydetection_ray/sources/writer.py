"""Resumable partitioned Parquet sink.

The brief's output contract for 100 TB runs: "write partitioned Parquet
(one directory per input shard / key range) so a failed run can skip
finished partitions; never one giant file". The validation suite already
checkpoints at check×shard granularity (state/checkpoint.py, reference
analog ``end_to_end_prediction.py``'s per-step artifact dirs); this is
the GENERIC dataset-level sink any pipeline can end with.

Design:

- Hive-style layout ``out_dir/<col>=<value>/part-<tag>.parquet``.
- Partition VALUES are canonicalized through Arrow's cast-to-string on
  BOTH the write and the resume side, so bool/float/timestamp partition
  columns round-trip (``str(True)`` = "True" vs Arrow's "true" was a
  silent resume mismatch that re-wrote done partitions).
- Shard names combine the writing task's retry-stable ``task_idx`` (a
  lineage re-execution of the same task reuses it) with a content hash:
  an at-least-once retried task OVERWRITES its own shard instead of
  duplicating rows, while two DIFFERENT tasks holding byte-identical
  blocks (duplicate-heavy corpora) keep distinct names instead of
  silently collapsing to one file. This needs the ``Datasink`` API —
  plain ``map_batches`` UDFs can't see a stable task identity.
- A partition is COMPLETE when its dir holds an atomic ``_DONE`` marker
  (tmp + rename) recording the row count and the shard-file manifest;
  markers are written by the driver only after the full pass succeeds,
  so a crash mid-run leaves partial partitions unmarked and a resume
  rewrites exactly those.
- Every shard name carries a per-run nonce, and before marking a
  partition done the driver SWEEPS alien parquet files (any not in this
  run's manifest) out of that partition. A SIGKILLed driver's surviving
  Ray workers can keep landing in-flight shards for several seconds
  after the driver dies — long enough to slip past a resume run's
  up-front stale-shard clean (observed: +148 duplicated rows at sf0.1).
  The sweep closes that window to "zombie outlives the entire resume
  pass", which the raylet's orphan reaping makes unreachable in
  practice.
- ``resume=True`` drops rows of already-done partitions BEFORE the scan
  (broadcast membership filter on the partition value — partition count
  is small by contract, it is a directory fan-out).
- No co-location shuffle: any block may hold rows of any partition;
  each task partitions locally (one polars ``partition_by``) and
  appends its shards. Completion is tracked per partition, not per
  shard, so correctness never depends on which task wrote what.
"""

from __future__ import annotations

import hashlib
import json
import os
import urllib.parse

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ray.data import Datasink

_DONE = "_DONE"


def clean_parquet_dir(path: str) -> None:
    """Make ``path`` exist and hold NO parquet files. Ray's
    ``Dataset.write_parquet`` appends per-execution UUID-named files, so a
    re-run (resume after a crash, repeated CLI invocation with the same
    --out) silently doubles the rows of whatever reads the directory;
    every non-partitioned sink in this engine wipes stale parquet first.
    Only ``*.parquet`` files are removed — other user content survives."""
    os.makedirs(path, exist_ok=True)
    for f in os.listdir(path):
        if f.endswith(".parquet"):
            os.remove(os.path.join(path, f))


def count_parquet_rows(path: str) -> int:
    """Row count of every ``*.parquet`` directly under ``path``, read
    from the footers' metadata — no data pages touched. The streamed-
    sink row-count idiom (write first, count from footers) shared by the
    curate pipeline and the transform CLI."""
    return sum(
        pq.read_metadata(os.path.join(path, f)).num_rows
        for f in os.listdir(path)
        if f.endswith(".parquet")
    )


def _canon_value_strings(col: pa.ChunkedArray | pa.Array) -> pa.ChunkedArray:
    """Arrow-canonical string form of partition values (nulls preserved).
    This ONE canonicalization is used for dirnames, the resume filter,
    and local partitioning, so the three can never disagree."""
    return pc.cast(col, pa.string())


def _part_dirname(col: str, sval: str | None) -> str:
    if sval is None:
        enc = "__null__"
    else:
        enc = urllib.parse.quote(sval, safe="")
        if enc == "__null__":
            # a REAL partition value '__null__' (underscores are quote-safe,
            # so it round-trips verbatim) must not collide with the null
            # sentinel dir: force-escape its first char; unquote decodes
            # %5F back to '_', so _decode_part_dirname needs no special case
            enc = "%5F" + enc[1:]
    return f"{col}={enc}"


def _decode_part_dirname(name: str, col: str):
    prefix = f"{col}="
    if not name.startswith(prefix):
        return None
    sval = name[len(prefix) :]
    return None if sval == "__null__" else urllib.parse.unquote(sval)


def list_done_partitions(out_dir: str, partition_col: str) -> list:
    """Partition values (Arrow-canonical strings; None for the null
    partition) whose directory holds a ``_DONE`` marker."""
    if not os.path.isdir(out_dir):
        return []
    done = []
    for name in sorted(os.listdir(out_dir)):
        d = os.path.join(out_dir, name)
        if os.path.isdir(d) and os.path.exists(os.path.join(d, _DONE)):
            val = _decode_part_dirname(name, partition_col)
            if val is not None or name == f"{partition_col}=__null__":
                done.append(val)
    return done


class _PartitionedParquetSink(Datasink):
    """Per-task Hive-partitioned shard writer. ``write`` returns the
    (part_dirname, rows, files) triples the driver aggregates in
    ``on_write_complete``."""

    def __init__(self, out_dir: str, partition_col: str, max_rows_per_file: int, run_tag: str):
        self.out_dir = out_dir
        self.partition_col = partition_col
        self.max_rows_per_file = max_rows_per_file
        self.run_tag = run_tag
        self.results: list[dict] = []

    def write(self, blocks, ctx) -> list[dict]:
        import polars as pl

        out_rows: list[dict] = []
        for bi, tb in enumerate(blocks):
            if not isinstance(tb, pa.Table):
                tb = pa.Table.from_pandas(tb)
            if tb.num_rows == 0:
                continue
            part_str = _canon_value_strings(tb[self.partition_col])
            work = tb.append_column("__part_str", part_str)
            # polars groups nulls together and maintain_order keeps the
            # split deterministic for a given block — shard names must be
            # reproducible for the retry-overwrite contract
            for sub in pl.from_arrow(work).partition_by("__part_str", maintain_order=True):
                sval = sub["__part_str"][0]
                d = os.path.join(self.out_dir, _part_dirname(self.partition_col, sval))
                os.makedirs(d, exist_ok=True)
                t = sub.drop("__part_str").to_arrow().cast(tb.schema)
                n_files = 0
                names: list[str] = []
                for s in range(0, t.num_rows, self.max_rows_per_file):
                    piece = t.slice(s, self.max_rows_per_file)
                    # content hash of the piece's IPC serialization
                    # (slices share parent buffers, so hashing raw buffers
                    # would collide across pieces); task_idx + block/piece
                    # ordinals keep byte-identical pieces written by
                    # DIFFERENT tasks from colliding on one filename
                    sink = pa.BufferOutputStream()
                    with pa.ipc.new_stream(sink, piece.schema) as w:
                        w.write_table(piece)
                    h = hashlib.sha256(sink.getvalue()).hexdigest()[:16]
                    name = (
                        f"part-r{self.run_tag}-t{ctx.task_idx:05d}-b{bi:03d}-{n_files:04d}-{h}.parquet"
                    )
                    tmp = os.path.join(d, f".{name}.tmp{os.getpid()}")
                    pq.write_table(piece, tmp)
                    os.replace(tmp, os.path.join(d, name))
                    n_files += 1
                    names.append(name)
                out_rows.append({
                    "part": _part_dirname(self.partition_col, sval),
                    "rows": t.num_rows,
                    "files": n_files,
                    "names": names,
                })
        return out_rows

    def on_write_complete(self, write_result) -> None:
        self.results = [r for rs in write_result.write_returns for r in rs]


# rows per shard file before a partition's block rolls over to a new file
MAX_ROWS_PER_FILE = 1 << 20


def write_partitioned(
    ds,
    out_dir: str,
    partition_col: str,
    resume: bool = True,
):
    """Write ``ds`` as Hive-partitioned Parquet under ``out_dir`` with
    per-partition ``_DONE`` completion markers. Returns a pandas
    DataFrame ``(partition value, rows, files, skipped)`` — one row per
    partition seen in this run plus previously-done ones. Partition
    values are reported in Arrow-canonical string form.

    Re-running after a crash skips completed partitions at the READ
    (their rows never scan again) and rewrites incomplete ones in place
    (retry-stable shard names make the rewrite idempotent). Rows with a
    null partition value go to ``<col>=__null__``."""
    import pandas as pd

    os.makedirs(out_dir, exist_ok=True)
    # per-run nonce: constant across this run's task retries (computed
    # once on the driver), distinct from any other run's — the manifest
    # sweep below uses it to evict a dead run's late-landing shards
    run_tag = hashlib.sha256(os.urandom(16)).hexdigest()[:10]
    done_before = list_done_partitions(out_dir, partition_col) if resume else []
    skipped = {v: True for v in done_before}
    # clear STALE shards of incomplete (or, on resume=False, all)
    # partitions up front: a crashed run's partial files would otherwise
    # duplicate rows if the re-run's block layout differs
    done_dirs = {_part_dirname(partition_col, v) for v in done_before}
    for name in os.listdir(out_dir):
        d = os.path.join(out_dir, name)
        if not os.path.isdir(d) or name in done_dirs:
            continue
        for f in os.listdir(d):
            if f.endswith(".parquet") or f.startswith(".part-") or f == _DONE:
                os.remove(os.path.join(d, f))
    if done_before:
        non_null = [v for v in done_before if v is not None]
        drop_null = any(v is None for v in done_before)
        done_set = pa.array(non_null, type=pa.string())

        def drop_done(tb: pa.Table) -> pa.Table:
            col = tb[partition_col]
            # the SAME canonicalization the writer used for dirnames, so
            # bool/float/timestamp partitions compare correctly
            keep = pc.invert(
                pc.coalesce(pc.is_in(_canon_value_strings(col), value_set=done_set), False)
            )
            if drop_null:
                keep = pc.and_(keep, pc.is_valid(col))
            return tb.filter(keep)

        ds = ds.map_batches(drop_done, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)

    sink = _PartitionedParquetSink(out_dir, partition_col, MAX_ROWS_PER_FILE, run_tag)
    ds.write_datasink(sink)

    summary: dict[str, dict] = {}
    seen_returns: set = set()
    for r in sink.results:
        # a lineage-retried task re-returns the same shard names it
        # overwrote; dropping the duplicate RETURN (not just deduping
        # names) keeps the row count and the manifest consistent
        key = (r["part"], tuple(r["names"]))
        if key in seen_returns:
            continue
        seen_returns.add(key)
        info = summary.setdefault(r["part"], {"rows": 0, "names": set()})
        info["rows"] += int(r["rows"])
        info["names"].update(r["names"])
    for info in summary.values():
        info["files"] = len(info["names"])
    # the full pass succeeded: sweep alien shards, then mark each
    # partition written this run. The sweep evicts parquet files a
    # SIGKILLed prior run's surviving workers landed AFTER this run's
    # up-front clean (their names carry a different run nonce).
    for part, info in summary.items():
        d = os.path.join(out_dir, part)
        for f in os.listdir(d):
            if f.endswith(".parquet") and f not in info["names"]:
                os.remove(os.path.join(d, f))
        manifest = {"rows": info["rows"], "run": run_tag, "files": sorted(info["names"])}
        tmp = os.path.join(d, _DONE + ".tmp")
        with open(tmp, "w") as f:
            f.write(f"{info['rows']}\n")
            f.write(json.dumps(manifest) + "\n")
        os.replace(tmp, os.path.join(d, _DONE))
    # a dead run's surviving worker can also land a late shard in a
    # partition VALUE this run never writes (the corpus changed between
    # runs) — such a dir is in neither done_dirs nor summary, so neither
    # sweep above visits it, and readers of out_dir would see its
    # phantom rows forever (round-5 review). The pass succeeded, so any
    # parquet in a no-_DONE, not-written-this-run dir is alien: evict.
    for name in os.listdir(out_dir):
        d = os.path.join(out_dir, name)
        if not os.path.isdir(d) or name in done_dirs or name in summary:
            continue
        for f in os.listdir(d):
            if f.endswith(".parquet") or f.startswith(".part-"):
                os.remove(os.path.join(d, f))

    rows = [
        {
            "partition": _decode_part_dirname(part, partition_col),
            "rows": info["rows"],
            "files": info["files"],
            "skipped": False,
        }
        for part, info in sorted(summary.items())
    ]
    # skipped partitions report their TRUE counts from the _DONE marker
    # they were skipped on (round-5 review — rows=None made a resumed
    # run's rows_out under-report the surviving corpus, 0 on a full
    # resume); an unreadable marker degrades to None, never a wrong count
    rows += [
        {"partition": v, "rows": r, "files": fl, "skipped": True}
        for v in sorted(skipped, key=str)
        for r, fl in (_done_partition_counts(out_dir, partition_col, v),)
    ]
    return pd.DataFrame(rows, columns=["partition", "rows", "files", "skipped"])


def _done_partition_counts(out_dir: str, col: str, value) -> tuple:
    """(rows, files) recorded in a completed partition's ``_DONE`` marker
    (count line + JSON manifest line), or (None, None) when unreadable."""
    try:
        path = os.path.join(out_dir, _part_dirname(col, value), _DONE)
        with open(path) as f:
            first = f.readline().strip()
            second = f.readline().strip()
        n = int(first)
        files = None
        if second:
            names = json.loads(second).get("files") or []
            files = len(names) if names else None
        return n, files
    except Exception:
        return None, None
