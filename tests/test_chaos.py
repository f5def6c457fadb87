"""Chaos tests (round-4 verdict #9): a REAL SIGKILL mid-write — not a
simulated artifact deletion — against the resumable partitioned writer
and the sharded validation suite, at sf0.1 / multi-shard scale. The
contracts under test:

- a resumed run never recomputes (or even touches) a partition/shard
  whose ``_DONE`` marker exists: its files stay byte-identical;
- the resumed run's final output is content-identical to an
  uninterrupted run's;
- the killed run leaves no marker for anything it did not finish
  (markers are written atomically after completion).

Each killed run is a subprocess owning its own Ray session; a watchdog
thread inside it SIGKILLs the process the moment enough progress exists
to make the assertion meaningful — abrupt death with files mid-flight,
exactly the failure a 100 TB run must survive.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import textwrap

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SF01_DOCS = "/root/testdata/sf0.1/documents.parquet"


def _dir_hashes(root: str) -> dict:
    out = {}
    for dirpath, _, files in os.walk(root):
        for f in files:
            p = os.path.join(dirpath, f)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, root)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _run_killed(script: str, *args: str, timeout: int = 240) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=REPO, RAY_DEDUP_LOGS="0")
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
        cwd=REPO,
    )


def _quiesce(root: str, settle_s: float = 2.0, timeout_s: float = 60.0) -> None:
    """Wait until the killed run's surviving Ray WORKERS stop landing
    files under ``root``. SIGKILL hits only the driver; its session's
    workers keep completing in-flight writes for several seconds until
    the raylet reaps them — racing the resume run's assertions (and,
    before the writer's manifest sweep existed, silently duplicating
    rows). Quiesce = the recursive (path, mtime, size) snapshot is
    stable for ``settle_s``."""
    import time

    def snap():
        out = []
        for dirpath, _, files in os.walk(root):
            for f in files:
                p = os.path.join(dirpath, f)
                try:
                    st = os.stat(p)
                    out.append((p, st.st_mtime_ns, st.st_size))
                except FileNotFoundError:
                    out.append((p, -1, -1))
        return sorted(out)

    deadline = time.monotonic() + timeout_s
    prev, prev_t = snap(), time.monotonic()
    while time.monotonic() < deadline:
        time.sleep(0.25)
        cur = snap()
        now = time.monotonic()
        if cur != prev:
            prev, prev_t = cur, now
        elif now - prev_t >= settle_s:
            return
    raise AssertionError(f"{root} never quiesced within {timeout_s}s after the kill")


WRITER_KILL_SCRIPT = textwrap.dedent(
    """
    import os, signal, sys, threading, time
    import ray
    ray.init(address="local", num_cpus=4, include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    import ray.data as rd
    from anomalydetection_ray.sources.writer import write_partitioned

    out, docs = sys.argv[1], sys.argv[2]
    done0 = {d for d in os.listdir(out) if os.path.exists(os.path.join(out, d, "_DONE"))}

    def watchdog():
        while True:
            time.sleep(0.05)
            for d in os.listdir(out):
                p = os.path.join(out, d)
                if d in done0 or not os.path.isdir(p):
                    continue
                if any(f.endswith(".parquet") for f in os.listdir(p)):
                    os.kill(os.getpid(), signal.SIGKILL)  # mid-write, shards in flight

    threading.Thread(target=watchdog, daemon=True).start()

    def slow(tb):
        time.sleep(0.4)  # widen the kill window: rows untouched
        return tb

    ds = rd.read_parquet(docs).repartition(16).map_batches(
        slow, batch_format="pyarrow", batch_size=None
    )
    write_partitioned(ds, out, "lang")
    print("COMPLETED")  # must be unreachable
    """
)


def test_writer_survives_sigkill_mid_write(ray_session, tmp_path):
    import pandas as pd
    import ray.data as rd

    from anomalydetection_ray.sources.writer import list_done_partitions, write_partitioned

    out = str(tmp_path / "sink")
    ref = str(tmp_path / "ref")
    os.makedirs(out, exist_ok=True)

    # phase 1 (complete): only de+en rows -> those two partitions _DONE
    full = rd.read_parquet(SF01_DOCS)
    de_en = full.filter(lambda r: r["lang"] in ("de", "en"))
    write_partitioned(de_en, out, "lang")
    assert sorted(list_done_partitions(out, "lang")) == ["de", "en"]
    done_hashes = {
        d: _dir_hashes(os.path.join(out, d)) for d in ("lang=de", "lang=en")
    }

    # phase 2: full resume run, SIGKILLed while writing the remaining langs
    proc = _run_killed(WRITER_KILL_SCRIPT, out, SF01_DOCS)
    assert proc.returncode == -9, (proc.returncode, proc.stdout[-500:], proc.stderr[-2000:])
    assert "COMPLETED" not in proc.stdout
    _quiesce(out)
    # nothing new marked done; the done partitions are untouched bytes
    assert sorted(list_done_partitions(out, "lang")) == ["de", "en"]
    for d, want in done_hashes.items():
        assert _dir_hashes(os.path.join(out, d)) == want, f"{d} touched by killed run"
    # the kill left unmarked partial shards behind (that's the point)
    partial = [
        d for d in os.listdir(out)
        if d.startswith("lang=") and d not in done_hashes
        and any(f.endswith(".parquet") for f in os.listdir(os.path.join(out, d)))
    ]
    assert partial, "kill landed before any partial shard — widen the window"

    # phase 3 (resume, in-process): completes; done partitions still untouched
    summary = write_partitioned(rd.read_parquet(SF01_DOCS), out, "lang")
    assert set(summary[summary["skipped"]]["partition"]) == {"de", "en"}
    for d, want in done_hashes.items():
        assert _dir_hashes(os.path.join(out, d)) == want, f"{d} recomputed on resume"

    # final content identical to an uninterrupted single run
    write_partitioned(rd.read_parquet(SF01_DOCS), ref, "lang")

    def canon(path):
        t = rd.read_parquet(path).to_pandas()
        return t.sort_values("doc_id").reset_index(drop=True)[sorted(t.columns)]

    a, b = canon(out), canon(ref)
    pd.testing.assert_frame_equal(a, b)
    assert len(a) == full.count()


SUITE_KILL_SCRIPT = textwrap.dedent(
    """
    import os, signal, sys, threading, time
    import ray
    ray.init(address="local", num_cpus=4, include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    from anomalydetection_ray.pipelines.validate import SuiteConfig, run_suite_sharded

    corpus, out, repos = sys.argv[1], sys.argv[2], sys.argv[3]
    os.makedirs(out, exist_ok=True)

    def watchdog():
        while True:
            time.sleep(0.05)
            markers = [
                d for d in os.listdir(out)
                if d.endswith("-partials") and os.path.exists(os.path.join(out, d, "_DONE"))
            ]
            if len(markers) >= 2:
                os.kill(os.getpid(), signal.SIGKILL)

    threading.Thread(target=watchdog, daemon=True).start()
    run_suite_sharded(corpus, out, SuiteConfig(repos_dim_path=repos), n_shards=8)
    print("COMPLETED")  # must be unreachable
    """
)


def test_sharded_suite_survives_sigkill_mid_run(ray_session, tmp_path):
    from anomalydetection_ray.corpus import DefectSpec, generate_corpus
    from anomalydetection_ray.pipelines.validate import SuiteConfig, run_suite_sharded
    from anomalydetection_ray.state import RunState

    d = str(tmp_path / "corpus40k")
    generate_corpus(
        d,
        n_rows=40_000,
        n_repos=300,
        seed=7,
        defects=DefectSpec(
            duplicate_frac=0.004, orphan_frac=0.003, null_lang_frac=0.002,
            empty_content_frac=0.002, drift_lang="go", drift_scale=3.0,
        ),
        rows_per_file=5_000,
    )
    out = str(tmp_path / "killed")
    cfg = SuiteConfig(repos_dim_path=f"{d}/repos.parquet")

    proc = _run_killed(SUITE_KILL_SCRIPT, f"{d}/corpus", out, f"{d}/repos.parquet")
    assert proc.returncode == -9, (proc.returncode, proc.stdout[-500:], proc.stderr[-2000:])
    assert "COMPLETED" not in proc.stdout
    _quiesce(out)

    state = RunState(out)
    done_units = sorted(
        u for u in os.listdir(out)
        if os.path.isdir(os.path.join(out, u)) and state.is_done_compat(u)
    )
    assert done_units, "kill landed before any shard checkpoint"
    assert not all(
        state.is_done_compat(f"shard-{i:04d}-partials") for i in range(8)
    ), "kill landed after every shard finished — tighten the trigger"
    done_hashes = {u: _dir_hashes(os.path.join(out, u)) for u in done_units}

    # resume to completion in-process; completed units byte-untouched
    res = run_suite_sharded(f"{d}/corpus", out, cfg, n_shards=8)
    for u, want in done_hashes.items():
        assert _dir_hashes(os.path.join(out, u)) == want, f"{u} recomputed on resume"

    # verdict-identical to an uninterrupted run in a fresh directory
    ref = run_suite_sharded(f"{d}/corpus", str(tmp_path / "ref"), cfg, n_shards=8)
    assert res.verdicts.equals(ref.verdicts)
    assert res.passed == ref.passed
    assert sorted(res.violations) == sorted(ref.violations)
    for k in res.violations:
        assert res.violations[k].num_rows == ref.violations[k].num_rows, k
