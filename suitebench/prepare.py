"""Generate one run's inputs in a process of their own, outside timing.

    python3 suitebench/prepare.py --workload suite-clean --seed 3 \
        --rows 40000 --files 8 --dir <run dir> --baseline <snapshot path>

Writes ``<dir>/corpus/part-*.parquet``, ``<dir>/repos.parquet``,
``<dir>/manifest.json`` (``corpus.generate_corpus``) and
``<dir>/expected.json`` (the oracle, see ``oracle.py``). Builds the drift
baseline snapshot at ``--baseline`` when it is missing, from a fixed-seed
defect-free corpus of ``workloads.ROWS`` rows. Prints one JSON line with the
host sentinels and the generation time.

The caller caps BLAS and numpy threads in this process's environment, so
the matmul sentinel measures one core.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from suitebench.oracle import expected_from_corpus  # noqa: E402
from suitebench.workloads import (  # noqa: E402
    BASELINE_SEED,
    FILES,
    N_REPOS,
    ROWS,
    WORKLOADS,
    corpus_seed,
    defect_spec,
)


def _median_time(fn, reps: int = 5) -> float:
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def host_sentinels() -> dict:
    """A one-core matmul (compute) and a 64 MB array copy (DRAM bandwidth):
    a slow run with slow sentinels points at the host, not the code."""
    import numpy as np

    a = np.random.default_rng(0).random((600, 600))
    a @ a
    src = np.ones(8 << 20)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    copy_s = _median_time(lambda: np.copyto(dst, src))
    return {
        "matmul_600_s": _median_time(lambda: a @ a),
        "dram_copy_gbps": 2 * src.nbytes / copy_s / 1e9,
    }


def build_baseline(path: str) -> None:
    """Drift baseline: per-partition stats of a defect-free corpus, computed
    in process with the suite's own partial and merge kernels and written
    with ``write_snapshot`` (the format ``write_baseline`` produces)."""
    import pyarrow.parquet as pq

    from anomalydetection_ray.checks.drift import write_snapshot
    from anomalydetection_ray.checks.stats import make_stats_partial_fn, merge_partials_to_stats
    from anomalydetection_ray.corpus import DefectSpec, generate_corpus
    from anomalydetection_ray.pipelines.validate import SuiteConfig

    cfg = SuiteConfig()
    tmp = f"{path}.tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        generate_corpus(
            tmp, n_rows=ROWS, n_repos=N_REPOS, seed=BASELINE_SEED, defects=DefectSpec(),
            rows_per_file=ROWS // FILES, n_jobs=1,
        )
        files = sorted(os.path.join(tmp, "corpus", f) for f in os.listdir(os.path.join(tmp, "corpus")))
        cols = pq.read_schema(files[0]).names
        partial = make_stats_partial_fn(
            cols, [cfg.partition_by], cfg.hll_p, cfg.kll_k, {cfg.content_col: cfg.hist_edges}
        )
        stats = merge_partials_to_stats([partial(pq.read_table(f)) for f in files])
        write_snapshot(stats, tmp + ".parquet")
        os.replace(tmp + ".parquet", path)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rows", type=int, required=True)
    ap.add_argument("--files", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--baseline", required=True)
    args = ap.parse_args()
    w = WORKLOADS[args.workload]

    out = {"host": host_sentinels()}
    from anomalydetection_ray.corpus import generate_corpus

    t = time.perf_counter()
    man = generate_corpus(
        args.dir, n_rows=args.rows, n_repos=N_REPOS, seed=corpus_seed(args.seed),
        defects=defect_spec(w), rows_per_file=math.ceil(args.rows / args.files), n_jobs=1,
    )
    out["generate_s"] = time.perf_counter() - t
    if not os.path.exists(args.baseline):
        t = time.perf_counter()
        build_baseline(args.baseline)
        out["baseline_s"] = time.perf_counter() - t
    exp = expected_from_corpus(os.path.join(args.dir, "corpus"), man)
    with open(os.path.join(args.dir, "expected.json"), "w") as f:
        json.dump(exp, f)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
