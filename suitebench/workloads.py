"""The three suite workloads and the corpus shape they share.

Every workload validates a generated copy of the same corpus shape
(``corpus.generate_corpus``: 500 Zipf-distributed repos, 8 Zipf languages,
log-normal content lengths). What differs is the planted defect mix and the
suite driver, and each difference exercises a different layer (see
``README.md`` for the metric-to-workload map):

- ``suite-clean``: rare defects, one drifted language. The fused content
  scan dominates the op and violation handling is almost idle, so a
  scan-kernel gain shows here and a spill or checkpoint change must not.
- ``suite-spill``: 25% duplicate keys and a driver violation budget below
  the candidate count, so violations leave through worker-written spill
  shards, the distributed duplicate recount, a global sort and a parquet
  write. The adversarial case: a gain there must not cost ``suite-clean``.
- ``suite-sharded``: ``run_suite_sharded`` over the ``suite-clean`` corpus
  shape. Per-shard pipelines and checkpoints dominate, so a change to the
  executor or the checkpoint layer shows here.
"""

from __future__ import annotations

from dataclasses import dataclass

# 24k rows in 8 files: with Ray on one CPU a clean op (fresh run plus
# resume) costs about 3.5 CPU seconds. The sharded workload halves that
# corpus (12k rows, 4 files, one shard each) because its per-shard
# pipelines cost about 3x a clean op per row. Sized so that a run fits
# several ops in its window while the 70 runs of a full three-workload
# measurement stay inside its time budget, also when the host is busy.
ROWS = 24_000
FILES = 8
N_REPOS = 500
# rare planted defects shared by every workload, and the drifted language
ORPHAN_FRAC = 0.001
NULL_LANG_FRAC = 0.0005
EMPTY_CONTENT_FRAC = 0.0005
DRIFT_LANG = "go"
# the drift baseline is one fixed "last month" corpus, shared by every
# seed; it is built once per checkout and cached
BASELINE_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    sharded: bool
    duplicate_frac: float
    # None keeps SuiteConfig's default budget
    max_driver_violation_rows: int | None = None
    rows: int = ROWS
    files: int = FILES


WORKLOADS = {
    w.name: w
    for w in (
        Workload("suite-clean", sharded=False, duplicate_frac=0.001),
        Workload(
            "suite-spill", sharded=False, duplicate_frac=0.25, max_driver_violation_rows=1_000
        ),
        Workload("suite-sharded", sharded=True, duplicate_frac=0.001, rows=ROWS // 2, files=FILES // 2),
    )
}


def defect_spec(w: Workload):
    from anomalydetection_ray.corpus import DefectSpec

    return DefectSpec(
        duplicate_frac=w.duplicate_frac,
        orphan_frac=ORPHAN_FRAC,
        null_lang_frac=NULL_LANG_FRAC,
        empty_content_frac=EMPTY_CONTENT_FRAC,
        drift_lang=DRIFT_LANG,
    )


def corpus_seed(seed: int) -> int:
    """Map any integer seed into the generator's RandomState range."""
    return seed % 1_000_003


def suite_config(w: Workload, repos_dim_path: str):
    from anomalydetection_ray.pipelines.validate import SuiteConfig

    cfg = SuiteConfig(repos_dim_path=repos_dim_path)
    if w.max_driver_violation_rows is not None:
        cfg.max_driver_violation_rows = w.max_driver_violation_rows
    return cfg
