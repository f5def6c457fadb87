"""Distribution-drift detection: PSI + KS per partition vs a baseline
snapshot.

Reference analog: the SimCLR/VAE scorers score every row against trained
weights (``models/SimCLR_utils.py:142-161``, ``models/VAE_utils.py:214-235``);
the anomaly verdict thresholds the score (``end_to_end_prediction.py:447-451``).
Here the "model" is a baseline snapshot (per-partition histograms + KLL
sketches written by :func:`write_snapshot`); drifted partitions are the
anomaly signal. Scoring (PSI/KS over merged histograms) runs driver-side on
the tiny merged stats table.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from ..sketches.histogram import FixedHistogram, ks_statistic, psi


def write_snapshot(stats_df: pd.DataFrame, path: str) -> None:
    """Persist the merged stats table (checks/stats.py output, including
    sketch/hist bytes) as the immutable baseline artifact."""
    # dtype rides along so schema drift can diff the live schema against
    # the snapshot (checks/schema.py:spec_from_stats)
    cols = ["part", "column", "dtype", "count", "nulls", "hll", "kll", "hist"]
    # reindex, not []: an EMPTY corpus round-trips through Ray as a
    # column-less frame (round-5 review — write_baseline raised KeyError
    # instead of writing an empty snapshot, breaking the suite's own
    # empty-corpus-flows-through contract)
    tbl = pa.Table.from_pandas(stats_df.reindex(columns=cols), preserve_index=False)
    pq.write_table(tbl, path)


def load_snapshot(path: str) -> pd.DataFrame:
    return pq.read_table(path).to_pandas()


def partition_drift(
    current: pd.DataFrame,
    baseline: pd.DataFrame,
    column: str,
    psi_threshold: float = 0.25,
    ks_threshold: float = 0.2,
) -> pd.DataFrame:
    """Per-partition (psi, ks, passed) for one column vs baseline.

    Partitions present on one side only fail loudly (coverage drift) —
    the engine never silently passes an empty side (cf. the empty-histogram
    PSI pitfall found in verification).
    """
    cur = current[current["column"] == column].set_index("part")
    base = baseline[baseline["column"] == column].set_index("part")
    rows = []
    for part in sorted(set(cur.index) | set(base.index)):
        in_cur, in_base = part in cur.index, part in base.index
        if not (in_cur and in_base):
            rows.append(
                {
                    "part": part,
                    "column": column,
                    "psi": float("inf"),
                    "ks": float("inf"),
                    "passed": False,
                    "reason": "missing_in_current" if not in_cur else "missing_in_baseline",
                }
            )
            continue
        cb, bb = cur.loc[part, "hist"], base.loc[part, "hist"]
        if cb is None or bb is None:
            # the column was profiled without hist_edges: say so instead
            # of an opaque pickle TypeError after the expensive scans
            raise ValueError(
                f"no histogram recorded for column {column!r} in the "
                f"{'current' if cb is None else 'baseline'} stats — add the column to "
                "hist_edges when profiling"
            )
        ch = FixedHistogram.from_bytes(cb)
        bh = FixedHistogram.from_bytes(bb)
        p, k = psi(bh, ch), ks_statistic(bh, ch)
        rows.append(
            {
                "part": part,
                "column": column,
                "psi": p,
                "ks": k,
                "passed": bool(p <= psi_threshold and k <= ks_threshold),
                "reason": "",
            }
        )
    return pd.DataFrame(rows)
