"""Correctness oracles for one suite op, built from the generator's manifest.

The expectation is computed once per run, in the generator process, from
the manifest's planted defect keys joined to the generated files with plain
pyarrow/pandas (no engine code). An op's output is then checked against it:

- the exact violating keys of every kind (duplicate rows appear twice);
- per-partition verdicts and metrics of the row-rule, uniqueness,
  referential and min-rows checks;
- which stats verdicts fail (only the null-language partition's ``lang``
  column has nulls) and that every (partition, column) pair has one;
- drift fails on exactly the drifted language and the ``<null>`` partition
  (absent from the baseline, so ``missing_in_baseline``);
- every schema-drift verdict passes.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

KEY = ["repo", "path", "commit"]
PART = "lang"
NULL_PART = "<null>"
COLUMNS = KEY + [PART, "content"]
CHECKS = {"stats", "min_rows", "rowrules", "uniqueness", "referential", "drift", "schema_drift"}
ROW_CHECK_KINDS = {
    "rowrules": ("null_lang", "empty_content"),
    "uniqueness": ("duplicate_key",),
    "referential": ("orphan_repo",),
}


def expected_from_corpus(corpus_dir: str, manifest) -> dict:
    """JSON-ready expectation for the corpus under ``corpus_dir``."""
    df = pq.read_table(corpus_dir, columns=COLUMNS).to_pandas()
    df[PART] = df[PART].fillna(NULL_PART)
    keys = list(zip(df["repo"], df["path"], df["commit"]))
    members = {
        "duplicate_key": {tuple(k) for k in manifest.duplicate_keys},
        "null_lang": {tuple(k) for k in manifest.null_lang_rows},
        "empty_content": {tuple(k) for k in manifest.empty_content_rows},
    }
    orphans = set(manifest.orphan_repos)
    violations: dict[str, list] = {kind: [] for kind in (*members, "orphan_repo")}
    per_partition: dict[str, dict] = {check: defaultdict(int) for check in ROW_CHECK_KINDS}
    check_of = {kind: check for check, kinds in ROW_CHECK_KINDS.items() for kind in kinds}
    for key, part, repo in zip(keys, df[PART], df["repo"]):
        kinds = [kind for kind, s in members.items() if key in s]
        if repo in orphans:
            kinds.append("orphan_repo")
        for kind in kinds:
            violations[kind].append(list(key))
            per_partition[check_of[kind]][part] += 1
    has_null = bool((df[PART] == NULL_PART).any())
    return {
        "rows": len(df),
        "rows_per_partition": {str(p): int(n) for p, n in df[PART].value_counts().items()},
        "violations": {kind: sorted(v) for kind, v in violations.items()},
        "per_partition": {c: dict(v) for c, v in per_partition.items()},
        "stats_failed": [[NULL_PART, PART]] if has_null else [],
        "drift_failed": sorted({manifest.drift_lang} | ({NULL_PART} if has_null else set())),
    }


def read_violations(result) -> pa.Table:
    """Every violation row of a ``SuiteResult``: from the spill directory
    when the suite spilled, else from the driver-held tables."""
    if result.violations_dir:
        return pq.read_table(result.violations_dir)
    tables = [t for t in result.violations.values() if "violation_kind" in t.column_names]
    return pa.concat_tables(tables) if tables else pa.table({})


def check_violations(violations: pa.Table, exp: dict) -> list[str]:
    problems = []
    got: dict[str, list] = defaultdict(list)
    if violations.num_rows:
        cols = [violations[c].to_pylist() for c in KEY + ["violation_kind", "content_sha256"]]
        for repo, path, commit, kind, sha in zip(*cols):
            got[kind].append([repo, path, commit])
            if not (isinstance(sha, str) and len(sha) == 64):
                problems.append(f"{kind} row {repo}/{path} has content_sha256 {sha!r}")
    for kind, want in exp["violations"].items():
        have = sorted(got.pop(kind, []))
        if have != want:
            missing = [k for k in want if k not in have][:3]
            extra = [k for k in have if k not in want][:3]
            problems.append(
                f"{kind}: {len(have)} rows, expected {len(want)}; missing {missing}, unexpected {extra}"
            )
    if got:
        problems.append(f"unexpected violation kinds {sorted(got)}")
    return problems


def check_verdicts(verdicts: pd.DataFrame, exp: dict) -> list[str]:
    problems = []
    parts = exp["rows_per_partition"]
    checks = set(verdicts["check"])
    if checks != CHECKS:
        problems.append(f"verdict checks {sorted(checks)}, expected {sorted(CHECKS)}")

    def rows(check: str) -> dict:
        sub = verdicts[verdicts["check"] == check]
        return {
            (r.partition, r.column): (bool(r.passed), float(r.metric))
            for r in sub.itertuples(index=False)
        }

    for check in ROW_CHECK_KINDS:
        per = exp["per_partition"][check]
        want = {(p, ""): (per.get(p, 0) == 0, float(per.get(p, 0))) for p in parts}
        have = rows(check)
        if have != want:
            diff = sorted(k for k in set(have) | set(want) if have.get(k) != want.get(k))[:3]
            problems.append(f"{check} verdicts differ at {[(k, have.get(k), want.get(k)) for k in diff]}")
    want_min = {(p, ""): (True, float(n)) for p, n in parts.items()}
    if rows("min_rows") != want_min:
        problems.append("min_rows verdicts differ from the per-partition row counts")
    stats = rows("stats")
    want_cells = {(p, c) for p in parts for c in COLUMNS}
    if set(stats) != want_cells:
        problems.append(f"stats verdicts cover {len(stats)} cells, expected {len(want_cells)}")
    failed = sorted([p, c] for (p, c), (ok, _) in stats.items() if not ok)
    if failed != exp["stats_failed"]:
        problems.append(f"stats verdicts fail on {failed}, expected {exp['stats_failed']}")
    drift_failed = sorted(p for (p, _), (ok, _) in rows("drift").items() if not ok)
    if drift_failed != exp["drift_failed"]:
        problems.append(f"drift fails on {drift_failed}, expected {exp['drift_failed']}")
    if not all(ok for ok, _ in rows("schema_drift").values()):
        problems.append("a schema_drift verdict failed")
    return problems


def check_output(verdicts: pd.DataFrame, violations: pa.Table, exp: dict) -> list[str]:
    return check_verdicts(verdicts, exp) + check_violations(violations, exp)


def output_digest(verdicts: pd.DataFrame, violations: pa.Table) -> str:
    """Digest of the verdict table plus the violation rows in a canonical
    order (spill shards come back in file order, driver tables in scan
    order; both must digest alike)."""
    h = hashlib.sha256(verdicts.to_csv(index=False).encode())
    if violations.num_rows:
        ordered = violations.sort_by([(c, "ascending") for c in sorted(violations.column_names)])
        h.update(ordered.select(sorted(ordered.column_names)).to_pandas().to_csv(index=False).encode())
    return h.hexdigest()
