"""Deterministic synthetic source-code corpus (BASELINE.json input_hint).

Schema: ``repo:string, path:string, commit:string, lang:string,
content:string`` — generated with seeded per-row RNG so any slice is
reproducible independent of partitioning/parallelism, plus a ``repos`` dim
table (broadcast side of the referential check).

Planted defects (FIXTURES.md F1) are toggleable and exactly bookkept: the
generator records the precise violating keys so tests assert the engine
finds exactly those rows — the engine analog of the reference's
ground-truth labels parsed from the data itself (``models/drain.py:18-19``).

Zipfian ``lang`` and ``repo`` marginals exercise skew-aware paths; content
length is long-tailed (lognormal) to drive size-bucket histograms.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

LANGS = ["python", "javascript", "java", "go", "cpp", "ruby", "rust", "php"]
_LANG_EXT = {
    "python": "py",
    "javascript": "js",
    "java": "java",
    "go": "go",
    "cpp": "cc",
    "ruby": "rb",
    "rust": "rs",
    "php": "php",
}
_WORDS = (
    "def class return import for while if else try except self value result "
    "data index buffer stream token parse emit node tree map filter reduce "
    "async await fn let const var struct impl trait public static void int"
).split()


@dataclass
class DefectSpec:
    """Fractions of rows carrying each planted defect (0 disables)."""

    duplicate_frac: float = 0.0  # duplicated (repo, path, commit) keys
    orphan_frac: float = 0.0  # repo missing from the repos dim
    null_lang_frac: float = 0.0  # null lang (schema violation)
    empty_content_frac: float = 0.0  # empty content (malformed)
    drift_lang: str | None = None  # this lang's content-length shifts
    drift_scale: float = 3.0  # multiplier on drifted lengths


@dataclass
class CorpusManifest:
    """Exact expected violations, recorded at generation time."""

    n_rows: int = 0
    duplicate_keys: list = field(default_factory=list)  # [(repo, path, commit)]
    orphan_repos: list = field(default_factory=list)  # repo names absent from dim
    null_lang_rows: list = field(default_factory=list)  # row ids (repo,path,commit)
    empty_content_rows: list = field(default_factory=list)
    drift_lang: str | None = None

    def save(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.__dict__, f, indent=1)

    @classmethod
    def load(cls, path: str) -> "CorpusManifest":
        with open(path) as f:
            return cls(**json.load(f))


def _zipf_probs(n: int) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1) ** 1.2
    return w / w.sum()


def _gen_rows(
    start: int, count: int, seed: int, n_repos: int, defects: DefectSpec
) -> dict[str, np.ndarray]:
    """Rows [start, start+count) — per-row determinism via row-indexed RNG."""
    rng = np.random.RandomState((seed * 1_000_003 + start) % (2**31 - 1))
    lang_p = _zipf_probs(len(LANGS))
    repo_p = _zipf_probs(n_repos)

    lang_idx = rng.choice(len(LANGS), size=count, p=lang_p)
    repo_idx = rng.choice(n_repos, size=count, p=repo_p)
    langs = np.array(LANGS, dtype=object)[lang_idx]
    repos = np.array([f"org{i % 37}/repo{i}" for i in range(n_repos)], dtype=object)[repo_idx]

    # content: fake source lines; length lognormal, drifted for drift_lang
    base_len = rng.lognormal(mean=4.2, sigma=0.8, size=count)
    if defects.drift_lang is not None:
        drift_mask = langs == defects.drift_lang
        base_len = np.where(drift_mask, base_len * defects.drift_scale, base_len)
    n_tokens = np.clip(base_len.astype(int), 3, 4000)

    words = np.array(_WORDS, dtype=object)
    contents = np.empty(count, dtype=object)
    paths = np.empty(count, dtype=object)
    commits = np.empty(count, dtype=object)
    hexchars = np.array(list("0123456789abcdef"))
    for i in range(count):
        k = n_tokens[i]
        toks = words[rng.randint(0, len(words), size=k)]
        contents[i] = " ".join(toks)
        ext = _LANG_EXT[langs[i]] if langs[i] is not None else "txt"
        paths[i] = f"src/m{rng.randint(0, 50)}/f{start + i}.{ext}"
        commits[i] = "".join(hexchars[rng.randint(0, 16, size=40)])
    return {
        "repo": repos,
        "path": paths,
        "commit": commits,
        "lang": langs,
        "content": contents,
    }


def _build_shard(args: tuple) -> dict:
    """Generate + defect-plant + write ONE shard; returns its manifest
    fragment. Top-level (picklable) so shards can build in parallel;
    per-shard seeding keeps output byte-identical at any worker count."""
    out_dir, start, count, part, seed, n_repos, defects = args
    cols = _gen_rows(start, count, seed, n_repos, defects)
    frag: dict = {"duplicate_keys": [], "orphan_repos": [], "null_lang_rows": [], "empty_content_rows": []}

    # plant row-level defects deterministically within the shard, on
    # DISJOINT row pools (key-altering defects first) so the manifest's
    # recorded keys stay exact
    local = np.random.RandomState(seed + 7919 * (part + 1))
    n = count
    perm = local.permutation(n)
    cursor = 0

    def take(frac: float) -> np.ndarray:
        nonlocal cursor
        if frac <= 0:
            return np.empty(0, dtype=int)
        k = max(1, int(n * frac))
        idx = perm[cursor : cursor + k]
        cursor += k
        return idx

    dup_dst = take(defects.duplicate_frac)
    dup_src = perm[cursor : cursor + len(dup_dst)]
    cursor += len(dup_dst)  # sources are reserved too: no later defect may alter their keys
    orphan_idx = take(defects.orphan_frac)
    null_idx = take(defects.null_lang_frac)
    empty_idx = take(defects.empty_content_frac)

    for s, d in zip(dup_src, dup_dst):
        cols["repo"][d] = cols["repo"][s]
        cols["path"][d] = cols["path"][s]
        cols["commit"][d] = cols["commit"][s]
        frag["duplicate_keys"].append([cols["repo"][s], cols["path"][s], cols["commit"][s]])

    for j, i in enumerate(orphan_idx):
        ghost = f"ghost/repo{part}_{j}"
        cols["repo"][i] = ghost
        frag["orphan_repos"].append(ghost)

    for i in null_idx:
        cols["lang"][i] = None
        frag["null_lang_rows"].append([cols["repo"][i], cols["path"][i], cols["commit"][i]])

    for i in empty_idx:
        cols["content"][i] = ""
        frag["empty_content_rows"].append([cols["repo"][i], cols["path"][i], cols["commit"][i]])

    tbl = pa.Table.from_pydict({k: pa.array(v, type=pa.string()) for k, v in cols.items()})
    pq.write_table(tbl, f"{out_dir}/corpus/part-{part:05d}.parquet")
    return frag


def generate_corpus(
    out_dir: str,
    n_rows: int = 10_000,
    n_repos: int = 200,
    seed: int = 42,
    defects: DefectSpec | None = None,
    rows_per_file: int = 5_000,
    n_jobs: int | None = None,
) -> CorpusManifest:
    """Write ``corpus/part-*.parquet`` + ``repos.parquet`` + manifest.

    Output is sharded (one file per row range) so validation runs can
    resume per shard; generation is chunked so memory stays flat at any
    n_rows, and shards build in parallel processes (``n_jobs``; defaults
    to the CPU count for large corpora) with byte-identical output at any
    worker count (per-shard seeded RNG)."""
    defects = defects or DefectSpec()
    os.makedirs(f"{out_dir}/corpus", exist_ok=True)
    man = CorpusManifest(n_rows=n_rows, drift_lang=defects.drift_lang)

    all_repos = sorted({f"org{i % 37}/repo{i}" for i in range(n_repos)})

    tasks = []
    for part, start in enumerate(range(0, n_rows, rows_per_file)):
        count = min(rows_per_file, n_rows - start)
        tasks.append((out_dir, start, count, part, seed, n_repos, defects))

    if n_jobs is None:
        n_jobs = min(os.cpu_count() or 1, 16) if n_rows >= 100_000 else 1
    if n_jobs > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            frags = list(pool.map(_build_shard, tasks, chunksize=4))
    else:
        frags = [_build_shard(t) for t in tasks]

    for frag in frags:  # shard order = deterministic manifest order
        man.duplicate_keys.extend(frag["duplicate_keys"])
        man.orphan_repos.extend(frag["orphan_repos"])
        man.null_lang_rows.extend(frag["null_lang_rows"])
        man.empty_content_rows.extend(frag["empty_content_rows"])

    pq.write_table(
        pa.Table.from_pydict({"repo": pa.array(all_repos, type=pa.string())}),
        f"{out_dir}/repos.parquet",
    )
    man.save(f"{out_dir}/manifest.json")
    return man
