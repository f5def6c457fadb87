"""Closed-loop benchmark of the validation suite (``pipelines.validate``).

    python3 suitebench/run.py --workload suite-clean --seed 1 --seconds 10 --trace 0

One client: each op starts when the previous one returns. An op is a fresh
suite run over the generated corpus (timed as ``suite_s``) followed by a
resume after part of its checkpoints are invalidated (timed as
``resume_s``). The engine is called only through its public functions, on a
local Ray cluster with ``num_cpus`` = ``nproc``.

Per run: the inputs are generated from ``--seed`` in a separate process
(``prepare.py``); set-up (package import, ``ray.init`` and one untimed
warm-up op) is repeated ``SETUP_REPEATS`` times; ops then run for
``--seconds`` (at least ``MIN_OPS``); every op's output is checked against
the oracle outside timing (``oracle.py``). With ``--trace 1`` ops alternate
traced and untraced and the per-layer metrics are reported instead
(``layers.py``). Every op runs under a timeout; an op that hangs, raises or
fails a check counts as failed, and the run still prints its result.

stdout ends with two JSON lines: ``{"details": ...}`` (op times, set-up
samples, host sentinels, problems) and the result object. Spans of a traced
run are written to ``.suitebench_work/spans/``.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import nullcontext

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from suitebench import layers, oracle  # noqa: E402
from suitebench.spans import Tracer, patched  # noqa: E402
from suitebench.workloads import FILES, ROWS, WORKLOADS, suite_config  # noqa: E402

T_START = time.perf_counter()
HARD_LIMIT_S = 170.0  # a run must end within 180 s
RESERVE_S = 20.0  # kept for the post-loop checks, Ray shutdown and output
OP_TIMEOUT_S = 60.0
MIN_OPS = 3
# Set-up is dominated by cold worker spawn and imports (a first op about
# 2.8 s slower than a warm one with Ray on one CPU); two full set-ups per
# run keep the 70 runs of a full three-workload measurement inside its
# time budget.
SETUP_REPEATS = 2
OBJECT_STORE_BYTES = 512 << 20
# AF_UNIX socket paths under Ray's temp dir must stay below 107 bytes
MAX_RAY_TEMP_DIR_LEN = 45
WORK_DIR = os.path.join(ROOT, ".suitebench_work")


class OpTimeout(Exception):
    pass


def run_bounded(fn, timeout: float):
    """``fn()`` on a daemon thread; raises ``OpTimeout`` if it has not
    returned within ``timeout`` seconds, else returns or re-raises."""
    box: dict = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as e:  # handed to the caller below
            box["error"] = e

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(max(timeout, 0.0))
    if t.is_alive():
        raise OpTimeout(f"no return within {timeout:.0f} s")
    if "error" in box:
        raise box["error"]
    return box["value"]


def remaining_s() -> float:
    return HARD_LIMIT_S - (time.perf_counter() - T_START)


def dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files
    )


def _proc_stat(pid: str) -> tuple[int, float]:
    """(parent pid, CPU seconds) from ``/proc/<pid>/stat``; the CPU seconds
    are utime + stime + cutime + cstime, so a descendant that exited and
    was waited for stays counted, in its parent's children fields."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return int(fields[1]), sum(int(x) for x in fields[11:15]) / os.sysconf("SC_CLK_TCK")


def tree_cpu_s() -> float:
    """CPU seconds used so far by this process and its descendants (the
    Ray head processes and workers). Unlike wall time, CPU time leaves out
    the time the hypervisor stole a virtual CPU from this guest."""
    stats = {}
    for pid in os.listdir("/proc"):
        if pid.isdigit():
            try:
                stats[int(pid)] = _proc_stat(pid)
            except (OSError, IndexError, ValueError):
                continue  # exited while listing
    children: dict[int, list[int]] = {}
    for pid, (ppid, _) in stats.items():
        children.setdefault(ppid, []).append(pid)
    total, todo = 0.0, [os.getpid()]
    while todo:
        pid = todo.pop()
        total += stats.get(pid, (0, 0.0))[1]
        todo.extend(children.get(pid, []))
    return total


def nproc() -> int:
    """CPUs as ``nproc`` reports them (it honours ``OMP_NUM_THREADS``, so a
    host that caps threads also caps the Ray cluster)."""
    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True, check=True).stdout)
    except (OSError, ValueError, subprocess.CalledProcessError):
        return len(os.sched_getaffinity(0))


def median_or_none(values):
    return statistics.median(values) if values else None


class Run:
    def __init__(self, args, run_dir: str):
        self.args = args
        self.w = WORKLOADS[args.workload]
        self.run_dir = run_dir
        self.corpus_dir = os.path.join(run_dir, "corpus")
        self.baseline = os.path.join(WORK_DIR, f"baseline-{ROWS}x{FILES}.parquet")
        self.num_cpus = nproc()
        self.tracer = Tracer()
        self.records: list[dict] = []  # one per op that returned and passed its checks
        self.problems: list[str] = []
        self.attempted = self.failed = 0
        self.digest: str | None = None
        self.last_output = None  # (SuiteResult, violations table) of the last good op
        self.hung = False
        self.details: dict = {"workload": self.w.name, "seed": args.seed}

    # -- inputs ---------------------------------------------------------

    def prepare(self) -> None:
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(p for p in (ROOT, env.get("PYTHONPATH")) if p)
        cmd = [
            sys.executable, os.path.join(ROOT, "suitebench", "prepare.py"),
            "--workload", self.w.name, "--seed", str(self.args.seed),
            "--rows", str(self.args.rows or self.w.rows), "--files", str(self.w.files),
            "--dir", self.corpus_dir, "--baseline", self.baseline,
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"input generation failed:\n{proc.stderr[-4000:]}")
        self.details.update(json.loads(proc.stdout.strip().splitlines()[-1]))
        with open(os.path.join(self.corpus_dir, "expected.json")) as f:
            self.expected = json.load(f)

    # -- Ray ------------------------------------------------------------

    def start_ray(self) -> None:
        import ray
        from ray.data import DataContext

        kwargs = dict(
            address="local", num_cpus=self.num_cpus, include_dashboard=False,
            logging_level="ERROR", log_to_driver=False, object_store_memory=OBJECT_STORE_BYTES,
        )
        temp = os.path.join(self.run_dir, "ray")
        if len(temp) <= MAX_RAY_TEMP_DIR_LEN:
            kwargs["_temp_dir"] = temp
        ray.init(**kwargs)
        DataContext.get_current().enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.WARNING)

    def stop_ray(self) -> None:
        import ray

        ray.shutdown()

    # -- one op ---------------------------------------------------------

    def suite(self, out_dir: str, resume: bool):
        from anomalydetection_ray.pipelines import validate

        corpus = os.path.join(self.corpus_dir, "corpus")
        if self.w.sharded:
            return validate.run_suite_sharded(corpus, out_dir, self.cfg, self.baseline, resume=resume)
        return validate.run_suite(corpus, out_dir, self.cfg, self.baseline, resume=resume)

    def resume_units(self, state, op_index: int) -> list[str]:
        """Checkpoint units the resume must recompute. Sharded: a quarter of
        the per-shard partial units, a different quarter each op. Per-pass
        suite: the fused scan (its uniqueness pass stays reused)."""
        if not self.w.sharded:
            return ["scan"]
        units = sorted(
            {r["unit"] for r in state.lineage() if "completed_at" in r and r["unit"].endswith("-partials")}
        )
        k = max(1, len(units) // 4)
        start = (self.args.seed + op_index * k) % len(units)
        return [units[(start + j) % len(units)] for j in range(k)]

    def op_body(self, label: str, traced: bool, with_resume: bool) -> dict:
        from anomalydetection_ray.state import RunState

        out_dir = os.path.join(self.run_dir, f"op-{label}")
        shutil.rmtree(out_dir, ignore_errors=True)
        tr = self.tracer
        span = tr.span if traced else (lambda name: nullcontext())
        rec: dict = {"label": label, "traced": traced, "out_dir": out_dir}
        with patched(self.op_targets) if traced else nullcontext():
            tr.op = f"{label}.fresh"
            tree0, cpu0, t0 = tree_cpu_s(), time.process_time(), time.perf_counter()
            with span("op.fresh"):
                rec["fresh"] = self.suite(out_dir, resume=False)
            rec["fresh_s"] = time.perf_counter() - t0
            rec["driver_cpu_s"] = time.process_time() - cpu0
            rec["fresh_cpu_s"] = tree_cpu_s() - tree0
            rec["bytes_written"] = dir_bytes(out_dir)
            rec["spill_shards"] = len(layers.spill_shards(out_dir))
            if with_resume:
                state = RunState(out_dir)
                for unit in self.resume_units(state, len(self.records)):
                    state.invalidate(unit)
                tr.op = f"{label}.resume"
                tree0, t0 = tree_cpu_s(), time.perf_counter()
                with span("op.resume"):
                    rec["resumed"] = self.suite(out_dir, resume=True)
                rec["resume_s"] = time.perf_counter() - t0
                rec["resume_cpu_s"] = tree_cpu_s() - tree0
        return rec

    def check(self, rec: dict) -> list[str]:
        problems, digests = [], []
        for phase in ("fresh", "resumed"):
            if phase not in rec:
                continue
            res = rec.pop(phase)
            viol = oracle.read_violations(res)
            problems += [f"{phase}: {p}" for p in oracle.check_output(res.verdicts, viol, self.expected)]
            digests.append(oracle.output_digest(res.verdicts, viol))
            if phase == "fresh":
                rec["violation_rows"] = viol.num_rows
                rec["output"] = (res, viol)
        if len(set(digests)) > 1:
            problems.append("resumed output differs from the fresh run's")
        if self.digest is None:
            self.digest = digests[0]
        elif digests[0] != self.digest:
            problems.append("output differs from the run's first op")
        return problems

    def run_op(self, label: str, traced: bool = False, with_resume: bool = True) -> dict | None:
        """Run, time and check one op; returns its record, or None if it failed."""
        self.attempted += 1
        timeout = min(OP_TIMEOUT_S, remaining_s() - RESERVE_S)
        try:
            rec = run_bounded(lambda: self.op_body(label, traced, with_resume), timeout)
            problems = self.check(rec)
        except OpTimeout as e:
            self.hung = True
            problems = [f"timed out: {e}"]
        except Exception as e:
            traceback.print_exc()
            problems = [f"raised {type(e).__name__}: {e}"]
        if problems:
            self.failed += 1
            self.problems += [f"op {label}: {p}" for p in problems]
            return None
        # the last good op's output feeds the run-level checks and the
        # spill finalize rerun; earlier outputs are dropped
        if self.last_output is not None:
            shutil.rmtree(self.last_output[0].out_dir, ignore_errors=True)
        self.last_output = rec.pop("output")
        return rec

    # -- the run --------------------------------------------------------

    def setup(self) -> list[dict]:
        """Import, then ``ray.init`` plus one untimed warm-up op, repeated;
        one sample (wall and process-tree CPU seconds) per repeat, each
        including the one-time import."""
        cpu0, t0 = tree_cpu_s(), time.perf_counter()
        from anomalydetection_ray.pipelines import validate  # noqa: F401

        import_wall, import_cpu = time.perf_counter() - t0, tree_cpu_s() - cpu0
        self.cfg = suite_config(self.w, os.path.join(self.corpus_dir, "repos.parquet"))
        self.op_targets = layers.op_targets(self.tracer)
        samples = []
        for k in range(1 if self.args.trace else SETUP_REPEATS):
            if k:
                self.stop_ray()
            cpu0, t0 = tree_cpu_s(), time.perf_counter()
            self.start_ray()
            if self.run_op(f"warmup{k}", with_resume=False) is None:
                break
            samples.append(
                {"wall_s": import_wall + time.perf_counter() - t0, "cpu_s": import_cpu + tree_cpu_s() - cpu0}
            )
            if self.hung:
                break
        return samples

    def measure(self) -> None:
        t0 = time.perf_counter()
        i = 0
        while not self.hung and remaining_s() - RESERVE_S > 0:
            traced = bool(self.args.trace) and i % 2 == 0
            n_traced = sum(r["traced"] for r in self.records)
            n_plain = len(self.records) - n_traced
            enough = (n_traced >= 2 and n_plain >= 2) if self.args.trace else len(self.records) >= MIN_OPS
            if time.perf_counter() - t0 >= self.args.seconds and enough:
                break
            if i >= MIN_OPS * 4 and not self.records:
                break  # every op fails: stop retrying
            rec = self.run_op(str(i), traced=traced)
            if rec is not None:
                self.records.append(rec)
            i += 1

    def post_checks(self) -> None:
        """Run-level checks outside timing: the per-row SHA-256 invariant
        on the last op's violations, and for the sharded driver, equality
        with the per-pass suite on the same corpus."""
        from anomalydetection_ray.pipelines import validate

        if self.last_output is None:
            return
        res, viol = self.last_output
        corpus = os.path.join(self.corpus_dir, "corpus")
        ok = run_bounded(
            lambda: validate.verify_violation_invariant(viol, corpus, self.cfg), remaining_s() - 10
        )
        if not ok:
            self.problems.append("violation rows fail the content SHA-256 invariant")
        if self.w.sharded:
            ref_dir = os.path.join(self.run_dir, "reference")
            ref = run_bounded(
                lambda: validate.run_suite(corpus, ref_dir, self.cfg, self.baseline, resume=False),
                remaining_s() - 10,
            )
            if oracle.output_digest(ref.verdicts, oracle.read_violations(ref)) != self.digest:
                self.problems.append("run_suite_sharded output differs from run_suite's")

    def end_to_end(self, setups: list[dict], rss_mb: float) -> dict:
        p50 = median_or_none([r["fresh_cpu_s"] for r in self.records])
        values = {
            "rows_per_cpu_s": (self.expected["rows"] / p50, "rows/cpu_s") if p50 else None,
            "suite_cpu_s.p50": (p50, "s"),
            "setup_s": (median_or_none([x["cpu_s"] for x in setups]), "s"),
            "driver_peak_rss_mb": (rss_mb, "MB"),
            "resume_cpu_s": (median_or_none([r["resume_cpu_s"] for r in self.records]), "s"),
        }
        return {k: {"value": v[0], "unit": v[1]} for k, v in values.items() if v and v[0] is not None}

    def per_layer(self) -> dict:
        tr = self.tracer
        traced = [r for r in self.records if r["traced"]]
        plain = [r for r in self.records if not r["traced"]]

        def per_op(phase: str, fn) -> float:
            return statistics.median(fn(f"{r['label']}.{phase}") for r in traced)

        def self_time(phase: str, name: str) -> float:
            return per_op(phase, lambda op: tr.self_times(op).get(name, 0.0))

        def count(phase: str, name: str) -> float:
            return per_op(phase, lambda op: tr.counts[op].get(name, 0.0))

        corpus = os.path.join(self.corpus_dir, "corpus")
        files = sorted(os.path.join(corpus, f) for f in os.listdir(corpus))
        ratios = layers.replay(tr, files, self.cfg)
        rep = tr.self_times("replay")
        ablation = layers.ablation(corpus, self.cfg, oracle.COLUMNS)
        shards = layers.spill_shards(self.last_output[0].out_dir)
        finalize_s = (
            layers.rerun_spill_finalize(shards, self.cfg, os.path.join(self.run_dir, "refinalize"))
            if shards else 0.0
        )
        traced_p50 = statistics.median(r["fresh_s"] for r in traced)
        m = {
            "readers.read_s": (layers.read_pass(corpus), "s"),
            "readers.calls": (count("fresh", "readers.calls"), "count"),
            "uniqueness.s": (self_time("fresh", "uniqueness"), "s"),
            "uniqueness.dup_hashes": (count("fresh", "uniqueness.dup_hashes"), "count"),
            "stats.partial_s": (rep.get("stats.partials", 0.0), "s"),
            "stats.combine_s": (rep.get("stats.combine", 0.0), "s"),
            "stats.combine_ratio": (ratios["stats.combine_ratio"], "ratio"),
            "stats.merge_s": (self_time("fresh", "stats.merge"), "s"),
            **{f"sketches.{s}_s": (rep.get(f"sketches.{s}", 0.0), "s") for s in layers.SKETCHES},
            "rowcheck.s": (rep.get("rowcheck", 0.0), "s"),
            "bloom.probes": (ratios["bloom.probes"], "count"),
            "bloom.fp_rate": (ratios["bloom.fp_rate"], "ratio"),
            "sha256.rows": (tr.counts["replay"].get("sha256.rows", 0.0), "count"),
            "sha256.s": (rep.get("sha256", 0.0), "s"),
            "spill.shards": (statistics.median(r["spill_shards"] for r in self.records), "count"),
            "violations.rows": (statistics.median(r["violation_rows"] for r in self.records), "count"),
            "spill.finalize_s": (finalize_s, "s"),
            "drift.s": (self_time("fresh", "drift"), "s"),
            "checkpoint.units_computed": (count("resume", "checkpoint.units_computed"), "count"),
            "checkpoint.units_reused": (count("resume", "checkpoint.units_reused"), "count"),
            "checkpoint.bytes_written": (statistics.median(r["bytes_written"] for r in self.records), "bytes"),
            "checkpoint.mark_done_s": (
                self_time("fresh", "checkpoint.mark_done") + self_time("resume", "checkpoint.mark_done"), "s"
            ),
            "driver.cpu_s": (statistics.median(r["driver_cpu_s"] for r in self.records), "s"),
            **{f"ablation.{s}_s": (ablation[s], "s") for s in layers.ABLATION_STAGES},
            # in CPU seconds, like the end-to-end times it is an overhead on
            "trace.overhead_s": (
                statistics.median(r["fresh_cpu_s"] for r in traced)
                - statistics.median(r["fresh_cpu_s"] for r in plain),
                "s",
            ),
        }
        # everything an op does that is not in-process layer work: Ray
        # scheduling, serialization, object store and pipeline start-up
        in_process = sum(
            rep.get(n, 0.0)
            for n in ("replay.read", "replay.keyhash", "stats.partials", "rowcheck", "sha256", "stats.combine")
        ) + sum(rep.get(f"sketches.{s}", 0.0) for s in layers.SKETCHES)
        in_process += m["stats.merge_s"][0] + m["drift.s"][0] + self_time("fresh", "checkpoint.mark_done")
        m["ray.overhead_s"] = (traced_p50 - in_process, "s")
        self.details["layer_share_of_traced_op"] = {
            name: round(v / traced_p50, 4)
            for name, v in sorted(rep.items())
            if v > 0
        }
        return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}

    def execute(self) -> dict:
        self.prepare()
        os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
        os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")
        metrics: dict = {}
        setups: list[dict] = []
        try:
            setups = self.setup()
            if setups and not self.hung:
                self.measure()
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if not self.hung:
                self.post_checks()
            if self.args.trace:
                if self.records and not self.hung and not self.problems:
                    metrics = self.per_layer()
            else:
                metrics = self.end_to_end(setups, rss_mb)
        except OpTimeout as e:
            self.hung = True
            self.problems.append(f"timed out: {e}")
        except Exception as e:
            traceback.print_exc()
            self.problems.append(f"raised {type(e).__name__}: {e}")
        finally:
            # after a hang, Ray is stopped only once the result is out
            # (main): a core worker losing its cluster aborts the process
            if not self.hung:
                self.stop_ray()
        if self.args.trace:
            os.makedirs(os.path.join(WORK_DIR, "spans"), exist_ok=True)
            path = os.path.join(WORK_DIR, "spans", f"{self.w.name}-seed{self.args.seed}.jsonl")
            self.tracer.dump(path)
            self.details["spans_file"] = os.path.relpath(path, ROOT)
        wall_p50 = median_or_none([r["fresh_s"] for r in self.records])
        self.details.update(
            num_cpus=self.num_cpus,
            rows=self.expected["rows"],
            ops=len(self.records),
            setups=setups,
            suite_wall_s_p50=wall_p50,
            rows_per_wall_s=self.expected["rows"] / wall_p50 if wall_p50 else None,
            resume_wall_s_p50=median_or_none([r["resume_s"] for r in self.records]),
            per_op={
                k: [r[k] for r in self.records]
                for k in ("fresh_s", "fresh_cpu_s", "resume_s", "resume_cpu_s", "driver_cpu_s")
            },
            problems=self.problems[:20],
        )
        correct = bool(self.records) and not self.problems and self.failed == 0
        return {
            "correct": correct,
            "attempted": max(self.attempted, 1),
            "failed": self.failed if self.attempted else 1,
            "metrics": metrics,
        }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rows", type=int, help="corpus rows (default: the workload's; smaller for smoke tests)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "anomalydetection_ray", "__init__.py")):
        print(f"suitebench: no anomalydetection_ray package under {ROOT}", file=sys.stderr)
        return 2
    run_dir = os.path.join(WORK_DIR, f"run-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    run = Run(args, run_dir)
    try:
        result = run.execute()
        print(json.dumps({"details": run.details}))
        print(json.dumps(result), flush=True)
        if run.hung:
            # the hung op's thread may still hold Ray; stop it without
            # waiting on that thread
            try:
                run_bounded(run.stop_ray, 10)
            except Exception as e:  # the result is out; exit regardless
                print(f"suitebench: ray.shutdown after a hang: {e!r}", file=sys.stderr)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if run.hung:
        os._exit(0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
