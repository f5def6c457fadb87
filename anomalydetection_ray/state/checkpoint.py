"""Checkpoint / lineage state for resumable validation runs.

The reference resumes by hand from any stage because every stage writes its
output file (`end_to_end_prediction.py` stage dirs, `:74-85`) and Drain
persists miner state (`models/drain.py:49-50`). Here resume is first-class:
each completed unit (check, or check×shard) writes an atomic ``_DONE``
marker containing its metrics; a rerun skips marked units. Lineage is an
append-only ``metrics.jsonl`` (north rule: "resumable from per-partition
checkpoints with lineage and metrics").
"""

from __future__ import annotations

import json
import os
import time


class RunState:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)

    def _marker(self, unit: str) -> str:
        # injective escaping: plain '/'→'_' made units 'a/b' and 'a_b'
        # share a marker dir (silent wrong-resume). Names without '%' or
        # '/' — every static unit — are unchanged, so old checkpoints of
        # those still resume.
        safe = unit.replace("%", "%25").replace("/", "%2F")
        return os.path.join(self.out_dir, safe, "_DONE")

    def is_done_compat(self, unit: str, files: tuple[str, ...] = (), fmt: str | None = None) -> bool:
        """Resume-safe done check: the marker must exist, its recorded
        ``format`` tag must match ``fmt`` (layout/version — e.g. the
        polars build whose row hashes the payload embeds), and every
        expected payload file must be present. A marker from an older
        layout or a different hash environment triggers recompute instead
        of a FileNotFoundError / silently-misread checkpoint."""
        meta = self.done_metrics(unit)
        if meta is None:
            return False
        if fmt is not None and meta.get("format") != fmt:
            return False
        d = os.path.dirname(self._marker(unit))
        return all(os.path.exists(os.path.join(d, f)) for f in files)

    def unit_dir(self, unit: str) -> str:
        d = os.path.dirname(self._marker(unit))
        os.makedirs(d, exist_ok=True)
        return d

    def mark_done(self, unit: str, metrics: dict | None = None, fmt: str | None = None) -> None:
        """Atomic: write to tmp then rename, so a crash never leaves a
        half-written marker that a resume would trust."""
        d = self.unit_dir(unit)
        payload = {"unit": unit, "completed_at": time.time(), "metrics": metrics or {}}
        if fmt is not None:
            payload["format"] = fmt
        tmp = os.path.join(d, "_DONE.tmp")
        with open(tmp, "w") as f:
            json.dump(payload, f)
        os.replace(tmp, os.path.join(d, "_DONE"))
        self.lineage_append(payload)

    def done_metrics(self, unit: str) -> dict | None:
        try:
            with open(self._marker(unit)) as f:
                return json.load(f)
        except (FileNotFoundError, json.JSONDecodeError, UnicodeDecodeError, OSError):
            # a truncated/corrupt/externally-touched marker means NOT
            # done — resume paths must fall back to recompute, not crash
            # permanently on every rerun (round-5 review)
            return None

    def invalidate(self, unit: str) -> None:
        """Remove a unit's ``_DONE`` marker (if any) BEFORE recomputing
        its payload, so a crash mid-recompute can never leave a stale
        marker vouching for partial data (round-5 review)."""
        try:
            os.remove(self._marker(unit))
        except FileNotFoundError:
            pass

    def lineage_append(self, record: dict) -> None:
        path = os.path.join(self.out_dir, "metrics.jsonl")
        with open(path, "a+b") as f:
            # a crash mid-append can leave a torn (newline-less) trailing
            # line; appending straight after it would merge the NEW record
            # into the torn text and lose it (round-5 review). Seal the
            # tear with a newline so only the torn record is lost.
            f.seek(0, os.SEEK_END)
            if f.tell() > 0:
                f.seek(-1, os.SEEK_END)
                if f.read(1) != b"\n":
                    f.write(b"\n")
            f.write((json.dumps(record) + "\n").encode())

    def lineage(self) -> list[dict]:
        """Parsed lineage records. A crash mid-``lineage_append`` can
        leave ONE truncated trailing line; such lines are skipped (the
        _DONE markers — written atomically — are the source of truth for
        resume, and a permanently-crashing lineage() would block it)."""
        path = os.path.join(self.out_dir, "metrics.jsonl")
        if not os.path.exists(path):
            return []
        out = []
        with open(path) as f:
            for line in f:
                if not line.strip():
                    continue
                try:
                    out.append(json.loads(line))
                except json.JSONDecodeError:
                    continue
        return out
