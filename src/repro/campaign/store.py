"""Content-addressed result store + crash-safe campaign journal.

Layout under the store root (default ``.campaign/``)::

    objects/<k0k1>/<key>.json           # run payload (metrics, blocks, notes)
    objects/<k0k1>/<key>.manifest.json  # provenance sidecar (git rev, host...)
    journal.jsonl                       # append-only event log

Payloads are written atomically (temp file + ``os.replace``) so a crash
never leaves a half-written object; the journal is appended with
flush+fsync per record and read tolerantly (a torn final line from a
crash is ignored), which is what makes ``--resume`` safe: after a crash
the store holds exactly the completed runs, and re-running the same spec
executes only the missing ones.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["ResultStore"]

DEFAULT_STORE_DIR = ".campaign"


class ResultStore:
    """On-disk cache of run results keyed by content hash."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.objects_dir = self.root / "objects"
        self.journal_path = self.root / "journal.jsonl"

    # --- object cache -----------------------------------------------------
    def object_path(self, key: str) -> Path:
        """Payload path for ``key`` (two-level fan-out like git)."""
        return self.objects_dir / key[:2] / f"{key}.json"

    def manifest_path(self, key: str) -> Path:
        """Provenance sidecar path for ``key``."""
        return self.objects_dir / key[:2] / f"{key}.manifest.json"

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Cached payload for ``key`` or None (corrupt objects read as
        missing rather than poisoning a campaign)."""
        path = self.object_path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None

    def put(self, key: str, payload: Dict[str, Any],
            manifest: Optional[Dict[str, Any]] = None) -> Path:
        """Atomically persist ``payload`` (and its manifest sidecar)."""
        path = self.object_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        _atomic_write_json(path, payload)
        if manifest is not None:
            _atomic_write_json(self.manifest_path(key), manifest)
        return path

    def delete(self, key: str) -> bool:
        """Drop one cached result; returns whether it existed."""
        existed = False
        for path in (self.object_path(key), self.manifest_path(key)):
            try:
                path.unlink()
                existed = True
            except FileNotFoundError:
                pass
        return existed

    def keys(self) -> Iterator[str]:
        """Iterate all cached run keys."""
        if not self.objects_dir.is_dir():
            return
        for path in sorted(self.objects_dir.glob("*/*.json")):
            if not path.name.endswith(".manifest.json"):
                yield path.stem

    def clean(self) -> int:
        """Remove every object and the journal; returns objects removed."""
        n = 0
        for key in list(self.keys()):
            if self.delete(key):
                n += 1
        try:
            self.journal_path.unlink()
        except FileNotFoundError:
            pass
        # prune the (now empty) fan-out dirs
        if self.objects_dir.is_dir():
            for sub in sorted(self.objects_dir.iterdir()):
                try:
                    sub.rmdir()
                except OSError:
                    pass
            try:
                self.objects_dir.rmdir()
            except OSError:
                pass
        return n

    # --- journal ----------------------------------------------------------
    def journal(self, event: str, **fields: Any) -> None:
        """Append one event record; fsync'd so a crash loses at most the
        record being written (never corrupts earlier ones)."""
        record = {"ts": time.time(), "event": event}  # repro: noqa[DET002] journal timestamp metadata, excluded from payload hashing
        record.update(fields)
        self.root.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record, sort_keys=True, default=str)
        with open(self.journal_path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    def read_journal(self) -> List[Dict[str, Any]]:
        """All intact journal records (a torn final line is skipped)."""
        try:
            text = self.journal_path.read_text(encoding="utf-8")
        except OSError:
            return []
        records = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                continue  # torn write from a crash
        return records

    def journal_status(self) -> Dict[str, Dict[str, Any]]:
        """Fold the journal into per-campaign status:
        ``{campaign_key: {name, counts by final run state, last_ts}}``.

        A run's state is its *latest* event (``start`` with no later
        ``done``/``failed``/``cached`` means the process died mid-run).
        """
        campaigns: Dict[str, Dict[str, Any]] = {}
        for rec in self.read_journal():
            ck = rec.get("campaign")
            if ck is None:
                continue
            info = campaigns.setdefault(ck, {
                "name": rec.get("name"), "runs": {}, "last_ts": 0.0,
                "interrupted": False,
            })
            if rec.get("name"):
                info["name"] = rec.get("name")
            info["last_ts"] = max(info["last_ts"], float(rec.get("ts", 0.0)))
            if rec.get("event") == "interrupted":
                info["interrupted"] = True
            run = rec.get("run")
            if run is not None:
                info["runs"][run] = rec.get("event")
        out: Dict[str, Dict[str, Any]] = {}
        for ck, info in campaigns.items():
            counts: Dict[str, int] = {}
            for state in info["runs"].values():
                counts[state] = counts.get(state, 0) + 1
            out[ck] = {
                "name": info["name"],
                "total": len(info["runs"]),
                "counts": counts,
                "last_ts": info["last_ts"],
                "interrupted": info["interrupted"],
            }
        return out


def _atomic_write_json(path: Path, data: Dict[str, Any]) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
