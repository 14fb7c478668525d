"""Content-hash result cache for ``repro check --cache DIR``.

Each checked file is keyed on the SHA-256 of its raw bytes plus the
*rule signature* (``RULESET_VERSION`` + the sorted active rule ids), so
a cache entry can never survive a rule change or a ``--select`` swap.
An entry stores the file's harvested :class:`~repro.check.project.FileFacts`
together with its per-file findings -- a warm run rebuilds the full
:class:`~repro.check.project.ProjectContext` (and thus re-runs every
project rule) without parsing a single unchanged file, which is what
makes the clean-tree CI gate and pre-commit use near-instant.

Entries are plain JSON files written atomically (tmp + rename);
anything unreadable or mismatched is treated as a miss and rewritten.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import List, Optional, Tuple

from repro.check.engine import RULESET_VERSION, Finding, Rule
from repro.check.project import FileFacts

__all__ = ["ResultCache", "rule_signature"]

_ENTRY_VERSION = 2


def rule_signature(rules: List[Rule]) -> str:
    """Cache-key component tying entries to the exact active rule set."""
    return f"{RULESET_VERSION}:{','.join(sorted(r.id for r in rules))}"


class ResultCache:
    """Per-file (facts, findings) store under one directory."""

    def __init__(self, root: Path, rules: List[Rule]) -> None:
        self.root = root
        self.rulesig = rule_signature(rules)
        self.root.mkdir(parents=True, exist_ok=True)

    def _entry_path(self, data: bytes) -> Path:
        digest = hashlib.sha256(data).hexdigest()
        sig = hashlib.sha256(self.rulesig.encode("utf-8")).hexdigest()[:12]
        return self.root / f"{digest}-{sig}.json"

    def lookup(self, data: bytes) -> Optional[Tuple[FileFacts,
                                                    List[Finding]]]:
        """Cached (facts, findings) for these file bytes, or ``None``."""
        path = self._entry_path(data)
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if (doc.get("entry_version") != _ENTRY_VERSION
                or doc.get("rulesig") != self.rulesig):
            return None
        try:
            facts = FileFacts.from_json(doc["facts"])
            findings = [Finding.from_dict(d) for d in doc["findings"]]
        except (KeyError, TypeError, IndexError):
            return None
        return facts, findings

    def store(self, data: bytes, facts: FileFacts,
              findings: List[Finding]) -> None:
        """Persist one file's results; failures are silently ignored
        (a broken cache degrades to a cold run, never to wrong output)."""
        path = self._entry_path(data)
        doc = {
            "entry_version": _ENTRY_VERSION,
            "rulesig": self.rulesig,
            "facts": facts.to_json(),
            "findings": [f.to_dict() for f in findings],
        }
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        try:
            tmp.write_text(json.dumps(doc, sort_keys=True),
                           encoding="utf-8")
            tmp.replace(path)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass
