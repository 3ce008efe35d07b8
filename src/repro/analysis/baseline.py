"""The expiring-baseline file for pre-existing harmonylint findings.

A baseline entry masks one finding so the tree can adopt a new rule
without fixing every historical hit at once.  Entries are matched by
(rule id, path, snippet hash) — *not* line number — so unrelated edits
above a finding do not unmask it.  Every entry carries a justification
and an expiry date: once expired, the finding resurfaces and CI fails,
which is the mechanism that keeps the baseline shrinking instead of
becoming a permanent dumping ground.

Format (JSON, committed at the repo root as ``lint-baseline.json``)::

    {"entries": [
        {"rule": "DET001", "path": "src/repro/check/cli.py",
         "snippet_hash": "a1b2c3d4",
         "reason": "CLI elapsed-time report; not simulation state",
         "expires": "2027-06-30"},
        ...
    ]}
"""

from __future__ import annotations

import datetime
import json
import os
import zlib
from dataclasses import dataclass

from repro.analysis.findings import Finding

#: New entries written by ``--write-baseline`` expire after this many
#: days unless edited — long enough to schedule the fix, short enough
#: that the baseline cannot silently fossilize.
DEFAULT_EXPIRY_DAYS = 180
#: The reason a generated entry carries until someone writes one.
DEFAULT_REASON = "TODO: justify or fix"

#: Environment override for "today" so baseline-expiry behaviour is
#: testable (and reproducible) without a real clock.
TODAY_ENV = "HARMONY_LINT_TODAY"


def _today() -> datetime.date:
    override = os.environ.get(TODAY_ENV)
    if override:
        return datetime.date.fromisoformat(override)
    # The expiry check is the one place the linter needs the real
    # date; it never feeds simulation state.
    return datetime.date.today()  # harmony: allow[DET001] baseline expiry needs the real date


def snippet_hash(snippet: str) -> str:
    """Stable 8-hex-digit hash of a finding's stripped source line."""
    return format(zlib.crc32(snippet.strip().encode()), "08x")


@dataclass(frozen=True)
class BaselineEntry:
    rule: str
    path: str
    snippet_hash: str
    reason: str
    expires: str  # ISO date

    def key(self) -> tuple[str, str, str]:
        return (self.rule, self.path, self.snippet_hash)

    def expired(self) -> bool:
        return datetime.date.fromisoformat(self.expires) < _today()

    def to_json(self) -> dict:
        return {"rule": self.rule, "path": self.path,
                "snippet_hash": self.snippet_hash,
                "reason": self.reason, "expires": self.expires}


class Baseline:
    """The committed set of masked findings."""

    def __init__(self, entries: list[BaselineEntry] | None = None):
        self.entries = list(entries or [])
        self._matched: set[tuple[str, str, str]] = set()

    # -- persistence -----------------------------------------------------

    @classmethod
    def load(cls, path: str) -> "Baseline":
        if not os.path.exists(path):
            return cls()
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        entries = [BaselineEntry(**item) for item in data.get("entries", [])]
        return cls(entries)

    def save(self, path: str) -> None:
        data = {"entries": [entry.to_json() for entry in sorted(
            self.entries, key=lambda e: (e.path, e.rule, e.snippet_hash))]}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle, indent=2)
            handle.write("\n")

    # -- matching --------------------------------------------------------

    def match(self, finding: Finding) -> "BaselineEntry | None":
        """The entry masking ``finding``, or None.

        An *expired* entry is treated as absent (the finding resurfaces)
        but is still recorded as matched so it is not reported stale.
        """
        key = (finding.rule_id, finding.path,
               snippet_hash(finding.snippet))
        for entry in self.entries:
            if entry.key() == key:
                self._matched.add(key)
                return entry
        return None

    def stale_entries(self) -> list[BaselineEntry]:
        """Entries that matched no finding this run (fixed or moved)."""
        return [entry for entry in self.entries
                if entry.key() not in self._matched]

    # -- authoring -------------------------------------------------------

    @classmethod
    def from_findings(cls, findings: list[Finding]) -> "Baseline":
        expires = (_today()
                   + datetime.timedelta(days=DEFAULT_EXPIRY_DAYS)).isoformat()
        entries = [BaselineEntry(rule=f.rule_id, path=f.path,
                                 snippet_hash=snippet_hash(f.snippet),
                                 reason=DEFAULT_REASON, expires=expires)
                   for f in findings]
        # One entry per (rule, path, snippet) even when a line repeats.
        unique = {entry.key(): entry for entry in entries}
        return cls(list(unique.values()))
