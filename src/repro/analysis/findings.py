"""Finding and rule descriptors shared by the harmonylint engine.

A :class:`Rule` names one statically checkable property of the tree
(``DET001`` etc.); a :class:`Finding` is one violation of a rule,
anchored to a ``file:line`` so editors and CI can jump to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field


#: The rule families (see README "Static analysis").
FAMILIES = {
    "DET": "determinism",
    "SIM": "simulation safety",
    "TRC": "trace hygiene",
    "CONC": "concurrency discipline",
}


@dataclass(frozen=True)
class Rule:
    """One statically checkable property, e.g. ``DET001``."""

    rule_id: str
    summary: str

    @property
    def family(self) -> str:
        return self.rule_id.rstrip("0123456789")

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(
                f"rule {self.rule_id!r} is not in a known family "
                f"({sorted(FAMILIES)})")


@dataclass(frozen=True)
class Finding:
    """One rule violation at ``path:line``."""

    rule_id: str
    path: str
    line: int
    message: str
    #: The stripped source line, shown in JSON and SARIF reports.
    snippet: str = ""

    def anchor(self) -> str:
        return f"{self.path}:{self.line}"

    def render(self) -> str:
        return f"{self.anchor()}: {self.rule_id} {self.message}"

    def to_json(self) -> dict:
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "snippet": self.snippet,
        }


@dataclass
class AnalysisReport:
    """Everything one ``python -m repro lint`` run produced."""

    findings: list[Finding] = field(default_factory=list)
    #: Findings masked by an inline ``# harmony: allow[...]`` comment.
    suppressed: list[Finding] = field(default_factory=list)
    n_files: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def exit_code(self) -> int:
        return 0 if self.ok else 1
