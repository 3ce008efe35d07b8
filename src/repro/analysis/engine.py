"""The harmonylint engine: collect files, run rules, filter findings.

One filter per finding: an inline ``# harmony: allow[RULE-ID]`` on the
finding's line (or the line above it) counts it as *suppressed*; every
other finding is reported.

Findings are ordered (path, line, rule id) so output is stable across
runs and machines regardless of rule registration order.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.analysis import (  # noqa: F401  (rule registration side effect)
    rules_conc,
    rules_det,
    rules_sim,
    rules_trc,
)
from repro.analysis.findings import AnalysisReport, Finding
from repro.analysis.visitors import BaseRule, FileContext, REGISTRY

_SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules",
              ".pytest_cache", ".hypothesis"}


@dataclass
class AnalysisConfig:
    """What to analyze and how."""

    paths: list[str] = field(default_factory=lambda: ["src"])
    #: Rule ids to run; empty means every registered rule.
    select: set[str] = field(default_factory=set)
    #: Root that finding paths are reported relative to.
    root: str = "."


def collect_sources(paths: list[str], root: str = ".") -> list[str]:
    """Python files under ``paths``, reported relative to ``root``."""
    sources: list[str] = []
    for path in paths:
        absolute = os.path.join(root, path) if not os.path.isabs(path) \
            else path
        if os.path.isfile(absolute):
            sources.append(os.path.relpath(absolute, root))
            continue
        for directory, subdirs, files in os.walk(absolute):
            subdirs[:] = sorted(d for d in subdirs
                                if d not in _SKIP_DIRS)
            for name in sorted(files):
                if name.endswith(".py"):
                    sources.append(os.path.relpath(
                        os.path.join(directory, name), root))
    return sorted(set(sources))


def _suppressed(ctx: FileContext, finding: Finding) -> bool:
    for line in (finding.line, finding.line - 1):
        if finding.rule_id in ctx.suppressions.get(line, set()):
            return True
    return False


class Analyzer:
    """One lint run over a set of files."""

    def __init__(self, config: AnalysisConfig | None = None):
        self.config = config or AnalysisConfig()
        self.rules: list[BaseRule] = [
            rule_class() for rule_id, rule_class in sorted(
                REGISTRY.items())
            if not self.config.select
            or rule_id in self.config.select]

    def run(self) -> AnalysisReport:
        root = self.config.root
        contexts: list[FileContext] = []
        report = AnalysisReport()
        for relpath in collect_sources(self.config.paths, root):
            with open(os.path.join(root, relpath),
                      encoding="utf-8") as handle:
                source = handle.read()
            try:
                contexts.append(FileContext.parse(
                    relpath.replace(os.sep, "/"), source))
            except SyntaxError as error:
                report.findings.append(Finding(
                    rule_id="DET001", path=relpath, line=error.lineno or 0,
                    message=f"file does not parse: {error.msg}"))
        report.n_files = len(contexts)

        raw: list[tuple[FileContext | None, Finding]] = []
        for ctx in contexts:
            for rule in self.rules:
                if rule.project_level:
                    continue
                for finding in rule.check(ctx):
                    raw.append((ctx, finding))
        for rule in self.rules:
            if rule.project_level:
                by_path = {ctx.path: ctx for ctx in contexts}
                for finding in rule.check_project(contexts):
                    raw.append((by_path.get(finding.path), finding))

        for ctx, finding in raw:
            if ctx is not None and _suppressed(ctx, finding):
                report.suppressed.append(finding)
            else:
                report.findings.append(finding)
        report.findings.sort(
            key=lambda f: (f.path, f.line, f.rule_id))
        return report
