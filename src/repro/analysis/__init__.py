"""harmonylint: determinism & simulation-safety static analysis.

An AST-based, rule-driven analyzer (``python -m repro lint``) with
four domain rule families generic linters cannot express:

- **DET** determinism: wall clocks, global RNG, set-order escapes,
  identity-keyed sorts, float equality on times/scores;
- **SIM** simulation safety: blocking calls in sim processes, frozen
  config mutation, event-loop re-entry;
- **TRC** trace hygiene: span begin/end balance, metric and span
  names pinned to the declared registry;
- **CONC** concurrency discipline of the threaded runtime: lock
  coverage, state shared with worker threads, lock order.

Suppress one line with ``# harmony: allow[RULE-ID] reason`` on it or
on the line above; that is the only way to silence a finding.
"""

from repro.analysis.engine import (
    AnalysisConfig,
    Analyzer,
    collect_sources,
)
from repro.analysis.findings import AnalysisReport, Finding, Rule
from repro.analysis.visitors import BaseRule, FileContext, REGISTRY

__all__ = [
    "AnalysisConfig",
    "AnalysisReport",
    "Analyzer",
    "BaseRule",
    "FileContext",
    "Finding",
    "REGISTRY",
    "Rule",
    "collect_sources",
]
