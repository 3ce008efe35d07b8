"""``python -m repro lint`` — the harmonylint CLI.

Usage::

    python -m repro lint                      # lint src/ (+benchmarks/)
    python -m repro lint src/repro/core       # narrow the scope
    python -m repro lint --format=json        # machine-readable report
    python -m repro lint --format=sarif       # CI inline annotations
    python -m repro lint --list-rules         # rule catalogue

Every finding in the linted files is reported unless an inline
``# harmony: allow[RULE-ID] reason`` silences it; there is no other way.

Exit codes: 0 clean (everything fixed or suppressed), 1 findings,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.analysis.engine import AnalysisConfig, Analyzer
from repro.analysis.findings import AnalysisReport, FAMILIES
from repro.analysis.sarif import render_sarif
from repro.analysis.visitors import REGISTRY

_DEFAULT_PATHS = ("src", "benchmarks")


def _default_paths(root: str) -> list[str]:
    present = [path for path in _DEFAULT_PATHS
               if os.path.isdir(os.path.join(root, path))]
    return present or ["."]


def _render_text(report: AnalysisReport) -> str:
    lines = [finding.render() for finding in report.findings]
    lines.append(f"harmonylint: {report.n_files} files, "
                 f"{len(report.findings)} finding(s), "
                 f"{len(report.suppressed)} suppressed")
    return "\n".join(lines)


def _render_json(report: AnalysisReport) -> str:
    return json.dumps({
        "findings": [f.to_json() for f in report.findings],
        "suppressed": [f.to_json() for f in report.suppressed],
        "n_files": report.n_files,
        "ok": report.ok,
    }, indent=2)


def _list_rules() -> str:
    lines = ["harmonylint rules:"]
    family = None
    for rule_id in sorted(REGISTRY):
        rule = REGISTRY[rule_id].rule
        if rule.family != family:
            family = rule.family
            lines.append(f"  [{family}] {FAMILIES[family]}")
        lines.append(f"    {rule_id}  {rule.summary}")
    lines.append("suppress one line with: "
                 "# harmony: allow[RULE-ID] reason")
    return "\n".join(lines)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description="harmonylint: determinism & simulation-safety "
                    "static analysis for the Harmony reproduction.")
    parser.add_argument("paths", nargs="*",
                        help="files/directories to lint "
                             "(default: src/ and benchmarks/)")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text")
    parser.add_argument("--root", default=".",
                        help="repo root findings are reported "
                             "relative to")
    parser.add_argument("--select", action="append", default=[],
                        metavar="RULE",
                        help="run only these rule ids (repeatable)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("--output", default=None,
                        help="also write the report to this file")
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    unknown = [rule for rule in args.select if rule not in REGISTRY]
    if unknown:
        print(f"unknown rule id(s): {', '.join(unknown)}; see "
              f"--list-rules", file=sys.stderr)
        return 2

    config = AnalysisConfig(
        paths=list(args.paths) or _default_paths(args.root),
        select=set(args.select),
        root=args.root)
    report = Analyzer(config).run()
    if args.format == "json":
        rendered = _render_json(report)
    elif args.format == "sarif":
        rendered = render_sarif(report)
    else:
        rendered = _render_text(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        print(f"harmonylint: {report.n_files} files, "
              f"{len(report.findings)} finding(s); report written to "
              f"{args.output}")
    else:
        print(rendered)
    return report.exit_code()


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
