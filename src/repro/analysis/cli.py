"""``python -m repro lint`` — the harmonylint CLI.

Usage::

    python -m repro lint                      # lint src/ (+benchmarks/)
    python -m repro lint src/repro/core       # narrow the scope
    python -m repro lint --format=json        # machine-readable report
    python -m repro lint --format=sarif       # CI inline annotations
    python -m repro lint --changed-only       # only files in git diff
    python -m repro lint --write-baseline     # adopt current findings
    python -m repro lint --list-rules         # rule catalogue

``--changed-only`` resolves the file set from ``git diff --name-only
<base>`` (``--base``, default HEAD); the whole tree is still parsed so
project-level rules (CONC001–003) keep their cross-file
models, but only findings in changed files are reported — pre-commit
runs stay fast and focused on a 155+-file tree.

Exit codes: 0 clean (everything fixed, suppressed, or baselined),
1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from repro.analysis.baseline import Baseline
from repro.analysis.engine import AnalysisConfig, Analyzer
from repro.analysis.findings import AnalysisReport, FAMILIES
from repro.analysis.sarif import render_sarif
from repro.analysis.visitors import REGISTRY

_DEFAULT_PATHS = ("src", "benchmarks")


def _default_paths(root: str) -> list[str]:
    present = [path for path in _DEFAULT_PATHS
               if os.path.isdir(os.path.join(root, path))]
    return present or ["."]


def _render_text(report: AnalysisReport, verbose: bool) -> str:
    lines = [finding.render() for finding in report.findings]
    lines.append(f"harmonylint: {report.n_files} files, "
                 f"{len(report.findings)} finding(s), "
                 f"{len(report.baselined)} baselined, "
                 f"{len(report.suppressed)} suppressed")
    if verbose and report.stale_baseline_entries:
        lines.append("stale baseline entries (fixed; safe to delete):")
        lines.extend(f"  {entry}"
                     for entry in report.stale_baseline_entries)
    return "\n".join(lines)


def _render_json(report: AnalysisReport) -> str:
    return json.dumps({
        "findings": [f.to_json() for f in report.findings],
        "baselined": [f.to_json() for f in report.baselined],
        "suppressed": [f.to_json() for f in report.suppressed],
        "stale_baseline_entries": report.stale_baseline_entries,
        "n_files": report.n_files,
        "ok": report.ok,
    }, indent=2)


def _changed_paths(root: str, base: str) -> "set[str] | None":
    """Repo-relative ``.py`` paths changed since ``base``, or None when
    git cannot answer (not a repo, unknown ref, no git)."""
    try:
        completed = subprocess.run(
            ["git", "diff", "--name-only", base],
            cwd=root, capture_output=True, text=True, timeout=30,
            check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if completed.returncode != 0:
        return None
    return {line.strip().replace(os.sep, "/")
            for line in completed.stdout.splitlines()
            if line.strip().endswith(".py")}


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
    parser.add_argument("--changed-only", action="store_true",
                        help="report findings only for files changed "
                             "since --base (the whole tree is still "
                             "parsed for cross-file rules)")
    parser.add_argument("--base", default="HEAD",
                        help="git ref --changed-only diffs against "
                             "(default: HEAD)")
    parser.add_argument("--root", default=".",
                        help="repo root findings are reported "
                             "relative to")
    parser.add_argument("--baseline", default="lint-baseline.json",
                        help="baseline file (relative to --root)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore the baseline file entirely")
    parser.add_argument("--write-baseline", action="store_true",
                        help="write current findings to the baseline "
                             "file and exit 0")
    parser.add_argument("--select", action="append", default=[],
                        metavar="RULE",
                        help="run only these rule ids (repeatable)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("--output", default=None,
                        help="also write the report to this file")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="report stale baseline entries")
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    unknown = [rule for rule in args.select if rule not in REGISTRY]
    if unknown:
        print(f"unknown rule id(s): {', '.join(unknown)}; see "
              f"--list-rules", file=sys.stderr)
        return 2

    report_paths = None
    if args.changed_only:
        report_paths = _changed_paths(args.root, args.base)
        if report_paths is None:
            print(f"--changed-only: git diff --name-only {args.base} "
                  f"failed (not a git checkout, or unknown ref)",
                  file=sys.stderr)
            return 2

    # --write-baseline computes with the baseline off so existing
    # entries are refreshed rather than layered on top of themselves.
    use_baseline = not (args.no_baseline or args.write_baseline)
    config = AnalysisConfig(
        paths=list(args.paths) or _default_paths(args.root),
        select=set(args.select),
        baseline_path=args.baseline if use_baseline else None,
        root=args.root,
        report_paths=report_paths)

    if args.write_baseline:
        report = Analyzer(config).run()
        baseline = Baseline.from_findings(report.findings)
        target = args.baseline if os.path.isabs(args.baseline) \
            else os.path.join(args.root, args.baseline)
        baseline.save(target)
        print(f"wrote {len(baseline.entries)} baseline entries to "
              f"{target}")
        return 0

    report = Analyzer(config).run()
    if args.format == "json":
        rendered = _render_json(report)
    elif args.format == "sarif":
        rendered = render_sarif(report)
    else:
        rendered = _render_text(report, args.verbose)
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
