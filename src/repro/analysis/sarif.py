"""SARIF 2.1.0 exporter for harmonylint reports.

SARIF (Static Analysis Results Interchange Format) is what code
hosts ingest to render findings as inline review annotations; CI
uploads the file produced by ``python -m repro lint --format sarif``
and every DET/SIM/TRC/CONC finding lands on its line in the PR
diff.  Only unsuppressed findings become results — suppressed ones
are by definition accepted.
"""

from __future__ import annotations

import json

from repro.analysis.findings import AnalysisReport, FAMILIES, Finding
from repro.analysis.visitors import REGISTRY

_SARIF_VERSION = "2.1.0"
#: The ``tool.driver.version`` the document reports.
TOOL_VERSION = "0"
_SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/"
                 "sarif-spec/master/Schemata/sarif-schema-2.1.0.json")


def _rule_descriptor(rule_id: str) -> dict:
    rule = REGISTRY[rule_id].rule
    return {
        "id": rule_id,
        "name": REGISTRY[rule_id].__name__,
        "shortDescription": {"text": rule.summary},
        "properties": {
            "family": rule.family,
            "familyDescription": FAMILIES[rule.family],
        },
    }


def _result(finding: Finding) -> dict:
    return {
        "ruleId": finding.rule_id,
        "level": "error",
        "message": {"text": finding.message},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {
                    "uri": finding.path,
                    "uriBaseId": "SRCROOT",
                },
                "region": {
                    "startLine": max(finding.line, 1),
                    "snippet": {"text": finding.snippet},
                },
            },
        }],
    }


def render_sarif(report: AnalysisReport) -> str:
    """The report as a SARIF 2.1.0 JSON document (one run)."""
    referenced = sorted({f.rule_id for f in report.findings}
                        & set(REGISTRY))
    rules = [_rule_descriptor(rule_id) for rule_id in referenced]
    document = {
        "$schema": _SARIF_SCHEMA,
        "version": _SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "harmonylint",
                    "informationUri":
                        "https://example.invalid/harmonylint",
                    "version": TOOL_VERSION,
                    "rules": rules,
                },
            },
            "originalUriBaseIds": {
                "SRCROOT": {"uri": "file:///"},
            },
            "results": [_result(f) for f in report.findings],
            "properties": {
                "filesAnalyzed": report.n_files,
                "suppressed": len(report.suppressed),
            },
        }],
    }
    return json.dumps(document, indent=2)
