"""Write a ``compare.py`` report as JSON, for committing as
``BENCH_<parent-sha>.json`` at the repository root.

    python3 benchmarks/compare_json.py DIR OUT.json

``DIR`` is the ``--out`` directory of ``benchmarks/perf/compare.py run``.
The JSON holds one row per workload and end-to-end metric: each side's
first quartile, median and third quartile, the change/parent ratio of
the medians, the pairs the change won and ``compare.py``'s verdict,
plus the outcome problems ``compare.py report`` would print.  It exits
1 on the same conditions as ``compare.py report``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "perf"))
import compare  # noqa: E402


def rows(directory: Path) -> tuple[list[dict], list[str]]:
    benchmark = compare.load_benchmark()
    table, problems = [], []
    for workload in benchmark["workloads"]:
        name = workload["name"]
        parent = compare._side_results(directory / "parent", name)
        change = compare._side_results(directory / "change", name)
        pairs = sorted(set(parent) & set(change))
        if not pairs:
            continue
        problems += [f"{name}: {problem}" for problem in
                     compare.outcome_problems(parent, change, pairs)]
        for metric in benchmark["end_to_end"]:
            key = metric["name"]
            result = compare.compare_metric(
                [parent[i]["metrics"][key]["value"] for i in pairs],
                [change[i]["metrics"][key]["value"] for i in pairs],
                metric["better"], metric["bound"])
            table.append({
                "workload": name, "metric": key, "unit": metric["unit"],
                "better": metric["better"], "bound": metric["bound"],
                "pairs": len(pairs),
                "parent": dict(zip(("q1", "median", "q3"),
                                   result["parent"], strict=True)),
                "change": dict(zip(("q1", "median", "q3"),
                                   result["change"], strict=True)),
                "ratio": result["change"][1] / result["parent"][1],
                "wins": result["wins"], "verdict": result["verdict"]})
    return table, problems


def main(argv=None) -> int:
    directory, out = map(Path, (argv or sys.argv[1:]))
    table, problems = rows(directory)
    out.write_text(json.dumps({"rows": table, "problems": problems},
                              indent=1) + "\n")
    failing = problems or any(row["verdict"] in ("regressed", "unresolved")
                              for row in table)
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
