"""CLI for the HopsFS transaction-discipline linter.

Usage::

    python -m repro.analysis lint [PATH ...] [--format text|json]
                                  [--metrics-json OUT.json]
    python -m repro.analysis rules

``lint --format json`` emits ``[{file, line, col, rule, message}, ...]``
for CI problem matchers.

Exit status: 0 clean, 1 violations found, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from typing import Optional, Sequence

from repro.analysis.linter import lint_paths
from repro.analysis.rules import RULES


def _write_metrics(path: str, by_rule: Counter) -> None:
    # the PR-1 snapshot format, so the file round-trips through
    # repro.metrics.export.from_json like any benchmark snapshot
    from repro.metrics import export
    from repro.metrics.registry import MetricsRegistry

    registry = MetricsRegistry()
    for code, count in sorted(by_rule.items()):
        registry.inc("analysis_lint_violations_total", count, rule=code)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(export.to_json(registry))
        handle.write("\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    lint = sub.add_parser("lint", help="run the HFS discipline linter")
    lint.add_argument("paths", nargs="*", default=None,
                      help="files/directories to lint (default: src/repro)")
    lint.add_argument("--format", choices=("text", "json"), default="text")
    lint.add_argument("--metrics-json", metavar="PATH", default=None,
                      help="write analysis_lint_violations_total{rule} "
                           "counters to PATH as JSON")

    sub.add_parser("rules", help="list rule codes and what they enforce")

    args = parser.parse_args(argv)

    if args.command == "rules":
        for code, description in sorted(RULES.items()):
            print(f"{code}  {description}")
        return 0

    paths = args.paths or ["src/repro"]
    violations = lint_paths(paths)
    by_rule = Counter(v.code for v in violations)

    if args.format == "json":
        print(json.dumps([
            {"file": v.path, "line": v.line, "col": v.col,
             "rule": v.code, "message": v.message}
            for v in violations], indent=2))
    else:
        for violation in violations:
            print(violation.render())
        if violations:
            summary = ", ".join(f"{code}: {count}"
                                for code, count in sorted(by_rule.items()))
            print(f"\n{len(violations)} violation(s) ({summary})")
        else:
            print("analysis: clean")

    if args.metrics_json:
        _write_metrics(args.metrics_json, by_rule)

    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
