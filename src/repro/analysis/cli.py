"""``repro lint`` — the analyzer's command-line front end.

Examples::

    repro-gpu-qos lint                       # lint src/ + examples/
    repro-gpu-qos lint --strict              # CI mode: exit 1 on any finding
    repro-gpu-qos lint --rule DET003 src     # one rule, explicit paths
    repro-gpu-qos lint --format json         # machine-readable report
    repro-gpu-qos lint --list-rules          # the rule catalog
    repro-lint --strict                      # dedicated console entry

Exit codes: 0 clean (or findings without ``--strict``), 1 findings under
``--strict``, 2 usage errors.  Findings on a line with
``# repro: noqa=RULE`` never fail the run.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import List, Optional, Sequence

from repro.analysis.core import all_rules
from repro.analysis.driver import analyze_paths, select_rules


def default_targets(cwd: Optional[pathlib.Path] = None) -> List[pathlib.Path]:
    """``src/`` + ``examples/`` when run from a checkout, else the
    installed package itself."""
    cwd = pathlib.Path.cwd() if cwd is None else cwd
    if (cwd / "src" / "repro").is_dir():
        targets = [cwd / "src"]
        if (cwd / "examples").is_dir():
            targets.append(cwd / "examples")
        return targets
    return [pathlib.Path(__file__).resolve().parents[1]]


def build_lint_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-gpu-qos lint",
        description="Statically check the reproduction's determinism, "
                    "flow, effect, layering and cache-salt invariants")
    parser.add_argument(
        "paths", nargs="*", type=pathlib.Path,
        help="files or directories to lint (default: src/ and examples/ "
             "under the current directory)")
    parser.add_argument(
        "--strict", action="store_true",
        help="exit 1 when any non-suppressed finding remains")
    parser.add_argument(
        "--rule", action="append", dest="rules", metavar="ID", default=None,
        help="run only this rule (repeatable)")
    parser.add_argument(
        "--format", choices=("human", "json"), default="human",
        help="report format (default: human)")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit")
    parser.add_argument(
        "--explain", metavar="ID", default=None,
        help="print one rule's full documentation (rationale and an "
             "example source→sink trace) and exit")
    parser.add_argument(
        "--no-flow-cache", action="store_false", dest="flow_cache",
        help="recompute everything instead of reusing the module records "
             "in benchmarks/.cache/analysis/ (REPRO_LINT_CACHE=0 does the "
             "same; a path value relocates the cache)")
    return parser


def _print_rule_catalog() -> None:
    registry = all_rules()
    for rule_id in sorted(registry):
        rule = registry[rule_id]
        scope = "project" if rule.scope == "project" else "module"
        print(f"{rule_id}  [{rule.severity}/{scope}]  {rule.summary}")


def _print_rule_explain(rule_id: str) -> int:
    registry = all_rules()
    rule = registry.get(rule_id.upper())
    if rule is None:
        print(f"error: unknown rule id {rule_id!r}; known rules: "
              f"{', '.join(sorted(registry))}", file=sys.stderr)
        return 2
    scope = "project" if rule.scope == "project" else "module"
    print(f"{rule.id}  [{rule.severity}/{scope}]")
    print(f"{rule.summary}")
    body = getattr(rule, "explain", None) or (rule.__doc__ or "").strip()
    if body:
        print()
        print(body.rstrip())
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_lint_parser().parse_args(argv)
    if args.list_rules:
        _print_rule_catalog()
        return 0
    if args.explain:
        return _print_rule_explain(args.explain)

    try:
        rules = select_rules(args.rules)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    cwd = pathlib.Path.cwd()
    paths = [pathlib.Path(path) for path in args.paths] or default_targets(cwd)
    missing = [path for path in paths if not path.exists()]
    if missing:
        print("error: no such path: "
              + ", ".join(str(path) for path in missing), file=sys.stderr)
        return 2

    result = analyze_paths(paths, root=cwd,
                           rule_ids=[rule.id for rule in rules],
                           flow_cache=args.flow_cache)
    findings = result.findings

    if args.format == "json":
        def entries(group):
            return [{"rule": finding.rule, "severity": finding.severity,
                     "path": finding.path, "line": finding.line,
                     "message": finding.message} for finding in group]

        print(json.dumps({
            "findings": entries(findings),
            "suppressed": entries(result.suppressed),
            "counts": {
                "new": len(findings),
                "suppressed": len(result.suppressed),
                "modules": len(result.modules),
            },
            "flow_cache": result.flow_stats,
            "strict": bool(args.strict),
        }, indent=2, sort_keys=True))
    else:
        for finding in findings:
            print(finding.format())
        plural = "s" if len(findings) != 1 else ""
        summary = (f"{len(findings)} finding{plural} "
                   f"({len(result.suppressed)} noqa-suppressed) across "
                   f"{len(result.modules)} modules")
        if result.flow_stats is not None:
            summary += (f"; flow summaries: "
                        f"{result.flow_stats['computed']} computed, "
                        f"{result.flow_stats['cached']} cached")
        print(summary, file=sys.stderr)

    if args.strict and findings:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
