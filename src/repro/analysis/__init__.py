"""``repro.analysis`` — a static determinism & layering linter ("repro lint").

The reproduction's credibility rests on invariants that used to be enforced
only dynamically and piecemeal: bit-identical results across idle skipping
and serial/parallel runners, policies that never poke the engine, a
content-hash cache whose code salt covers every result-affecting module,
and telemetry export that never changes a result.  This package checks
those properties statically over the whole tree:

* :mod:`repro.analysis.core` — the framework: findings, rules, modules,
  the registry, ``# repro: noqa=RULE`` suppressions;
* :mod:`repro.analysis.rules` — the built-in rule catalog (determinism,
  flow taint, effect contracts, layering contracts, cache-salt coverage);
* :mod:`repro.analysis.driver` — :func:`analyze_paths` /
  :func:`check_source`, the programmatic entry points;
* :mod:`repro.analysis.records` — one cache record per module, so a warm
  run parses only what changed;
* :mod:`repro.analysis.cli` — the ``repro lint`` subcommand.

Nothing in the simulator runtime imports this package (enforced by the
``runtime-analysis-independence`` contract — by the linter itself).
"""

from repro.analysis.core import (
    ALL_RULES,
    ERROR,
    WARNING,
    Finding,
    ModuleInfo,
    Project,
    Rule,
    all_rules,
    register,
)
from repro.analysis.driver import (
    AnalysisResult,
    analyze_paths,
    check_source,
    select_rules,
)

__all__ = [
    "ALL_RULES",
    "ERROR",
    "WARNING",
    "AnalysisResult",
    "Finding",
    "ModuleInfo",
    "Project",
    "Rule",
    "all_rules",
    "analyze_paths",
    "check_source",
    "register",
    "select_rules",
]
