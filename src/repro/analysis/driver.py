"""Analysis driver: collect sources, run rules, apply suppressions.

:func:`analyze_paths` is the programmatic entry point (the CLI and the
test suite both sit on it); :func:`check_source` is the one-snippet
convenience the analyzer's own tests use.

A cached run reads every source file and its module record
(:mod:`repro.analysis.records`).  A file whose record matches its source
is not parsed here: its module-rule findings come from the record, and
its tree is parsed later only if the flow engine or a project rule asks
for it.  Every other file is parsed at once, so a syntax error is
reported whether or not the cache is warm.  At the end the driver
writes the records the run recomputed.
"""

from __future__ import annotations

import os
import pathlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.analysis.core import (
    ERROR,
    Finding,
    ModuleInfo,
    Project,
    Rule,
    all_rules,
    module_name_for,
)
from repro.analysis.records import RecordStore, module_findings

#: Rule id used for files the parser rejects (not suppressible by design —
#: a file that does not parse cannot carry a trustworthy noqa comment).
PARSE_ERROR_RULE = "E999"

_SKIP_DIR_NAMES = {"__pycache__"}
_SKIP_DIR_SUFFIXES = (".egg-info",)

#: Environment override for the module-record cache: ``0``/``off`` (or
#: empty) disables it, any other value relocates the cache directory.
ENV_FLOW_CACHE = "REPRO_LINT_CACHE"
_CACHE_OFF_VALUES = {"", "0", "off", "no", "false"}


def default_flow_cache_dir(
        root: Optional[pathlib.Path]) -> Optional[pathlib.Path]:
    """Where module records cache for a repo-checkout run:
    ``benchmarks/.cache/analysis/`` next to the other derived artifacts
    (the case cache, the experiment store), or nowhere when ``root``
    does not look like a checkout."""
    if root is None:
        return None
    root = pathlib.Path(root)
    if (root / "benchmarks").is_dir():
        return root / "benchmarks" / ".cache" / "analysis"
    return None


def resolve_flow_cache_dir(root: Optional[pathlib.Path] = None,
                           explicit: Optional[pathlib.Path] = None,
                           enabled: bool = True) -> Optional[pathlib.Path]:
    """The record-cache directory to use, or ``None`` for uncached runs.

    Precedence: ``enabled=False`` wins, then an ``explicit`` directory,
    then :data:`ENV_FLOW_CACHE`, then :func:`default_flow_cache_dir`.
    """
    if not enabled:
        return None
    if explicit is not None:
        return pathlib.Path(explicit)
    env = os.environ.get(ENV_FLOW_CACHE)
    if env is not None:
        if env.strip().lower() in _CACHE_OFF_VALUES:
            return None
        return pathlib.Path(env)
    return default_flow_cache_dir(root)


def iter_python_files(paths: Iterable[pathlib.Path]) -> List[pathlib.Path]:
    """Every ``.py`` file under ``paths``, sorted, cache dirs skipped."""
    files: List[pathlib.Path] = []
    for path in paths:
        path = pathlib.Path(path)
        if path.is_dir():
            for source in sorted(path.rglob("*.py")):
                parts = source.parts
                if any(part in _SKIP_DIR_NAMES
                       or part.endswith(_SKIP_DIR_SUFFIXES)
                       for part in parts):
                    continue
                files.append(source)
        elif path.suffix == ".py":
            files.append(path)
    unique: Dict[pathlib.Path, None] = {}
    for source in files:
        unique.setdefault(source.resolve(), None)
    return sorted(unique)


def display_path(path: pathlib.Path, root: Optional[pathlib.Path]) -> str:
    """``path`` relative to ``root`` when under it, else absolute; both
    resolved already."""
    if root is not None:
        try:
            return path.relative_to(root).as_posix()
        except ValueError:
            pass
    return path.as_posix()


@dataclass
class AnalysisResult:
    """Everything one analyzer run produced."""

    findings: List[Finding] = field(default_factory=list)
    #: Findings silenced by an inline ``# repro: noqa`` comment.
    suppressed: List[Finding] = field(default_factory=list)
    modules: List[ModuleInfo] = field(default_factory=list)
    #: ``{"modules", "computed", "cached"}`` from the interprocedural
    #: flow engine, or ``None`` when no flow-backed rule ran.
    flow_stats: Optional[Dict[str, int]] = None

    @property
    def errors(self) -> List[Finding]:
        return [finding for finding in self.findings
                if finding.severity == ERROR]


def load_project(paths: Sequence[pathlib.Path],
                 root: Optional[pathlib.Path] = None,
                 records: Optional[RecordStore] = None
                 ) -> "tuple[Project, List[Finding]]":
    """Read every file under ``paths`` and load its record from
    ``records``; parse the files without a valid record, turning syntax
    errors into findings."""
    modules: List[ModuleInfo] = []
    parse_findings: List[Finding] = []
    root = pathlib.Path(root).resolve() if root is not None else None
    packages: Dict[pathlib.Path, List[str]] = {}
    for source_path in iter_python_files(paths):
        display = display_path(source_path, root)
        try:
            module = ModuleInfo(path=source_path, display=display,
                                source=source_path.read_text(),
                                name=module_name_for(source_path, packages))
            if records is not None:
                records.load(module)
            if module.record is None:
                module.tree  # parsed now, so a syntax error is reported
        except (SyntaxError, ValueError, OSError) as error:
            line = getattr(error, "lineno", None) or 1
            parse_findings.append(Finding(
                rule=PARSE_ERROR_RULE, severity=ERROR, path=display,
                line=line, message=f"file does not parse: {error}"))
            continue
        modules.append(module)
    return Project(modules), parse_findings


def select_rules(rule_ids: Optional[Sequence[str]] = None) -> List[Rule]:
    """The registered rules, optionally restricted to ``rule_ids``.

    Raises ``ValueError`` naming the unknown ids (and the known catalog)
    when a requested id does not exist.
    """
    registry = all_rules()
    if rule_ids is None:
        return [registry[rule_id] for rule_id in sorted(registry)]
    unknown = sorted(set(rule_ids) - set(registry))
    if unknown:
        raise ValueError(
            f"unknown rule id(s) {', '.join(unknown)}; known rules: "
            f"{', '.join(sorted(registry))}")
    return [registry[rule_id] for rule_id in sorted(set(rule_ids))]


def analyze_paths(paths: Sequence[pathlib.Path],
                  root: Optional[pathlib.Path] = None,
                  rule_ids: Optional[Sequence[str]] = None,
                  flow_cache: bool = True,
                  flow_cache_dir: Optional[pathlib.Path] = None
                  ) -> AnalysisResult:
    """Run the (selected) rule set over every python file under ``paths``.

    Findings on lines carrying a matching ``# repro: noqa[=RULE,...]``
    comment land in :attr:`AnalysisResult.suppressed` instead of
    :attr:`AnalysisResult.findings`.  Parse failures are reported as
    :data:`PARSE_ERROR_RULE` findings and are never suppressible.

    Interprocedural rules (FLOW/FLOAT/EFFECT) share one engine run per
    project.  Each module's record persists under the directory
    :func:`resolve_flow_cache_dir` picks (pass ``flow_cache=False`` or
    set ``REPRO_LINT_CACHE=0`` for a cold run every time).
    """
    rules = select_rules(rule_ids)
    cache_dir = resolve_flow_cache_dir(root=root, explicit=flow_cache_dir,
                                       enabled=flow_cache)
    records = RecordStore(cache_dir) if cache_dir is not None else None
    project, parse_findings = load_project(paths, root=root, records=records)
    project.records = records
    result = AnalysisResult(modules=project.modules)
    run_rules(rules, project, result)
    if records is not None:
        records.save(project.modules)
    flow = getattr(project, "_flow_analysis", None)
    if flow is not None:
        result.flow_stats = dict(flow.stats)
        # The engine refers back to the project: without this reference
        # the run's objects are freed with the result, not left to the
        # garbage collector.
        del project._flow_analysis
    result.findings.extend(parse_findings)
    result.findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    result.suppressed.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return result


def run_rules(rules: Sequence[Rule], project: Project,
              result: AnalysisResult) -> None:
    """Run ``rules`` over ``project``, adding each finding to
    ``result.findings`` or, when a noqa comment covers it, to
    ``result.suppressed``.  A module-scope rule's findings in a module
    with a valid record come from the record."""
    for rule in rules:
        if rule.scope == "project":
            raw: Iterable[Finding] = rule.check_project(project)
        else:
            raw = (finding for module in project.modules
                   for finding in module_findings(rule, module,
                                                  project.records))
        for finding in raw:
            module = project.by_display.get(finding.path)
            if module is not None and module.suppresses(finding):
                result.suppressed.append(finding)
            else:
                result.findings.append(finding)


def check_source(source: str, path: str = "snippet.py",
                 name: Optional[str] = None,
                 rule_ids: Optional[Sequence[str]] = None) -> List[Finding]:
    """Lint one in-memory snippet (module-scope rules only see one module;
    project-scope rules run too but skip when their anchor modules are
    absent).  ``name`` defaults to the stem of ``path``."""
    rules = select_rules(rule_ids)
    module = ModuleInfo(path=pathlib.Path(path), display=path, source=source,
                        name=name or pathlib.Path(path).stem)
    module.tree  # a snippet that does not parse raises here
    result = AnalysisResult(modules=[module])
    run_rules(rules, Project([module]), result)
    return sorted(result.findings, key=lambda f: (f.line, f.rule, f.message))
