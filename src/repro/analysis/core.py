"""Shared machinery of the ``repro lint`` static analyzer.

The analyzer is a small AST-walking lint framework purpose-built for this
reproduction's invariants (see :mod:`repro.analysis.rules`):

* :class:`ModuleInfo` — one parsed source file: its dotted module name,
  AST (with a lazily-built parent map), import-alias table and per-line
  ``# repro: noqa=RULE`` suppressions;
* :class:`Project` — every analyzed module, addressable by dotted name,
  which is what cross-module rules (cache-salt coverage, telemetry schema
  sync) operate on;
* :class:`Rule` — base class; a rule either checks one module at a time
  (``scope = "module"``) or the whole project (``scope = "project"``) and
  yields :class:`Finding`\\ s;
* the rule registry (:func:`register`, :func:`all_rules`) that the driver
  and CLI enumerate.

Everything here is stdlib-only and independent of the simulator runtime,
so the linter can analyze broken or partial trees (fixtures, mid-refactor
checkouts) without importing them.
"""

from __future__ import annotations

import ast
import pathlib
import re
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

#: Severity labels.  ``ERROR`` findings are invariant violations; ``WARNING``
#: findings are hazards that may be legitimate but deserve a look (both fail
#: ``--strict`` unless suppressed — severity is a label for the reader, not
#: an exit-code class).
ERROR = "error"
WARNING = "warning"

#: Sentinel: a bare ``# repro: noqa`` suppresses every rule on its line.
ALL_RULES = "*"

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\s*=\s*(?P<rules>[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*))?")


@dataclass(frozen=True)
class Finding:
    """One lint finding, anchored to a file and line."""

    rule: str
    severity: str
    path: str
    line: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} [{self.severity}] {self.message}"


class ModuleInfo:
    """One parsed python source file plus the lookups rules keep needing."""

    def __init__(self, path: pathlib.Path, display: str, source: str,
                 tree: ast.Module, name: str):
        self.path = path
        #: Root-relative posix path used in findings.
        self.display = display
        self.source = source
        self.tree = tree
        #: Dotted module name (``repro.sim.engine``), derived from the
        #: ``__init__.py`` chain above the file.
        self.name = name
        self._parents: Optional[Dict[ast.AST, ast.AST]] = None
        self._aliases: Optional[Dict[str, str]] = None
        self._noqa: Optional[Dict[int, frozenset]] = None

    # ------------------------------------------------------------ AST helpers

    def parent_of(self, node: ast.AST) -> Optional[ast.AST]:
        """The syntactic parent of ``node`` (None for the module root)."""
        if self._parents is None:
            parents: Dict[ast.AST, ast.AST] = {}
            for parent in ast.walk(self.tree):
                for child in ast.iter_child_nodes(parent):
                    parents[child] = parent
            self._parents = parents
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self.parent_of(node)
        while current is not None:
            yield current
            current = self.parent_of(current)

    @property
    def aliases(self) -> Dict[str, str]:
        """Local name -> absolute dotted origin, from import statements.

        ``import numpy as np`` maps ``np -> numpy``; ``from time import
        time as now`` maps ``now -> time.time``.  Bare ``import a.b``
        binds only ``a``, which maps to itself.
        """
        if self._aliases is None:
            aliases: Dict[str, str] = {}
            for node in ast.walk(self.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.asname:
                            aliases[alias.asname] = alias.name
                        else:
                            head = alias.name.split(".")[0]
                            aliases[head] = head
                elif isinstance(node, ast.ImportFrom):
                    base = self.resolve_import_from(node)
                    if base is None:
                        continue
                    for alias in node.names:
                        if alias.name == "*":
                            continue
                        aliases[alias.asname or alias.name] = (
                            f"{base}.{alias.name}")
            self._aliases = aliases
        return self._aliases

    def resolve_import_from(self, node: ast.ImportFrom) -> Optional[str]:
        """Absolute dotted base of a ``from X import ...`` statement
        (resolving explicit-relative imports against this module's name)."""
        if node.level == 0:
            return node.module
        parts = self.name.split(".")
        if self.path.name == "__init__.py":
            parts.append("")  # the package itself counts as one level
        if node.level > len(parts):
            return node.module
        base_parts = parts[:len(parts) - node.level]
        if node.module:
            base_parts.append(node.module)
        return ".".join(part for part in base_parts if part) or None

    def imported_modules(self) -> List[Tuple[str, int]]:
        """Every absolute module name this file imports, with line numbers.

        ``from pkg import name`` is reported as ``pkg.name`` *and* ``pkg``
        cannot be distinguished statically, so the caller gets the joined
        form; consumers that care (the salt-coverage closure) try the
        joined form first and fall back to the base module.
        """
        found: List[Tuple[str, int]] = []
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                found.extend((alias.name, node.lineno) for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                base = self.resolve_import_from(node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        found.append((base, node.lineno))
                    else:
                        found.append((f"{base}.{alias.name}", node.lineno))
        return found

    def resolved_call_name(self, node: ast.Call) -> Optional[str]:
        """Absolute dotted name of a call target, or None.

        ``np.random.choice(...)`` resolves to ``numpy.random.choice`` when
        the module imported ``numpy as np``; a call on a local object
        (``rng.choice(...)``) resolves to None unless ``rng`` is an import
        alias.
        """
        dotted = dotted_name(node.func)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        origin = self.aliases.get(head)
        if origin is None:
            return None
        return f"{origin}.{rest}" if rest else origin

    # ----------------------------------------------------------- suppressions

    def noqa_rules(self, line: int) -> frozenset:
        """Rule ids suppressed on ``line`` (may contain :data:`ALL_RULES`)."""
        if self._noqa is None:
            noqa: Dict[int, frozenset] = {}
            for lineno, text in enumerate(self.source.splitlines(), start=1):
                match = _NOQA_RE.search(text)
                if not match:
                    continue
                rules = match.group("rules")
                if rules is None:
                    noqa[lineno] = frozenset((ALL_RULES,))
                else:
                    noqa[lineno] = frozenset(
                        rule.strip() for rule in rules.split(","))
            self._noqa = noqa
        return self._noqa.get(line, frozenset())

    def suppresses(self, finding: Finding) -> bool:
        suppressed = self.noqa_rules(finding.line)
        return ALL_RULES in suppressed or finding.rule in suppressed


class Project:
    """Every module under analysis, addressable by dotted name."""

    def __init__(self, modules: Iterable[ModuleInfo]):
        self.modules: List[ModuleInfo] = list(modules)
        self.by_name: Dict[str, ModuleInfo] = {
            module.name: module for module in self.modules}
        self.by_display: Dict[str, ModuleInfo] = {
            module.display: module for module in self.modules}

    def module(self, name: str) -> Optional[ModuleInfo]:
        return self.by_name.get(name)

    def has_module(self, name: str) -> bool:
        return name in self.by_name


class Rule:
    """Base lint rule.  Subclasses set the class attributes and override
    :meth:`check_module` (``scope = "module"``) or :meth:`check_project`
    (``scope = "project"``, for cross-module invariants)."""

    id: str = ""
    severity: str = ERROR
    scope: str = "module"
    #: One-line description shown by ``repro lint --list-rules``.
    summary: str = ""

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        return iter(())

    def check_project(self, project: Project) -> Iterator[Finding]:
        return iter(())

    def finding(self, module: ModuleInfo, line: int, message: str) -> Finding:
        return Finding(rule=self.id, severity=self.severity,
                       path=module.display, line=line, message=message)


# ---------------------------------------------------------------- registry

_REGISTRY: Dict[str, Rule] = {}


def register(rule_class):
    """Class decorator: instantiate the rule and add it to the registry."""
    rule = rule_class()
    if not rule.id:
        raise ValueError(f"{rule_class.__name__} has no rule id")
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id}")
    _REGISTRY[rule.id] = rule
    return rule_class


def all_rules() -> Dict[str, Rule]:
    """The registry, importing the built-in rule modules on first use."""
    from repro.analysis import rules as _rules  # noqa: F401 (registration)
    return dict(_REGISTRY)


# ------------------------------------------------------------- AST utilities

def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an Attribute/Name chain, None for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def attribute_base(node: ast.AST) -> Optional[str]:
    """The root Name of an attribute chain (``ctx`` for ``ctx.epoch.ipc``)."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def module_name_for(path: pathlib.Path) -> str:
    """Dotted module name implied by the ``__init__.py`` chain above a file."""
    path = path.resolve()
    parts: List[str] = [] if path.name == "__init__.py" else [path.stem]
    directory = path.parent
    while (directory / "__init__.py").exists():
        parts.insert(0, directory.name)
        parent = directory.parent
        if parent == directory:
            break
        directory = parent
    return ".".join(parts) if parts else path.stem
