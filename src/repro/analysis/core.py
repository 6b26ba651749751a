"""Shared machinery of the ``repro lint`` static analyzer.

The analyzer is a small AST-walking lint framework purpose-built for this
reproduction's invariants (see :mod:`repro.analysis.rules`):

* :class:`ModuleInfo` — one source file: its dotted module name, source
  hash, and everything derived from it lazily — the AST (parsed on
  first use), the node index every rule reads (one walk of the tree,
  with each node's enclosing scope), the import table, the def and
  class nodes by qualified name, a parent map and per-line ``# repro:
  noqa=RULE`` suppressions.  When the module's cache record is valid
  (:mod:`repro.analysis.records`), the import table comes from it and
  nothing parses the file unless a rule needs its tree;
* :class:`Project` — every analyzed module, addressable by dotted name,
  with the project-import closure that cross-module rules (cache-salt
  coverage) and the module records' closure keys share;
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
import hashlib
import pathlib
import re
from dataclasses import dataclass
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence, Set,
                    Tuple)

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

#: Nodes that open a scope of their own for the index and the body walks.
SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: One row of :attr:`ModuleInfo.imports`: ``(bound, origin, module, line)``.
ImportRow = Tuple[Optional[str], str, str, int]


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
    """One python source file plus the lookups rules keep needing."""

    def __init__(self, path: pathlib.Path, display: str, source: str,
                 tree: Optional[ast.Module] = None, *, name: str):
        self.path = path
        #: Root-relative posix path used in findings.
        self.display = display
        self.source = source
        self._tree = tree
        #: Dotted module name (``repro.sim.engine``), derived from the
        #: ``__init__.py`` chain above the file.
        self.name = name
        #: The module's cache record (a
        #: :class:`repro.analysis.records.ModuleRecord`) when one whose
        #: own-source key matches was loaded, else None.
        self.record = None
        self._source_hash: Optional[str] = None
        self._nodes: Optional[List[ast.AST]] = None
        self._scopes: Optional[List[ast.AST]] = None
        self._parents: Optional[Dict[ast.AST, ast.AST]] = None
        self._imports: Optional[List[ImportRow]] = None
        self._aliases: Optional[Dict[str, str]] = None
        self._definitions: Optional[Dict[Tuple[str, int], ast.AST]] = None
        self._symbols = None
        self._noqa: Optional[Dict[int, frozenset]] = None

    @property
    def tree(self) -> ast.Module:
        """The AST, parsed on first use (raises ``SyntaxError``)."""
        if self._tree is None:
            self._tree = ast.parse(self.source, filename=str(self.path))
        return self._tree

    @property
    def source_hash(self) -> str:
        """SHA-256 of the source text, hex."""
        if self._source_hash is None:
            self._source_hash = hashlib.sha256(
                self.source.encode()).hexdigest()
        return self._source_hash

    # ------------------------------------------------------------ node index

    @property
    def nodes(self) -> List[ast.AST]:
        """Every node of the tree in ``ast.walk`` order.  Rules read this
        instead of walking the tree themselves."""
        if self._nodes is None:
            self._index()
        return self._nodes

    @property
    def scopes(self) -> List[ast.AST]:
        """Parallel to :attr:`nodes`: the scope each node belongs to, the
        nearest def or class strictly above it, else the module root.  A
        def's decorators and defaults belong to the def's scope."""
        if self._scopes is None:
            self._index()
        return self._scopes

    def _index(self) -> None:
        """Build :attr:`nodes` and :attr:`scopes` in one breadth-first
        walk (the list grows while it is read)."""
        nodes: List[ast.AST] = [self.tree]
        scopes: List[ast.AST] = [self.tree]
        for index, node in enumerate(nodes):
            scope = node if isinstance(node, SCOPE_NODES) else scopes[index]
            for child in ast.iter_child_nodes(node):
                nodes.append(child)
                scopes.append(scope)
        self._nodes, self._scopes = nodes, scopes

    def parent_of(self, node: ast.AST) -> Optional[ast.AST]:
        """The syntactic parent of ``node`` (None for the module root);
        the map is built from the index on first use."""
        if self._parents is None:
            self._parents = {child: parent for parent in self.nodes
                             for child in ast.iter_child_nodes(parent)}
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self.parent_of(node)
        while current is not None:
            yield current
            current = self.parent_of(current)

    @property
    def definitions(self) -> Dict[Tuple[str, int], ast.AST]:
        """``(qualified name, line) -> node`` for every def and class at
        any depth, named as the call graph names them: a class member is
        ``Class.name``, a def nested in a function ``outer.<locals>.name``.
        """
        if self._definitions is None:
            found: Dict[Tuple[str, int], ast.AST] = {}
            pending = [(self.name, self.tree.body)]
            while pending:
                owner, body = pending.pop()
                for node in defs_in(body):
                    qname = f"{owner}.{node.name}"
                    found[(qname, node.lineno)] = node
                    pending.append((qname if isinstance(node, ast.ClassDef)
                                    else f"{qname}.<locals>", node.body))
            self._definitions = found
        return self._definitions

    @property
    def symbols(self):
        """The call graph's rows for this module
        (:class:`repro.analysis.callgraph.ModuleSymbols`): from the
        record, else read off the tree once."""
        if self._symbols is None:
            if self.record is not None:
                self._symbols = self.record.symbols
            else:
                from repro.analysis.callgraph import read_symbols
                self._symbols = read_symbols(self)
        return self._symbols

    # --------------------------------------------------------------- imports

    @property
    def imports(self) -> List[ImportRow]:
        """The import table, one row per imported name in walk order:
        the local name bound (None for ``*``), the absolute dotted name it
        stands for, the absolute name imported, and the line.  ``import
        a.b`` binds ``a`` to ``a`` and imports ``a.b``; ``from pkg import
        name`` imports ``pkg.name``, a module or a symbol of ``pkg``."""
        if self._imports is None and self.record is not None:
            self._imports = self.record.imports
        if self._imports is None:
            table: List[ImportRow] = []
            for node in self.nodes:
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        head = alias.name.split(".")[0]
                        table.append((alias.asname or head,
                                      alias.name if alias.asname else head,
                                      alias.name, node.lineno))
                elif isinstance(node, ast.ImportFrom):
                    base = self.resolve_import_from(node)
                    if base is None:
                        continue
                    for alias in node.names:
                        if alias.name == "*":
                            table.append((None, base, base, node.lineno))
                        else:
                            origin = f"{base}.{alias.name}"
                            table.append((alias.asname or alias.name,
                                          origin, origin, node.lineno))
            self._imports = table
        return self._imports

    @property
    def aliases(self) -> Dict[str, str]:
        """Local name -> absolute dotted origin, from the import table.

        ``import numpy as np`` maps ``np -> numpy``; ``from time import
        time as now`` maps ``now -> time.time``.  Bare ``import a.b``
        binds only ``a``, which maps to itself.
        """
        if self._aliases is None:
            self._aliases = {bound: origin
                             for bound, origin, _module, _line in self.imports
                             if bound is not None}
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
        form; consumers that care (the import closure) try the joined
        form first and fall back to the base module.
        """
        return [(module, line)
                for _bound, _origin, module, line in self.imports]

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
        #: The run's :class:`repro.analysis.records.RecordStore`, which
        #: writes the records this run computed; None for uncached runs.
        self.records = None
        self._closure: Optional[Dict[str, Set[str]]] = None

    def module(self, name: str) -> Optional[ModuleInfo]:
        return self.by_name.get(name)

    @property
    def import_closure(self) -> Dict[str, Set[str]]:
        """Display path -> display paths of every analyzed module it
        imports, directly or transitively (computed once per project).
        ``from pkg.mod import name`` tries module ``pkg.mod.name``, then
        ``pkg.mod``.  An iterated union, not a visited-guarded walk, so a
        module in an import cycle sees the whole cycle in any set order."""
        if self._closure is None:
            closure: Dict[str, Set[str]] = {}
            for module in self.modules:
                deps: Set[str] = set()
                for dotted, _line in module.imported_modules():
                    dep = (self.module(dotted)
                           or self.module(dotted.rpartition(".")[0]))
                    if dep is not None and dep.display != module.display:
                        deps.add(dep.display)
                closure[module.display] = deps
            changed = True
            while changed:
                changed = False
                for deps in closure.values():
                    extra: Set[str] = set()
                    for dep in sorted(deps):
                        extra |= closure[dep]
                    if not extra <= deps:
                        deps |= extra
                        changed = True
            self._closure = closure
        return self._closure


class Rule:
    """Base lint rule.  Subclasses set the class attributes and override
    :meth:`check_module` (``scope = "module"``) or :meth:`check_project`
    (``scope = "project"``, for cross-module invariants).  A module
    rule's findings are kept in the module's record and reused while the
    module's source is unchanged, so :meth:`check_module` may read only
    the module it is given."""

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


def defs_in(body: Sequence[ast.stmt]) -> Iterator[ast.stmt]:
    """The def and class statements of one code body, in source order,
    looking through compound statements but not into nested scopes."""
    stack = list(reversed(body))
    while stack:
        stmt = stack.pop()
        if isinstance(stmt, SCOPE_NODES):
            yield stmt
            continue
        children = [child for name in ("body", "handlers", "orelse",
                                       "finalbody", "cases")
                    for child in getattr(stmt, name, ())]
        stack.extend(reversed(children))


def scope_walk(body: Sequence[ast.stmt]) -> Iterator[ast.AST]:
    """Every node of one code body, depth first from its last statement,
    skipping nested defs and classes whole: they are scopes of their own."""
    stack: List[ast.AST] = [node for node in body
                            if not isinstance(node, SCOPE_NODES)]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(child for child in ast.iter_child_nodes(node)
                     if not isinstance(child, SCOPE_NODES))


def attribute_base(node: ast.AST) -> Optional[str]:
    """The root Name of an attribute chain (``ctx`` for ``ctx.epoch.ipc``)."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def module_name_for(path: pathlib.Path,
                    packages: Optional[Dict[pathlib.Path, List[str]]] = None
                    ) -> str:
    """Dotted module name implied by the ``__init__.py`` chain above a
    file.  ``packages`` memoises each directory's package path for
    callers that name many files."""
    path = path.resolve()
    parts = _package_parts(path.parent, {} if packages is None else packages)
    if path.name != "__init__.py":
        parts = parts + [path.stem]
    return ".".join(parts) if parts else path.stem


def _package_parts(directory: pathlib.Path,
                   packages: Dict[pathlib.Path, List[str]]) -> List[str]:
    parts = packages.get(directory)
    if parts is None:
        parts = []
        if (directory / "__init__.py").exists():
            parent = directory.parent
            parts = ([] if parent == directory
                     else _package_parts(parent, packages)) + [directory.name]
        packages[directory] = parts
    return parts
