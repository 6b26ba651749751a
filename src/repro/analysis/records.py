"""Module records: the analyzer's one on-disk cache.

Each analyzed module gets one JSON record in the cache directory
(``benchmarks/.cache/analysis/`` in a checkout; see
:func:`repro.analysis.driver.resolve_flow_cache_dir`), named by a hash
of its display path and holding everything derived from the module, in
two sections under keys of their own:

* the **own-source section**, keyed by the module's source, display
  path, dotted name, the registered module-scope rule ids and the
  analyzer salt: the raw findings of every module-scope rule, the import
  table, and the call graph's symbol rows
  (:class:`~repro.analysis.callgraph.ModuleSymbols`);
* the **closure section**, keyed by the module's source and the sources
  of its project-import closure (plus the salt): the flow engine's
  :class:`~repro.analysis.flow.FunctionFacts` for the module's functions
  and its flow findings.

A module whose own-source section is valid is not parsed to be linted:
its module-rule findings, import table and symbols come from the record.
It is parsed only when its closure section is stale (the flow engine
must summarise it again) or a project rule reads its tree.  A record
that does not read, does not validate, or was written for another path,
name or analyzer is ignored and rewritten, so the result is the same
as an uncached run's.

This module owns the format: :meth:`RecordStore.load` reads and
validates, :func:`closure_section` hands the flow engine a valid closure
section, and :meth:`RecordStore.save` writes what the run computed.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import sys
from typing import Callable, Dict, Iterable, List, Optional, Tuple, TypeVar

from repro.analysis.callgraph import ModuleSymbols
from repro.analysis.core import (Finding, ImportRow, ModuleInfo, Project,
                                 Rule, all_rules)

T = TypeVar("T")

#: Bumped when the record layout changes.
RECORD_VERSION = 2

_SALT: List[str] = []


def analysis_salt() -> str:
    """Content hash of the analyzer's own sources and of the Python
    version that parses the modules: editing any rule or the engine, or
    switching interpreters, invalidates every record."""
    if not _SALT:
        package_root = pathlib.Path(__file__).resolve().parent
        digest = hashlib.sha256(sys.version.encode())
        for source in sorted(package_root.rglob("*.py")):
            digest.update(source.name.encode())
            try:
                digest.update(source.read_bytes())
            except OSError:
                continue
        _SALT.append(digest.hexdigest())
    return _SALT[0]


def closure_keys(project: Project) -> Dict[str, str]:
    """Key of each module's closure section, by display path: its own
    source and the display path and source of every analyzed module it
    imports, directly or transitively."""
    closure = project.import_closure
    salt = analysis_salt()
    keys: Dict[str, str] = {}
    for module in project.modules:
        digest = hashlib.sha256()
        digest.update(salt.encode())
        digest.update(module.source_hash.encode())
        for dep in sorted(closure[module.display]):
            digest.update(dep.encode())
            digest.update(project.by_display[dep].source_hash.encode())
        keys[module.display] = digest.hexdigest()
    return keys


class ModuleRecord:
    """A loaded record whose own-source section matches its module.
    Reading it unpacks every row, so a record of another layout raises
    here, not later."""

    def __init__(self, payload: dict):
        own = payload["own"]
        #: Rule id -> ``(line, message)`` of each raw finding.
        self.findings: Dict[str, List[Tuple[int, str]]] = {
            rule_id: [(line, message) for line, message in found]
            for rule_id, found in own["findings"].items()}
        self.imports: List[ImportRow] = [
            (bound, origin, module, line)
            for bound, origin, module, line in own["imports"]]
        symbols = own["symbols"]
        self.symbols = ModuleSymbols(
            dict(symbols["scope"]),
            [(qname, line, owner, tuple(params), tuple(decorators),
              enclosing, tuple(ctx))
             for qname, line, owner, params, decorators, enclosing, ctx
             in symbols["functions"]],
            [(qname, line, tuple(bases))
             for qname, line, bases in symbols["classes"]])
        self.payload = payload


def closure_section(module: ModuleInfo, key: str, decode: Callable[[dict], T]
                    ) -> Optional[Tuple[Dict[str, T], List[dict]]]:
    """``(facts by qname, flow findings)`` from the module's record when
    its closure section is valid under ``key``; ``decode`` reads one
    function's facts (:meth:`FunctionFacts.from_dict`)."""
    if module.record is None:
        return None
    section = module.record.payload.get("closure")
    if not isinstance(section, dict) or section.get("key") != key:
        return None
    try:
        facts = {qname: decode(payload)
                 for qname, payload in section["facts"].items()}
        findings = [{"rule": finding["rule"], "line": finding["line"],
                     "message": finding["message"]}
                    for finding in section["findings"]]
    except (KeyError, TypeError, ValueError, AttributeError):
        return None
    return facts, findings


def module_findings(rule: Rule, module: ModuleInfo,
                    store: Optional["RecordStore"] = None) -> List[Finding]:
    """The raw findings of module-scope ``rule`` in ``module``: from its
    record when it has a valid one, else by running the rule (and kept
    in ``store`` for the record it will write)."""
    if module.record is not None:
        return [rule.finding(module, line, message)
                for line, message in module.record.findings.get(rule.id, ())]
    if store is None:
        return list(rule.check_module(module))
    computed = store.findings.setdefault(module.display, {})
    if rule.id not in computed:
        computed[rule.id] = list(rule.check_module(module))
    return computed[rule.id]


class RecordStore:
    """The records of one analyzer run: loads each module's record and
    writes back the ones the run recomputed."""

    def __init__(self, cache_dir: pathlib.Path):
        self.cache_dir = pathlib.Path(cache_dir)
        registry = all_rules()
        #: Every registered module-scope rule: a record holds the
        #: findings of each.
        self.rules = [registry[rule_id] for rule_id in sorted(registry)
                      if registry[rule_id].scope == "module"]
        #: Display path -> rule id -> findings computed this run.
        self.findings: Dict[str, Dict[str, List[Finding]]] = {}
        #: Display path -> closure section computed this run.
        self.closures: Dict[str, dict] = {}

    def own_key(self, module: ModuleInfo) -> str:
        """Key of the module's own-source section."""
        digest = hashlib.sha256()
        for part in (analysis_salt(), module.display, module.name,
                     ",".join(rule.id for rule in self.rules),
                     module.source_hash):
            digest.update(part.encode())
            digest.update(b"\0")
        return digest.hexdigest()

    def path(self, display: str) -> pathlib.Path:
        stem = hashlib.sha256(display.encode()).hexdigest()[:24]
        return self.cache_dir / f"{stem}.json"

    def load(self, module: ModuleInfo) -> None:
        """Set ``module.record`` to its record when one reads, validates
        and matches the module's own source, else leave it None."""
        try:
            payload = json.loads(self.path(module.display).read_text())
            if (payload["version"] == RECORD_VERSION
                    and payload["display"] == module.display
                    and payload["name"] == module.name
                    and payload["own"]["key"] == self.own_key(module)):
                module.record = ModuleRecord(payload)
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            module.record = None

    def set_closure(self, module: ModuleInfo, key: str,
                    facts: Dict[str, dict], findings: List[dict]) -> None:
        self.closures[module.display] = {"key": key, "facts": facts,
                                         "findings": findings}

    def save(self, modules: Iterable[ModuleInfo]) -> None:
        """Write the record of every module this run recomputed a section
        of.  A fresh own-source section runs the module-scope rules the
        run did not select; a directory that cannot be written leaves
        the cache as it was."""
        for module in modules:
            closure = self.closures.get(module.display)
            if module.record is not None:
                if closure is None:
                    continue
                payload = dict(module.record.payload, closure=closure)
            else:
                payload = {"version": RECORD_VERSION,
                           "display": module.display, "name": module.name,
                           "own": self._own_section(module),
                           "closure": closure}
            path = self.path(module.display)
            temporary = path.with_name(f"{path.name}.{os.getpid()}.tmp")
            try:
                self.cache_dir.mkdir(parents=True, exist_ok=True)
                temporary.write_text(json.dumps(payload, sort_keys=True))
                os.replace(temporary, path)
            except OSError:
                return

    def _own_section(self, module: ModuleInfo) -> dict:
        findings = {rule.id: [[finding.line, finding.message]
                              for finding in module_findings(rule, module,
                                                             self)]
                    for rule in self.rules}
        symbols = module.symbols
        return {"key": self.own_key(module), "findings": findings,
                "imports": module.imports,
                "symbols": {"scope": symbols.scope,
                            "functions": symbols.functions,
                            "classes": symbols.classes}}
