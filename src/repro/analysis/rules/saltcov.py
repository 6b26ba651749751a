"""Cache-salt coverage: the content-hash cache must see every result-
affecting module.

:mod:`repro.harness.cache` keys persistent case records by a *code salt* —
a digest of the source files listed in its ``_SALTED`` tuple.  If a module
that can change simulation outcomes is missing from that list, editing it
leaves the salt unchanged and the cache silently serves stale results:
exactly the failure a reproduction cannot afford.

``SALT001`` rebuilds the ground truth statically: it takes the ``repro``
modules in the transitive import closure of the result-producing roots
(``repro.sim.engine``, ``repro.harness.runner`` and ``repro.serve.runner``
— co-run and serving results are cached under the same salt), as
:attr:`~repro.analysis.core.Project.import_closure` computes it over the
analyzed tree, expands ``_SALTED`` against the same tree, and flags every
closure module whose source file the salt does not cover.  ``SALT002``
flags salt entries that no longer exist on disk (a stale entry is dead
weight and usually means a rename slipped through).  Both read the
``_SALTED`` tuple from the *analyzed* AST — not the imported package —
so fixture trees and mid-refactor checkouts lint correctly.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from repro.analysis.core import ERROR, WARNING, Finding, Project, Rule, register

#: Module owning the ``_SALTED`` tuple.
CACHE_MODULE = "repro.harness.cache"

#: Result-producing entry points whose static import closure defines the
#: set of modules that can affect cached outcomes.
CLOSURE_ROOTS: Tuple[str, ...] = ("repro.sim.engine", "repro.harness.runner",
                                  "repro.serve.runner")

_SALT_TUPLE_NAME = "_SALTED"


def _find_salt_tuple(cache_module) -> Optional[Tuple[List[str], int]]:
    """``(entries, lineno)`` of the module-level ``_SALTED`` assignment."""
    for node in cache_module.tree.body:
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not (isinstance(target, ast.Name)
                and target.id == _SALT_TUPLE_NAME):
            continue
        if not isinstance(node.value, (ast.Tuple, ast.List)):
            return None
        entries = []
        for element in node.value.elts:
            if not (isinstance(element, ast.Constant)
                    and isinstance(element.value, str)):
                return None
            entries.append(element.value)
        return entries, node.lineno
    return None


def _salted_files(project: Project, cache_module,
                  entries: List[str]) -> Tuple[Set[str], List[str]]:
    """Expand ``_SALTED`` entries against the analyzed tree.

    Returns ``(covered, missing)``: ``covered`` is the set of
    package-relative posix paths the salt digests, ``missing`` the entries
    that match nothing on disk.
    """
    package_root = cache_module.path.resolve().parents[1]
    covered: Set[str] = set()
    missing: List[str] = []
    for entry in entries:
        path = package_root / entry
        if path.is_dir():
            sources = sorted(path.rglob("*.py"))
        elif path.is_file():
            sources = [path]
        else:
            missing.append(entry)
            continue
        covered.update(source.relative_to(package_root).as_posix()
                       for source in sources)
    return covered, missing


@register
class SaltCoverageRule(Rule):
    id = "SALT001"
    severity = ERROR
    scope = "project"
    summary = ("cache code salt does not cover a result-affecting module "
               "(transitively imported by the engine/runner): stale cached "
               "results would be served after editing it")

    def check_project(self, project: Project) -> Iterator[Finding]:
        cache_module = project.module(CACHE_MODULE)
        if cache_module is None:
            return
        located = _find_salt_tuple(cache_module)
        if located is None:
            yield self.finding(
                cache_module, 1,
                f"could not locate a literal {_SALT_TUPLE_NAME} tuple in "
                f"{CACHE_MODULE}; the salt-coverage check needs one")
            return
        entries, lineno = located
        covered, _missing = _salted_files(project, cache_module, entries)
        package_root = cache_module.path.resolve().parents[1]
        top_package = CACHE_MODULE.split(".")[0]
        reached: Set[str] = set()
        for root in CLOSURE_ROOTS:
            module = project.module(root)
            if module is not None:
                reached |= {module.display} | project.import_closure[
                    module.display]
        for display in sorted(reached):
            module = project.by_display[display]
            name = module.name
            if not (name == top_package
                    or name.startswith(top_package + ".")):
                continue
            try:
                relative = (module.path.resolve()
                            .relative_to(package_root).as_posix())
            except ValueError:
                continue  # outside the package (cannot be salted by path)
            if relative not in covered:
                yield self.finding(
                    cache_module, lineno,
                    f"{name} ({relative}) is transitively imported by the "
                    f"result-producing roots {', '.join(CLOSURE_ROOTS)} but "
                    f"is not covered by {_SALT_TUPLE_NAME}; editing it "
                    "would not invalidate cached case records")


@register
class SaltStaleEntryRule(Rule):
    id = "SALT002"
    severity = WARNING
    scope = "project"
    summary = ("cache code salt lists a path that no longer exists "
               "(renamed or deleted module)")

    def check_project(self, project: Project) -> Iterator[Finding]:
        cache_module = project.module(CACHE_MODULE)
        if cache_module is None:
            return
        located = _find_salt_tuple(cache_module)
        if located is None:
            return  # SALT001 already reports the missing tuple
        entries, lineno = located
        _covered, missing = _salted_files(project, cache_module, entries)
        for entry in missing:
            yield self.finding(
                cache_module, lineno,
                f"{_SALT_TUPLE_NAME} entry {entry!r} matches no file or "
                "directory under the package; remove or update the stale "
                "entry")
