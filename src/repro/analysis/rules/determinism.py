"""Determinism rules: the simulator must be a pure function of its inputs.

Bit-identical replay is a load-bearing property here — the run loop's
equivalence with its every-cycle oracle, serial/parallel runner equivalence
and the content-hash case cache all assume that re-running a case
reproduces it exactly.
These rules flag the classic ways python code silently breaks that:

* ``DET001`` — wall-clock reads (``time.time``, argless ``datetime.now``);
* ``DET002`` — process-global or unseeded RNGs;
* ``DET003`` — iterating a ``set`` (order varies under hash randomisation);
* ``DET005`` — filesystem-order directory listings without ``sorted``;
* ``DET006`` — ``dict.keys()`` iteration (warning: order is insertion
  history, which is easy to perturb from call sites);
* ``DET008`` — timestamps feeding result ordering or content identity:
  ``ORDER BY <timestamp column>`` in SQL string constants, or a
  timestamp-named key inside a dict passed to a digest/hash/key function.
  The experiment store records wall-clock columns for operators; the moment
  one leaks into an ``ORDER BY`` that feeds results, or into a hashed
  payload, identical runs stop being identical.

Ordering by ``id()`` and order-sensitive float sums are judged by the
flow engine alone (FLOW002 and FLOAT001 in :mod:`.flowrules`): both are
a value reaching a sink, which the dataflow sees through names, helpers
and every code body.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Set

from repro.analysis.core import (
    ERROR,
    WARNING,
    Finding,
    ModuleInfo,
    Rule,
    register,
)

_WALL_CLOCK = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.clock_gettime",
    "datetime.datetime.utcnow", "datetime.datetime.today",
    "datetime.date.today",
}

#: ``datetime.now(tz)`` is as non-deterministic as the argless form, but the
#: issue here is *any* wall-clock read feeding results; both are flagged.
_WALL_CLOCK_ARGLESS = {"datetime.datetime.now"}

#: Module-level :mod:`random` functions — they share one process-global,
#: time-seeded generator, so any use is both unseeded and cross-coupled.
_GLOBAL_RANDOM_FNS = {
    "random", "uniform", "randint", "randrange", "getrandbits", "choice",
    "choices", "shuffle", "sample", "gauss", "normalvariate", "expovariate",
    "betavariate", "triangular", "vonmisesvariate", "paretovariate",
    "weibullvariate", "lognormvariate", "randbytes",
}

#: numpy constructors that are fine *when given a seed argument*.
_NUMPY_SEEDABLE = {"default_rng", "RandomState", "Generator", "SeedSequence"}

_LISTING_CALLS = {
    "os.listdir", "os.scandir", "os.walk", "glob.glob", "glob.iglob",
}

#: Path-object methods that yield entries in filesystem order.
_LISTING_METHODS = {"glob", "rglob", "iterdir"}


_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _iterables(node: ast.AST) -> List[ast.expr]:
    """What a ``for`` statement or a comprehension iterates over."""
    if isinstance(node, ast.For):
        return [node.iter]
    if isinstance(node, _COMPREHENSIONS):
        return [generator.iter for generator in node.generators]
    return []


def _sorted_ancestor(module: ModuleInfo, node: ast.AST) -> bool:
    """True when ``node`` sits (at any depth) inside a ``sorted(...)`` call."""
    for ancestor in module.ancestors(node):
        if (isinstance(ancestor, ast.Call)
                and isinstance(ancestor.func, ast.Name)
                and ancestor.func.id == "sorted"):
            return True
        if isinstance(ancestor, ast.stmt):
            break
    return False


@register
class WallClockRule(Rule):
    id = "DET001"
    severity = ERROR
    summary = ("wall-clock read (time.time / datetime.now): results must "
               "not depend on when a run happens")

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in module.nodes:
            if not isinstance(node, ast.Call):
                continue
            resolved = module.resolved_call_name(node)
            if resolved is None:
                continue
            if resolved in _WALL_CLOCK or resolved in _WALL_CLOCK_ARGLESS:
                yield self.finding(
                    module, node.lineno,
                    f"wall-clock read {resolved}(): simulation inputs and "
                    "outputs must not depend on real time (pass timestamps "
                    "in, or suppress for reporting-only timing)")


@register
class UnseededRandomRule(Rule):
    id = "DET002"
    severity = ERROR
    summary = ("process-global or unseeded RNG: use random.Random(seed) / "
               "numpy default_rng(seed) so runs replay bit-identically")

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in module.nodes:
            if not isinstance(node, ast.Call):
                continue
            resolved = module.resolved_call_name(node)
            if resolved is None:
                continue
            message = self._diagnose(node, resolved)
            if message:
                yield self.finding(module, node.lineno, message)

    @staticmethod
    def _diagnose(node: ast.Call, resolved: str) -> Optional[str]:
        has_args = bool(node.args or node.keywords)
        if resolved.startswith("random."):
            tail = resolved[len("random."):]
            if tail in _GLOBAL_RANDOM_FNS:
                return (f"{resolved}() draws from the process-global RNG; "
                        "construct an explicitly seeded random.Random(seed)")
            if tail == "Random" and not has_args:
                return ("random.Random() with no seed is seeded from the OS; "
                        "pass a deterministic seed")
            if tail == "seed" and not has_args:
                return ("random.seed() with no argument seeds from the "
                        "clock; pass a deterministic seed")
        if resolved.startswith("numpy.random."):
            tail = resolved[len("numpy.random."):]
            if tail in _NUMPY_SEEDABLE:
                if not has_args:
                    return (f"{resolved}() with no seed is entropy-seeded; "
                            "pass a deterministic seed")
                return None
            return (f"{resolved}() uses numpy's global RNG state; use a "
                    "seeded numpy.random.default_rng(seed) instance")
        return None


class _SetScope:
    """Names in one lexical scope whose value is statically known set-ish.

    Conservative two-pass per scope: a name counts only when every simple
    assignment to it in the scope is a set literal/comprehension or a
    ``set()``/``frozenset()`` call, so rebinding to a list disqualifies it.
    """

    def __init__(self) -> None:
        self.setish: Set[str] = set()
        self.disqualified: Set[str] = set()

    def observe(self, target: ast.AST, value: ast.AST) -> None:
        if not isinstance(target, ast.Name):
            return
        if _is_setish_expr(value, self):
            self.setish.add(target.id)
        else:
            self.disqualified.add(target.id)

    def is_setish_name(self, name: str) -> bool:
        return name in self.setish and name not in self.disqualified


def _is_setish_expr(node: ast.AST, scope: _SetScope) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")):
        return True
    if isinstance(node, ast.Name):
        return scope.is_setish_name(node.id)
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)):
        return (_is_setish_expr(node.left, scope)
                or _is_setish_expr(node.right, scope))
    return False


@register
class SetIterationRule(Rule):
    id = "DET003"
    severity = ERROR
    summary = ("iteration over a set: order varies with hash randomisation; "
               "wrap in sorted(...) before it can feed any decision")

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        # Each scope's assignments and loops, in walk order: ``b = a``
        # makes b set-ish only when a's assignment was seen first.
        by_scope: Dict[ast.AST, List[ast.AST]] = {}
        for node, scope_node in zip(module.nodes, module.scopes):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.For)
                          + _COMPREHENSIONS):
                by_scope.setdefault(scope_node, []).append(node)
        for body_nodes in by_scope.values():
            scope = _SetScope()
            for node in body_nodes:
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    scope.observe(node.targets[0], node.value)
                elif (isinstance(node, ast.AnnAssign)
                      and node.value is not None):
                    scope.observe(node.target, node.value)
            for node in body_nodes:
                for iterable in _iterables(node):
                    if (_is_setish_expr(iterable, scope)
                            and not _sorted_ancestor(module, iterable)):
                        yield self.finding(
                            module, iterable.lineno,
                            "iterating over a set is order-nondeterministic"
                            " under hash randomisation; iterate sorted(...)"
                            " instead")


@register
class FilesystemOrderRule(Rule):
    id = "DET005"
    severity = ERROR
    summary = ("directory listing in filesystem order: wrap os.listdir / "
               "glob / Path.glob in sorted(...)")

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in module.nodes:
            if not isinstance(node, ast.Call):
                continue
            resolved = module.resolved_call_name(node)
            label = None
            if resolved in _LISTING_CALLS:
                label = resolved
            elif (resolved is None and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _LISTING_METHODS):
                label = f".{node.func.attr}"
            if label is None:
                continue
            if _sorted_ancestor(module, node):
                continue
            yield self.finding(
                module, node.lineno,
                f"{label}() yields entries in filesystem order, which "
                "varies between machines and runs; wrap the listing in "
                "sorted(...)")


@register
class DictKeysIterationRule(Rule):
    id = "DET006"
    severity = WARNING
    summary = (".keys() iteration: order is insertion history; sort it if "
               "the loop feeds an ordering decision")

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in module.nodes:
            for iterable in _iterables(node):
                if (isinstance(iterable, ast.Call)
                        and isinstance(iterable.func, ast.Attribute)
                        and iterable.func.attr == "keys"
                        and not iterable.args and not iterable.keywords
                        and not _sorted_ancestor(module, iterable)):
                    yield self.finding(
                        module, iterable.lineno,
                        "iterating .keys() pins the order to insertion "
                        "history; iterate sorted(d) when order can affect "
                        "results (or drop .keys() if order is irrelevant)")


#: Column/key names that carry wall-clock values in this codebase (the
#: experiment store's operator-facing columns plus the generic spellings).
_TIMESTAMP_NAMES = ("claimed_at", "created_at", "finished_at", "started_at",
                    "timestamp", "updated_at")

#: Three-step match, tuned against prose false positives (docstrings are
#: string constants too): the string must contain an SQL verb, and a
#: timestamp name must appear in the column-list run directly after
#: ``ORDER BY`` (word characters, dots, commas, whitespace — how real SQL
#: spells it).  Documentation like ``ORDER BY <timestamp column>`` fails
#: both the verb gate and the column-list capture.
_SQL_VERB = re.compile(r"\b(SELECT|INSERT|UPDATE|DELETE|CREATE)\b")

_ORDER_BY_COLUMNS = re.compile(r"ORDER\s+BY\s+([\w.\s,]+)", re.IGNORECASE)

_TIMESTAMP_COLUMN = re.compile(
    r"\b(" + "|".join(_TIMESTAMP_NAMES) + r")\b", re.IGNORECASE)

#: A call is identity-forming when its name says it digests, hashes or keys
#: its payload (``_digest``, ``case_key``, ``experiment_spec_hash``, ...).
_IDENTITY_CALL_MARKERS = ("digest", "hash", "key")


@register
class TimestampIdentityRule(Rule):
    id = "DET008"
    severity = ERROR
    summary = ("timestamp feeding result ordering or content identity: "
               "ORDER BY <timestamp column> in SQL, or a timestamp key in "
               "a digest/hash/key payload")

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in module.nodes:
            if (isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and _SQL_VERB.search(node.value)):
                for order_by in _ORDER_BY_COLUMNS.finditer(node.value):
                    match = _TIMESTAMP_COLUMN.search(order_by.group(1))
                    if match:
                        yield self.finding(
                            module, node.lineno,
                            f"SQL orders rows by wall-clock column "
                            f"'{match.group(1)}'; rows that feed results "
                            "must be ordered by content-derived columns "
                            "(ids, indices), never by when they were "
                            "written")
                        break
            if isinstance(node, ast.Call):
                yield from self._check_identity_call(module, node)

    def _check_identity_call(self, module: ModuleInfo,
                             node: ast.Call) -> Iterator[Finding]:
        name = None
        if isinstance(node.func, ast.Name):
            name = node.func.id
        elif isinstance(node.func, ast.Attribute):
            name = node.func.attr
        if name is None:
            return
        lowered = name.lower()
        if not any(marker in lowered for marker in _IDENTITY_CALL_MARKERS):
            return
        arguments = list(node.args) + [kw.value for kw in node.keywords]
        for argument in arguments:
            if not isinstance(argument, ast.Dict):
                continue
            for key in argument.keys:
                if (isinstance(key, ast.Constant)
                        and isinstance(key.value, str)
                        and key.value in _TIMESTAMP_NAMES):
                    yield self.finding(
                        module, key.lineno,
                        f"dict passed to {name}() carries timestamp key "
                        f"'{key.value}': wall-clock values in a hashed "
                        "payload make identical inputs hash differently "
                        "on every run")
