"""Interprocedural dataflow: taint, shapes, effects, and summaries.

This is the engine under the FLOW/EFFECT/FLOAT rules.  Per function it
runs a worklist dataflow over a small CFG, abstracting every value as an
:class:`AbsValue` — a set of taint :class:`Tag`\\ s (where did this value
come from: wall clock, unseeded RNG, ``id()``, a filesystem listing, set
iteration, or a *parameter*) plus a set of **shapes** (is it an unordered
set, a filesystem listing, a parallel-worker result list).  Parameters
enter tainted with their own provenance, so one pass per function yields
both the local findings *and* the function's :class:`FunctionFacts`
summary: what it returns (in terms of its parameters and of fresh
sources), which parameters flow into which sinks inside it, and its
effects (mutates / IO).  An interprocedural fixpoint
(:class:`ProjectFlowAnalysis`) iterates summaries to convergence: every
call resolves once, through :meth:`ProjectFlowAnalysis.resolve`, which
records the caller edge, and a function whose summary changes re-queues
its recorded callers.  One reporting pass then materialises findings
with full source→sink traces.

Every code body is read: functions and methods at any depth (a nested
def gets a summary of its own), class bodies, lambda bodies and the
module top level.  Decorators, default values and class bases are
evaluated in the body that runs them, the enclosing one.  A function
reaches a nested def's effects and taint only by calling it: a bare
call to a def or class an enclosing function binds resolves to its
``<locals>`` name.

Sanitizers are modeled, not pattern-matched: ``sorted(...)`` strips
order provenance, ``math.fsum(...)`` makes a float reduction
order-robust, and a seeded RNG never becomes a source in the first
place — so the "same path but mediated" twin of a finding analyses
clean instead of being special-cased.

A module's summaries and flow findings are the closure section of its
record (:mod:`repro.analysis.records`), keyed by a content hash of the
module, its project-import closure and the analyzer itself: the engine
summarises only the modules whose section is stale, parsing them on
first use, and hands the sections it computed back to the record store.
A parameter sink keeps one witness trace per (parameter, rule, sink,
line), as a taint keeps one per (source, parameter), so summaries do
not grow with the number of call paths.

Everything here is stdlib-only and best-effort: unknown calls
conservatively merge their argument taints, and unknown receivers fall
back to name heuristics.
"""

from __future__ import annotations

import ast
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.analysis.callgraph import (
    CallGraph,
    CallTarget,
    FunctionInfo,
    _function_params,
    build_callgraph,
)
from repro.analysis.core import (ModuleInfo, Project, defs_in, dotted_name,
                                 scope_walk)
from repro.analysis.records import closure_keys, closure_section

# NOTE: rules/__init__ imports determinism before the flow rules, so these
# tables are always initialised by the time this module loads.
from repro.analysis.rules.determinism import (  # noqa: E402
    _LISTING_CALLS,
    _LISTING_METHODS,
    _WALL_CLOCK,
    _WALL_CLOCK_ARGLESS,
    UnseededRandomRule,
)

#: Traces stop growing past this many hops (keeps recursion convergent).
MAX_TRACE_HOPS = 8

#: Taint kinds whose *order* is the hazard vs. whose *value* is.
ORDER_KINDS = frozenset({"fs-order", "set-order"})
VALUE_KINDS = frozenset({"time", "rng", "id"})

#: Shapes: structural facts about a value that matter to order-sensitive
#: consumers.  ``@ret``-suffixed variants mark shapes that crossed a call
#: boundary (came out of a helper), so a finding can say so.
SHAPE_SET = "set"
SHAPE_LISTING = "listing"
SHAPE_PARALLEL = "parallel"

#: Substrings marking a call as identity-critical (cache keys, spec
#: hashes, digest construction) — same convention as DET008.
IDENTITY_MARKERS = ("digest", "hash", "key")

#: Calls whose ``key=`` decides an order (FLOW002 sinks).
_ORDERING_CALLS = frozenset({"sorted", "sort", "min", "max", "nsmallest",
                             "nlargest", "merge"})

#: Call names that record telemetry / trace output (FLOW003 sinks).
TELEMETRY_SINKS = frozenset({
    "note_quota", "write_trace", "EpochRecord", "KernelEpochRecord",
    "TBMove",
})

#: ``pool.map``-style producers and the shape of what they return: the
#: element order is the runner's business.  A method call by one of these
#: names carries the shape whatever it resolves to.
_PRODUCER_SHAPES = {
    "sweep": SHAPE_PARALLEL, "map": SHAPE_PARALLEL, "imap": SHAPE_PARALLEL,
    "starmap": SHAPE_PARALLEL, "map_async": SHAPE_PARALLEL,
    "starmap_async": SHAPE_PARALLEL, "imap_unordered": SHAPE_SET,
}

_SANITIZER_DOC = ("wrap in sorted(...), accumulate with math.fsum(...), "
                  "or seed the source")


@dataclass(frozen=True, order=True)
class Tag:
    """One unit of provenance attached to an abstract value."""

    kind: str  # "time" | "rng" | "id" | "fs-order" | "set-order" | "param"
    desc: str
    path: str
    line: int
    trace: Tuple[str, ...] = ()
    param: int = -1  # >= 0: parameter provenance (index into params)

    @property
    def is_param(self) -> bool:
        return self.param >= 0

    def hop(self, text: str) -> "Tag":
        if len(self.trace) >= MAX_TRACE_HOPS:
            return self
        return Tag(self.kind, self.desc, self.path, self.line,
                   self.trace + (text,), self.param)

    def chain(self, sink: str) -> str:
        parts = [f"{self.desc} [{self.path}:{self.line}]"]
        parts.extend(self.trace)
        parts.append(sink)
        return " -> ".join(parts)


def one_witness(items, group_of) -> frozenset:
    """One item per ``group_of(item)``: the one with the shortest trace,
    ties broken by the smallest.

    Joins would otherwise retain one trace variant per call path, which
    explodes on diamond-shaped call graphs; any single witness trace is
    enough for a finding.
    """
    best: Dict[tuple, object] = {}
    for item in items:
        group = group_of(item)
        kept = best.get(group)
        if kept is None or (len(item.trace), item.trace) < (len(kept.trace),
                                                            kept.trace):
            best[group] = item
    return frozenset(best.values())


def normalize_tags(taints) -> frozenset:
    """One tag per (kind, desc, location, param)."""
    return one_witness(taints, lambda tag: (tag.kind, tag.desc, tag.path,
                                            tag.line, tag.param))


def normalize_sinks(sinks) -> frozenset:
    """One :class:`ParamSink` per (param, rule, sink, location)."""
    return one_witness(sinks, lambda sink: (sink.param, sink.rule, sink.sink,
                                            sink.path, sink.line))


@dataclass(frozen=True)
class AbsValue:
    """Abstract value: taint provenance plus structural shapes."""

    taints: frozenset = frozenset()
    shapes: frozenset = frozenset()

    def join(self, other: "AbsValue") -> "AbsValue":
        if not other.taints and not other.shapes:
            return self
        if not self.taints and not self.shapes:
            return other
        return AbsValue(normalize_tags(self.taints | other.taints),
                        self.shapes | other.shapes)

    @property
    def param_tags(self) -> List[Tag]:
        return sorted((tag for tag in self.taints if tag.is_param),
                      key=lambda t: t.param)


EMPTY = AbsValue()


def union_values(values: Sequence[AbsValue]) -> AbsValue:
    result = EMPTY
    for value in values:
        result = result.join(value)
    return result


@dataclass(frozen=True, order=True)
class ParamSink:
    """"Parameter ``param`` reaches sink ``sink`` inside this function"."""

    param: int
    rule: str
    sink: str
    path: str
    line: int
    trace: Tuple[str, ...] = ()


@dataclass(frozen=True)
class FunctionFacts:
    """Interprocedural summary of one function."""

    #: Abstract return value; ``param``-kind tags mean "returns a value
    #: derived from parameter i".
    ret: AbsValue = EMPTY
    #: Sinks inside this function that its parameters flow into.
    param_sinks: frozenset = frozenset()
    #: Effects.
    io: bool = False
    #: Mutation roots: ``"param:<name>"`` or ``"global"``.
    mutates: frozenset = frozenset()

    def to_dict(self) -> dict:
        """JSON form, lists sorted on every field so that equal facts
        serialize to equal bytes under any hash seed."""
        return {
            "ret_taints": [asdict(tag) for tag in sorted(self.ret.taints)],
            "ret_shapes": sorted(self.ret.shapes),
            "param_sinks": [asdict(sink) for sink in sorted(self.param_sinks)],
            "io": self.io,
            "mutates": sorted(self.mutates),
        }

    @staticmethod
    def from_dict(payload: dict) -> "FunctionFacts":
        def load(record_type, fields: dict):
            return record_type(**dict(fields, trace=tuple(fields["trace"])))

        return FunctionFacts(
            ret=AbsValue(
                frozenset(load(Tag, tag) for tag in payload["ret_taints"]),
                frozenset(payload["ret_shapes"])),
            param_sinks=frozenset(load(ParamSink, sink)
                                  for sink in payload["param_sinks"]),
            io=payload["io"],
            mutates=frozenset(payload["mutates"]))


EMPTY_FACTS = FunctionFacts()


# --------------------------------------------------------------------- CFG


class _Block:
    __slots__ = ("index", "steps", "succ")

    def __init__(self, index: int):
        self.index = index
        self.steps: List[tuple] = []
        #: Successor block indices (indices, not blocks: a loop would make
        #: the graph a reference cycle only the garbage collector frees).
        self.succ: List[int] = []

    def link(self, *blocks: "_Block") -> None:
        self.succ.extend(block.index for block in blocks)


class _CFG:
    def __init__(self) -> None:
        self.blocks: List[_Block] = []
        self.entry = self.new()
        self.exit = self.new()

    def new(self) -> _Block:
        block = _Block(len(self.blocks))
        self.blocks.append(block)
        return block


def build_cfg(body: Sequence[ast.stmt]) -> _CFG:
    """A statement-level CFG good enough for taint joins.

    Branches join, loops iterate (the worklist runs the back edge to a
    fixpoint), ``try`` handlers conservatively join the states before and
    after the protected body.  A nested ``def``/``class`` contributes what
    runs where it stands: its decorators and defaults, or its bases and
    class keywords; its body is a body of its own.
    """
    cfg = _CFG()
    tail = _emit(cfg, body, cfg.entry, [])
    if tail is not None:
        tail.link(cfg.exit)
    return cfg


def _emit(cfg: _CFG, stmts: Sequence[ast.stmt], current: Optional[_Block],
          loops: List[Tuple[_Block, _Block]]) -> Optional[_Block]:
    for stmt in stmts:
        if current is None:  # unreachable code after return/raise/break
            return None
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            current.steps.append(("stmt", stmt))
        elif isinstance(stmt, ast.Expr):
            current.steps.append(("expr", stmt.value, stmt))
        elif isinstance(stmt, ast.Return):
            current.steps.append(("return", stmt.value, stmt))
            current.link(cfg.exit)
            current = None
        elif isinstance(stmt, ast.Raise):
            for child in (stmt.exc, stmt.cause):
                if child is not None:
                    current.steps.append(("expr", child, stmt))
            current.link(cfg.exit)
            current = None
        elif isinstance(stmt, ast.Break):
            if loops:
                current.link(loops[-1][1])
            current = None
        elif isinstance(stmt, ast.Continue):
            if loops:
                current.link(loops[-1][0])
            current = None
        elif isinstance(stmt, ast.If):
            current.steps.append(("expr", stmt.test, stmt))
            then_entry = cfg.new()
            else_entry = cfg.new()
            current.link(then_entry, else_entry)
            then_exit = _emit(cfg, stmt.body, then_entry, loops)
            else_exit = _emit(cfg, stmt.orelse, else_entry, loops)
            current = cfg.new()
            for exit_block in (then_exit, else_exit):
                if exit_block is not None:
                    exit_block.link(current)
            if then_exit is None and else_exit is None:
                current = None
        elif isinstance(stmt, ast.While):
            header = cfg.new()
            current.link(header)
            header.steps.append(("expr", stmt.test, stmt))
            body_entry = cfg.new()
            after = cfg.new()
            header.link(body_entry, after)
            body_exit = _emit(cfg, stmt.body, body_entry,
                              loops + [(header, after)])
            if body_exit is not None:
                body_exit.link(header)
            current = _emit(cfg, stmt.orelse, after, loops) if stmt.orelse \
                else after
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            header = cfg.new()
            current.link(header)
            header.steps.append(("bind", stmt.target, stmt.iter, stmt))
            body_entry = cfg.new()
            after = cfg.new()
            header.link(body_entry, after)
            body_exit = _emit(cfg, stmt.body, body_entry,
                              loops + [(header, after)])
            if body_exit is not None:
                body_exit.link(header)
            current = _emit(cfg, stmt.orelse, after, loops) if stmt.orelse \
                else after
        elif isinstance(stmt, ast.Try) or stmt.__class__.__name__ == "TryStar":
            before = current
            body_entry = cfg.new()
            before.link(body_entry)
            body_exit = _emit(cfg, stmt.body, body_entry, loops)
            after = cfg.new()
            if stmt.orelse and body_exit is not None:
                orelse_exit = _emit(cfg, stmt.orelse, body_exit, loops)
                if orelse_exit is not None:
                    orelse_exit.link(after)
            elif body_exit is not None:
                body_exit.link(after)
            preds = [before] + ([body_exit] if body_exit is not None else [])
            for handler in stmt.handlers:
                handler_entry = cfg.new()
                for pred in preds:
                    pred.link(handler_entry)
                handler_exit = _emit(cfg, handler.body, handler_entry, loops)
                if handler_exit is not None:
                    handler_exit.link(after)
            current = after
            if stmt.finalbody:
                current = _emit(cfg, stmt.finalbody, after, loops)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                current.steps.append(("withitem", item, stmt))
            current = _emit(cfg, stmt.body, current, loops)
        elif isinstance(stmt, ast.Assert):
            current.steps.append(("expr", stmt.test, stmt))
            if stmt.msg is not None:
                current.steps.append(("expr", stmt.msg, stmt))
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for expr in (stmt.decorator_list + stmt.args.defaults
                         + [default for default in stmt.args.kw_defaults
                            if default is not None]):
                current.steps.append(("expr", expr, stmt))
        elif isinstance(stmt, ast.ClassDef):
            for expr in (stmt.decorator_list + stmt.bases
                         + [keyword.value for keyword in stmt.keywords]):
                current.steps.append(("expr", expr, stmt))
        elif stmt.__class__.__name__ == "Match":
            current.steps.append(("expr", stmt.subject, stmt))
            after = cfg.new()
            current.link(after)
            for case in stmt.cases:
                case_entry = cfg.new()
                current.link(case_entry)
                case_exit = _emit(cfg, case.body, case_entry, loops)
                if case_exit is not None:
                    case_exit.link(after)
            current = after
        else:
            # Imports, Global/Nonlocal, Pass, Delete: no dataflow
            # contribution.
            continue
    return current


# ------------------------------------------------------------ call helpers


def map_call_args(call: ast.Call, callee: FunctionInfo,
                  is_constructor: bool) -> Dict[int, ast.expr]:
    """Callee parameter index → caller argument expression.

    Bound method calls put the receiver expression at index 0;
    constructor calls leave index 0 (``self``) unmapped.  ``*args`` stops
    positional mapping; unknown keywords are skipped.
    """
    mapping: Dict[int, ast.expr] = {}
    offset = 0
    if is_constructor:
        offset = 1
    elif callee.binds_instance:
        offset = 1
        if isinstance(call.func, ast.Attribute):
            mapping[0] = call.func.value
    index = offset
    for arg in call.args:
        if isinstance(arg, ast.Starred):
            break
        if index < len(callee.params):
            mapping[index] = arg
        index += 1
    for keyword in call.keywords:
        if keyword.arg is None:
            continue
        try:
            mapping[callee.params.index(keyword.arg)] = keyword.value
        except ValueError:
            continue
    return mapping


def order_tags_for(shapes: frozenset, path: str, line: int,
                   context: str) -> Set[Tag]:
    """Order-hazard tags implied by iterating / serialising ``shapes``."""
    tags: Set[Tag] = set()
    for shape in shapes:
        base = shape.split("@")[0]
        via = " returned by a helper" if shape.endswith("@ret") else ""
        if base == SHAPE_SET:
            tags.add(Tag("set-order",
                         f"{context} over an unordered set{via}",
                         path, line))
        elif base == SHAPE_LISTING:
            tags.add(Tag("fs-order",
                         f"{context} over a filesystem-order listing{via}",
                         path, line))
    return tags


def _shape_text(shapes: frozenset) -> str:
    names = sorted({shape.split("@")[0] for shape in shapes})
    translated = {SHAPE_SET: "an unordered set",
                  SHAPE_LISTING: "a filesystem-order listing",
                  SHAPE_PARALLEL: "parallel-worker results"}
    via = " (returned by a helper)" if any(
        shape.endswith("@ret") for shape in shapes) else ""
    return " / ".join(translated.get(name, name) for name in names) + via


# -------------------------------------------------------- taint analysis


class _FunctionAnalysis:
    """One function's worklist dataflow (also used for module top level)."""

    def __init__(self, engine: "ProjectFlowAnalysis", module: ModuleInfo,
                 body: Sequence[ast.stmt], params: Tuple[str, ...],
                 qname: str, info: Optional[FunctionInfo], line: int):
        self.engine = engine
        self.module = module
        self.body = body
        self.params = params
        self.qname = qname
        self.info = info
        self.line = line
        self.path = module.display
        self.cfg = engine.cfg_for(qname, body)
        self.local_types = engine.local_types(info) if info else {}
        self._ret = EMPTY
        self._param_sinks: Set[ParamSink] = set()
        self._findings: List[dict] = []
        self._report = False
        self._loop_shapes: Dict[int, frozenset] = {}
        self._float_names: Set[str] = set()

    # ------------------------------------------------------------ driver

    def run(self, report: bool = False
            ) -> Tuple[AbsValue, frozenset, List[dict]]:
        entry_env: Dict[str, AbsValue] = {}
        for index, name in enumerate(self.params):
            entry_env[name] = AbsValue(frozenset({Tag(
                "param", f"parameter {name!r}", self.path, self.line,
                param=index)}))
        envs: Dict[int, Dict[str, AbsValue]] = {self.cfg.entry.index:
                                                entry_env}
        if report:
            self._collect_float_names()
        # Converge block-entry environments.
        worklist = [self.cfg.entry]
        iterations = 0
        limit = 50 * max(1, len(self.cfg.blocks))
        while worklist and iterations < limit:
            iterations += 1
            block = worklist.pop()
            env = self._transfer(block, dict(envs.get(block.index, {})))
            for successor in block.succ:
                known = envs.get(successor)
                merged = self._join_env(known, env)
                if merged is not known:
                    envs[successor] = merged
                    worklist.append(self.cfg.blocks[successor])
        # Reporting pass over converged entries (blocks in creation order
        # so loop headers record shapes before their bodies are visited).
        self._ret = EMPTY
        self._param_sinks = set()
        self._findings = []
        self._report = report
        for block in self.cfg.blocks:
            if block.index not in envs and block is not self.cfg.entry:
                continue
            self._transfer(block, dict(envs.get(block.index, {})))
        self._report = False
        findings = self._dedupe(self._findings)
        return self._ret, normalize_sinks(self._param_sinks), findings

    @staticmethod
    def _join_env(known: Optional[Dict[str, AbsValue]],
                  env: Dict[str, AbsValue]
                  ) -> Optional[Dict[str, AbsValue]]:
        if known is None:
            return dict(env)
        merged = None
        for name, value in env.items():
            old = known.get(name, EMPTY)
            new = old.join(value)
            if new != old:
                if merged is None:
                    merged = dict(known)
                merged[name] = new
        return merged if merged is not None else known

    @staticmethod
    def _dedupe(findings: List[dict]) -> List[dict]:
        seen: Set[tuple] = set()
        unique = []
        for finding in findings:
            key = (finding["rule"], finding["line"], finding["message"])
            if key not in seen:
                seen.add(key)
                unique.append(finding)
        return sorted(unique, key=lambda f: (f["line"], f["rule"],
                                             f["message"]))

    # ---------------------------------------------------------- transfer

    def _transfer(self, block: _Block,
                  env: Dict[str, AbsValue]) -> Dict[str, AbsValue]:
        for step in block.steps:
            kind = step[0]
            if kind == "stmt":
                stmt = step[1]
                if isinstance(stmt, ast.Assign):
                    value = self._eval(stmt.value, env)
                    for target in stmt.targets:
                        self._bind(target, value, env)
                elif isinstance(stmt, ast.AnnAssign):
                    if stmt.value is not None:
                        self._bind(stmt.target,
                                   self._eval(stmt.value, env), env)
                else:  # AugAssign
                    self._aug_assign(stmt, env)
            elif kind == "expr":
                self._eval(step[1], env)
            elif kind == "bind":
                target, iterable, node = step[1], step[2], step[3]
                value = self._eval(iterable, env)
                self._loop_shapes[id(node)] = value.shapes
                element = AbsValue(frozenset(
                    set(value.taints)
                    | order_tags_for(value.shapes, self.path,
                                     iterable.lineno, "iteration")))
                self._bind(target, element, env)
            elif kind == "withitem":
                item = step[1]
                value = self._eval(item.context_expr, env)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, value, env)
            elif kind == "return":
                value = self._eval(step[1], env) if step[1] is not None \
                    else EMPTY
                self._ret = self._ret.join(value)
        return env

    def _bind(self, target: ast.AST, value: AbsValue,
              env: Dict[str, AbsValue]) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            element = AbsValue(value.taints)
            for item in target.elts:
                self._bind(item, element, env)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, value, env)
        elif (isinstance(target, ast.Attribute)
              and isinstance(target.value, ast.Name)):
            # Field-sensitive only one level deep, within one function:
            # ``self._t0 = time.time()`` is visible to later reads here.
            env[f"{target.value.id}.{target.attr}"] = value
        elif (isinstance(target, ast.Subscript)
              and isinstance(target.value, ast.Name)):
            # ``payload["kernel"] = name`` adds to what ``payload`` holds
            # (a weak update), as ``payload = {"kernel": name}`` would.
            name = target.value.id
            env[name] = env.get(name, EMPTY).join(AbsValue(value.taints))

    def _aug_assign(self, stmt: ast.AugAssign,
                    env: Dict[str, AbsValue]) -> None:
        value = self._eval(stmt.value, env)
        target = stmt.target
        if isinstance(target, ast.Name):
            env[target.id] = env.get(target.id, EMPTY).join(value)
            if self._report and isinstance(stmt.op, ast.Add):
                self._check_float_accumulation(stmt, target.id)
        elif (isinstance(target, ast.Attribute)
              and isinstance(target.value, ast.Name)):
            key = f"{target.value.id}.{target.attr}"
            env[key] = env.get(key, EMPTY).join(value)

    # ------------------------------------------------------------ eval

    def _eval(self, node: Optional[ast.AST],
              env: Dict[str, AbsValue]) -> AbsValue:
        if node is None:
            return EMPTY
        if isinstance(node, ast.Name):
            return env.get(node.id, EMPTY)
        if isinstance(node, ast.Constant):
            return EMPTY
        if isinstance(node, ast.Call):
            return self._eval_call(node, env)
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name):
                field = env.get(f"{node.value.id}.{node.attr}")
                if field is not None:
                    return field
            return AbsValue(self._eval(node.value, env).taints)
        if isinstance(node, ast.Subscript):
            base = self._eval(node.value, env)
            index = self._eval(node.slice, env)
            return AbsValue(base.taints | index.taints)
        if isinstance(node, (ast.List, ast.Tuple)):
            return union_values([self._eval(e, env) for e in node.elts])
        if isinstance(node, ast.Set):
            inner = union_values([self._eval(e, env) for e in node.elts])
            return AbsValue(inner.taints, inner.shapes | {SHAPE_SET})
        if isinstance(node, ast.Dict):
            parts = [self._eval(k, env) for k in node.keys if k is not None]
            parts += [self._eval(v, env) for v in node.values]
            return AbsValue(union_values(parts).taints)
        if isinstance(node, ast.JoinedStr):
            return AbsValue(union_values(
                [self._eval(v, env) for v in node.values]).taints)
        if isinstance(node, ast.FormattedValue):
            value = self._eval(node.value, env)
            return AbsValue(value.taints | order_tags_for(
                value.shapes, self.path, node.lineno, "string formatting"))
        if isinstance(node, ast.BinOp):
            left = self._eval(node.left, env)
            right = self._eval(node.right, env)
            shapes = frozenset()
            if isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.BitXor,
                                    ast.Sub)):
                shapes = left.shapes | right.shapes
            return AbsValue(left.taints | right.taints, shapes)
        if isinstance(node, ast.BoolOp):
            return union_values([self._eval(v, env) for v in node.values])
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand, env)
        if isinstance(node, ast.Compare):
            parts = [self._eval(node.left, env)]
            parts += [self._eval(c, env) for c in node.comparators]
            return AbsValue(union_values(parts).taints)
        if isinstance(node, ast.IfExp):
            return self._eval(node.body, env).join(
                self._eval(node.orelse, env))
        if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp,
                             ast.DictComp)):
            return self._eval_comprehension(node, env)
        if isinstance(node, ast.Lambda):
            # The function object carries no taint, but its defaults run
            # here and its body's sinks are checked.
            for default in node.args.defaults + [
                    d for d in node.args.kw_defaults if d is not None]:
                self._eval(default, env)
            self._lambda_result(node, env)
            return EMPTY
        if isinstance(node, (ast.Await, ast.YieldFrom)):
            return self._eval(node.value, env)
        if isinstance(node, ast.Yield):
            if node.value is not None:
                self._ret = self._ret.join(self._eval(node.value, env))
            return EMPTY
        if isinstance(node, ast.NamedExpr):
            value = self._eval(node.value, env)
            self._bind(node.target, value, env)
            return value
        if isinstance(node, ast.Slice):
            return union_values([self._eval(part, env) for part in
                                 (node.lower, node.upper, node.step)
                                 if part is not None])
        if isinstance(node, ast.Starred):
            return self._eval(node.value, env)
        return EMPTY

    def _lambda_result(self, node: ast.Lambda,
                       env: Dict[str, AbsValue]) -> AbsValue:
        """What a lambda returns, its own parameters entering clean."""
        inner = dict(env)
        for name in _function_params(node):
            inner[name] = EMPTY
        return self._eval(node.body, inner)

    def _id_value(self, line: int) -> AbsValue:
        return AbsValue(frozenset({Tag(
            "id", "id() (address-dependent)", self.path, line)}))

    def _eval_comprehension(self, node, env: Dict[str, AbsValue]
                            ) -> AbsValue:
        inner = dict(env)
        order: Set[Tag] = set()
        shapes: Set[str] = set()
        for generator in node.generators:
            iterable = self._eval(generator.iter, inner)
            order |= order_tags_for(iterable.shapes, self.path,
                                    generator.iter.lineno, "comprehension")
            shapes |= set(iterable.shapes)
            element = AbsValue(frozenset(set(iterable.taints) | order))
            self._bind(generator.target, element, inner)
            for condition in generator.ifs:
                self._eval(condition, inner)
        if isinstance(node, ast.DictComp):
            produced = self._eval(node.key, inner).join(
                self._eval(node.value, inner))
            shapes = set()  # dict iteration order is insertion order
        else:
            produced = self._eval(node.elt, inner)
            if isinstance(node, ast.SetComp):
                shapes = {SHAPE_SET}
        return AbsValue(frozenset(set(produced.taints) | order),
                        frozenset(shapes))

    # ------------------------------------------------------------- calls

    def _resolve(self, call: ast.Call) -> CallTarget:
        return self.engine.resolve(self.module, call, self.info,
                                   self.local_types)

    def _eval_call(self, call: ast.Call,
                   env: Dict[str, AbsValue]) -> AbsValue:
        arg_values = [self._eval(arg, env) for arg in call.args]
        kw_values = [self._eval(kw.value, env) for kw in call.keywords]
        # Every argument is evaluated exactly once; interprocedural
        # substitution looks values up here instead of re-evaluating
        # (re-evaluation is exponential on nested call expressions).
        value_of: Dict[int, AbsValue] = {}
        for expr, value in zip(call.args, arg_values):
            value_of[id(expr)] = value
        for keyword, value in zip(call.keywords, kw_values):
            value_of[id(keyword.value)] = value
        if isinstance(call.func, ast.Attribute):
            receiver_expr = call.func.value
            value_of[id(receiver_expr)] = self._eval(receiver_expr, env)
        merged = union_values(arg_values + kw_values)
        func = call.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else "")
        result = self._builtin_call(call, name, arg_values, merged, env)
        target = None
        if result is None:
            target = self._resolve(call)
            if target.kind == "external":
                result = self._external_call(call, target.qname,
                                             arg_values, merged)
            elif target.is_project:
                result = self._project_call(call, target, value_of, merged)
            else:
                result = self._opaque_call(call, name, arg_values, merged,
                                           value_of)
        if isinstance(func, ast.Attribute) and name in _PRODUCER_SHAPES:
            result = AbsValue(result.taints,
                              result.shapes | {_PRODUCER_SHAPES[name]})
        self._check_sinks(call, name, arg_values, kw_values, env, target)
        return result

    def _builtin_call(self, call: ast.Call, name: str,
                      args: List[AbsValue], merged: AbsValue,
                      env: Dict[str, AbsValue]) -> Optional[AbsValue]:
        if not isinstance(call.func, ast.Name):
            return None
        first = args[0] if args else EMPTY
        if name == "sorted":
            return AbsValue(frozenset(
                tag for tag in first.taints if tag.kind not in ORDER_KINDS))
        if name == "id":
            return self._id_value(call.lineno)
        if name in ("set", "frozenset"):
            return AbsValue(merged.taints, first.shapes | {SHAPE_SET})
        if name in ("list", "tuple", "reversed", "iter"):
            return first
        if name in ("enumerate", "zip"):
            return union_values(args)
        if name in ("str", "repr", "format"):
            return AbsValue(merged.taints | order_tags_for(
                merged.shapes, self.path, call.lineno, "string formatting"))
        if name in ("int", "float", "bool", "len", "abs", "round", "divmod",
                    "getattr", "min", "max", "sum", "any", "all"):
            return AbsValue(merged.taints)
        if name in ("dict",):
            return AbsValue(merged.taints)
        if name in ("print", "input", "open"):
            return EMPTY
        return None

    def _external_call(self, call: ast.Call, resolved: str,
                       args: List[AbsValue], merged: AbsValue) -> AbsValue:
        if resolved in _WALL_CLOCK or resolved in _WALL_CLOCK_ARGLESS:
            return AbsValue(frozenset({Tag(
                "time", f"wall-clock read {resolved}()", self.path,
                call.lineno)}))
        if UnseededRandomRule._diagnose(call, resolved) is not None:
            return AbsValue(frozenset({Tag(
                "rng", f"unseeded RNG {resolved}()", self.path,
                call.lineno)}))
        if resolved.startswith(("uuid.uuid", "secrets.")) \
                or resolved == "os.urandom":
            return AbsValue(frozenset({Tag(
                "rng", f"entropy source {resolved}()", self.path,
                call.lineno)}))
        if resolved in _LISTING_CALLS:
            return AbsValue(frozenset({Tag(
                "fs-order", f"filesystem-order listing {resolved}()",
                self.path, call.lineno)}), frozenset({SHAPE_LISTING}))
        if resolved == "math.fsum":
            first = args[0] if args else EMPTY
            return AbsValue(frozenset(
                tag for tag in first.taints if tag.kind not in ORDER_KINDS))
        return AbsValue(merged.taints)

    def _project_call(self, call: ast.Call, target: CallTarget,
                      value_of: Dict[int, AbsValue],
                      merged: AbsValue) -> AbsValue:
        callee = self.engine.callgraph.callee_body(target)
        if callee is None:
            return AbsValue(merged.taints)
        facts = self.engine.facts.get(callee.qname, EMPTY_FACTS)
        mapping = map_call_args(call, callee,
                                target.kind == "constructor")
        short = callee.qname.rsplit(".", 2)
        short = ".".join(short[-2:]) if callee.is_method else short[-1]
        site = f"[{self.path}:{call.lineno}]"
        taints: Set[Tag] = set()
        shapes: Set[str] = set()
        for tag in facts.ret.taints:
            if tag.is_param:
                expr = mapping.get(tag.param)
                if expr is None:
                    continue
                value = value_of.get(id(expr), EMPTY)
                hop = f"through {short}() {site}"
                for inner in value.taints:
                    moved = inner.hop(hop)
                    taints.add(Tag(moved.kind, moved.desc, moved.path,
                                   moved.line, (moved.trace
                                                + tag.trace)[:MAX_TRACE_HOPS],
                                   moved.param))
                shapes |= set(value.shapes)
            else:
                taints.add(tag.hop(f"returned via {short}() {site}"))
        for shape in facts.ret.shapes:
            shapes.add(shape if shape.endswith("@ret") else f"{shape}@ret")
        if target.kind == "constructor":
            # The instance carries whatever was stored into it.
            taints |= set(merged.taints)
        self._apply_param_sinks(call, facts, mapping, value_of, short,
                                site)
        return AbsValue(normalize_tags(taints), frozenset(shapes))

    def _apply_param_sinks(self, call: ast.Call, facts: FunctionFacts,
                           mapping: Dict[int, ast.expr],
                           value_of: Dict[int, AbsValue], short: str,
                           site: str) -> None:
        for sink in facts.param_sinks:
            expr = mapping.get(sink.param)
            if expr is None:
                continue
            value = value_of.get(id(expr), EMPTY)
            hop = f"passed to {short}() {site}"
            for tag in value.taints:
                if tag.is_param:
                    self._param_sinks.add(ParamSink(
                        tag.param, sink.rule, sink.sink, sink.path,
                        sink.line,
                        (tag.trace + (hop,) + sink.trace)[:MAX_TRACE_HOPS]))
                elif self._report:
                    tail = " -> ".join(
                        (hop,) + sink.trace
                        + (f"reaches {sink.sink} [{sink.path}:{sink.line}]",))
                    self._add_finding(sink.rule, call.lineno,
                                      tag.chain(tail))
            # Order shapes entering a sink-bearing helper: flag too.
            if self._report:
                for tag in order_tags_for(value.shapes, self.path,
                                          call.lineno, "serialisation"):
                    tail = " -> ".join(
                        (hop,) + sink.trace
                        + (f"reaches {sink.sink} [{sink.path}:{sink.line}]",))
                    self._add_finding(sink.rule, call.lineno,
                                      tag.chain(tail))

    def _opaque_call(self, call: ast.Call, name: str,
                     args: List[AbsValue], merged: AbsValue,
                     value_of: Dict[int, AbsValue]) -> AbsValue:
        receiver = EMPTY
        if isinstance(call.func, ast.Attribute):
            receiver = value_of.get(id(call.func.value), EMPTY)
        if name in _LISTING_METHODS:
            return AbsValue(frozenset({Tag(
                "fs-order", f"filesystem-order listing .{name}()",
                self.path, call.lineno)}), frozenset({SHAPE_LISTING}))
        if name == "join" and isinstance(call.func, ast.Attribute):
            first = args[0] if args else EMPTY
            taints = set(merged.taints) | set(receiver.taints)
            taints |= order_tags_for(first.shapes, self.path, call.lineno,
                                     "str.join")
            return AbsValue(frozenset(taints))
        if name == "format":
            return AbsValue(merged.taints | receiver.taints
                            | order_tags_for(merged.shapes, self.path,
                                             call.lineno,
                                             "string formatting"))
        # An unknown method is assumed to return a transformation of its
        # receiver and arguments, so shapes survive too — otherwise a
        # ``.encode()`` between a helper and a digest would launder
        # unordered provenance.
        return AbsValue(merged.taints | receiver.taints,
                        merged.shapes | receiver.shapes)

    # ------------------------------------------------------------- sinks

    def _check_sinks(self, call: ast.Call, name: str,
                     args: List[AbsValue], kw_values: List[AbsValue],
                     env: Dict[str, AbsValue],
                     target: Optional[CallTarget]) -> None:
        values = list(zip(call.args, args)) + \
            list(zip([kw.value for kw in call.keywords], kw_values))
        if target is not None:
            self._check_identity_sink(call, name, values, target)
            self._check_telemetry_sink(call, name, values, target)
        self._check_sort_key(call, name, env)
        if self._report and name == "sum" and isinstance(call.func,
                                                         ast.Name):
            self._check_float_sum(call, args)

    def _sink_hit(self, rule: str, sink: str, call: ast.Call,
                  values: List[Tuple[ast.expr, AbsValue]],
                  verdict: str) -> None:
        for expr, value in values:
            tags = set(tag for tag in value.taints if not tag.is_param)
            tags |= order_tags_for(value.shapes, self.path, expr.lineno,
                                   "serialisation")
            for tag in sorted(tags, key=lambda t: (t.path, t.line, t.kind,
                                                   t.desc)):
                if self._report:
                    tail = f"{verdict} {sink} [{self.path}:{call.lineno}]"
                    self._add_finding(rule, call.lineno, tag.chain(tail))
            for tag in value.param_tags:
                self._param_sinks.add(ParamSink(
                    tag.param, rule, sink, self.path, call.lineno,
                    tag.trace))

    def _check_identity_sink(self, call: ast.Call, name: str,
                             values, target: CallTarget) -> None:
        if not values:
            return
        is_sink = False
        if target.kind == "external" and target.qname.startswith("hashlib."):
            is_sink = True
        lowered = name.lower()
        if any(marker in lowered for marker in IDENTITY_MARKERS):
            is_sink = True
        if (name == "update" and isinstance(call.func, ast.Attribute)):
            receiver = dotted_name(call.func.value) or ""
            lowered_receiver = receiver.lower()
            if any(marker in lowered_receiver
                   for marker in ("digest", "hash", "sha", "md5", "hasher")):
                is_sink = True
            else:
                return
        if not is_sink or target.is_project:
            # Project-defined digest helpers are handled through their
            # own bodies (hashlib inside them is the real sink).
            return
        self._sink_hit("FLOW001", f"identity sink {name}()", call, values,
                       "feeds")

    def _check_telemetry_sink(self, call: ast.Call, name: str,
                              values, target: CallTarget) -> None:
        if not values:
            return
        is_sink = name in TELEMETRY_SINKS
        if not is_sink:
            is_sink = (target.kind == "constructor"
                       and target.qname.rsplit(".", 1)[-1].endswith(
                           "Record"))
        if is_sink:
            self._sink_hit("FLOW003", f"telemetry record {name}()", call,
                           values, "recorded by")

    def _check_sort_key(self, call: ast.Call, name: str,
                        env: Dict[str, AbsValue]) -> None:
        if name not in _ORDERING_CALLS:
            return
        key_expr = next((kw.value for kw in call.keywords
                         if kw.arg == "key"), None)
        if key_expr is None:
            return
        value = EMPTY
        if isinstance(key_expr, ast.Lambda):
            value = self._lambda_result(key_expr, env)
        elif isinstance(key_expr, ast.Name):
            # A named function used as key, a def of an enclosing function
            # or of the module: its summary's fresh sources make the
            # ordering nondeterministic, and so does the builtin id unless
            # something here rebinds the name.
            graph = self.engine.callgraph
            local = graph.enclosing_def(self.info, key_expr.id)
            qname = local.qname if local is not None else \
                graph.module_scope.get(self.module.name, {}).get(key_expr.id)
            if qname is not None:
                facts = self.engine.facts.get(qname, EMPTY_FACTS)
                value = AbsValue(frozenset(
                    tag for tag in facts.ret.taints if not tag.is_param))
            elif key_expr.id == "id" and "id" not in env \
                    and "id" not in self.module.aliases:
                value = self._id_value(call.lineno)
        self._sink_hit("FLOW002", f"sort key of {name}()", call,
                       [(key_expr, value)], "orders via")

    # ----------------------------------------------------------- FLOAT001

    def _collect_float_names(self) -> None:
        """Names this body binds to a float; nested defs and classes bind
        their own."""
        for stmt in scope_walk(self.body):
            value = None
            target = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                target = stmt.target
                value = stmt.value
                annotation = dotted_name(stmt.annotation)
                if annotation == "float" and isinstance(target, ast.Name):
                    self._float_names.add(target.id)
            if not isinstance(target, ast.Name):
                continue
            if isinstance(value, ast.Constant) and isinstance(
                    value.value, float):
                self._float_names.add(target.id)
            elif (isinstance(value, ast.Call)
                  and isinstance(value.func, ast.Name)
                  and value.func.id == "float"):
                self._float_names.add(target.id)

    def _check_float_accumulation(self, stmt: ast.AugAssign,
                                  name: str) -> None:
        if name not in self._float_names:
            return
        for ancestor in self.module.ancestors(stmt):
            if isinstance(ancestor, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                break
            if not isinstance(ancestor, (ast.For, ast.AsyncFor)):
                continue
            shapes = self._loop_shapes.get(id(ancestor), frozenset())
            if shapes:
                self._add_finding(
                    "FLOAT001", stmt.lineno,
                    f"order-sensitive float accumulation: {name!r} is "
                    f"summed with += over {_shape_text(shapes)}; float "
                    "addition is not associative — use math.fsum(...) "
                    "over a sorted(...) iterable")
                return

    def _check_float_sum(self, call: ast.Call,
                         args: List[AbsValue]) -> None:
        if not args:
            return
        shapes = args[0].shapes
        order_taints = [tag for tag in args[0].taints
                        if tag.kind in ORDER_KINDS]
        if shapes:
            self._add_finding(
                "FLOAT001", call.lineno,
                f"sum() over {_shape_text(shapes)}: float "
                "addition is order-sensitive — use math.fsum(...) or "
                "sort first")
        elif order_taints:
            tag = order_taints[0]
            self._add_finding(
                "FLOAT001", call.lineno,
                tag.chain(f"summed by sum() [{self.path}:{call.lineno}] "
                          "— use math.fsum(...) or sort first"))

    def _add_finding(self, rule: str, line: int, message: str) -> None:
        self._findings.append({"rule": rule, "line": line,
                               "message": message})


# ----------------------------------------------------------------- effects


#: Method names that (by convention) mutate their receiver when the
#: receiver cannot be resolved to a project class.
_MUTATOR_EXACT = frozenset({
    "append", "appendleft", "add", "extend", "insert", "remove", "pop",
    "popleft", "popitem", "clear", "update", "sort", "reverse", "discard",
    "setdefault", "put", "send", "requeue",
})
_MUTATOR_PREFIXES = (
    "set_", "add_", "mark_", "note_", "record_", "request_", "register",
    "release_", "push_", "flush_", "wake_", "claim_", "enqueue_",
    "reset_", "inc_", "dec_", "finish_",
)

#: Method names that are IO no matter the receiver.
_IO_METHODS = frozenset({
    "write", "writelines", "read", "readline", "readlines", "flush",
    "close", "mkdir", "rmdir", "unlink", "touch", "rename", "replace",
    "write_text", "read_text", "write_bytes", "read_bytes", "commit",
    "execute", "executemany", "executescript", "fetchone", "fetchall",
    "fetchmany", "connect", "communicate",
})

_IO_EXTERNAL_PREFIXES = (
    "shutil.", "subprocess.", "sqlite3.", "socket.", "tempfile.",
    "urllib.", "http.",
)

_OWNING_BUILTINS = frozenset({
    "list", "dict", "set", "tuple", "frozenset", "sorted", "str", "int",
    "float", "bool", "bytes", "bytearray", "enumerate", "zip", "reversed",
    "min", "max", "sum", "len", "abs", "round", "range", "map", "filter",
    "repr", "format", "divmod", "iter", "next", "vars", "type",
})


def _bound_names(info: FunctionInfo) -> Set[str]:
    """The names a function binds: its parameters, the targets it stores
    to and the defs and classes it defines (not their bodies)."""
    body = info.node.body
    stored = {node.id for node in scope_walk(body)
              if isinstance(node, ast.Name)
              and isinstance(node.ctx, ast.Store)}
    return set(info.params) | stored | {stmt.name for stmt in defs_in(body)}


class _EffectWalker:
    """Flow-insensitive effect inference for one function."""

    def __init__(self, engine: "ProjectFlowAnalysis", info: FunctionInfo):
        self.engine = engine
        self.info = info
        self.params = set(info.params)
        self.globals_declared: Set[str] = set()
        self.roots: Dict[str, Set[str]] = {}
        #: Names the enclosing functions bind: a closure's, not globals.
        self.closure: Set[str] = set()
        outer = info.enclosing
        while outer is not None:
            self.closure |= _bound_names(outer)
            outer = outer.enclosing

    def run(self) -> Tuple[bool, frozenset]:
        """Effects of the body itself; a nested def or class counts only
        where the body calls it, through that callee's summary."""
        body = self.info.node.body
        for node in scope_walk(body):
            if isinstance(node, ast.Global):
                self.globals_declared.update(node.names)
        self._solve_roots(body)
        io = False
        mutates: Set[str] = set()
        for node in scope_walk(body):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign,
                                 ast.Delete)):
                targets = getattr(node, "targets", None) or \
                    [getattr(node, "target", None)]
                for target in targets:
                    if target is None:
                        continue
                    mutates |= self._target_mutations(target)
            if isinstance(node, ast.Call):
                call_io, call_mutates = self._call_effects(node)
                io = io or call_io
                mutates |= call_mutates
        return io, frozenset(mutates)

    def _solve_roots(self, body: Sequence[ast.stmt]) -> None:
        assignments: List[Tuple[str, ast.AST]] = []
        for node in scope_walk(body):
            if isinstance(node, ast.Assign):
                # Only plain name (re)bindings alias their value; storing
                # into ``container[k]`` / ``obj.attr`` does not make the
                # container alias what was stored.
                for target in node.targets:
                    for name_node in self._flat_names(target):
                        assignments.append((name_node, node.value))
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    assignments.append((node.target.id, node.value))
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                for name_node in self._flat_names(node.target):
                    assignments.append((name_node, node.iter))
            elif isinstance(node, ast.NamedExpr) and isinstance(
                    node.target, ast.Name):
                assignments.append((node.target.id, node.value))
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if isinstance(item.optional_vars, ast.Name):
                        assignments.append((item.optional_vars.id,
                                            item.context_expr))
        for _ in range(10):
            changed = False
            for name, value in assignments:
                roots = self._expr_roots(value)
                known = self.roots.setdefault(name, set())
                if not roots <= known:
                    known |= roots
                    changed = True
            if not changed:
                break

    @staticmethod
    def _flat_names(target: ast.AST) -> List[str]:
        names: List[str] = []
        stack: List[ast.AST] = [target]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Name):
                names.append(node.id)
            elif isinstance(node, (ast.Tuple, ast.List)):
                stack.extend(node.elts)
            elif isinstance(node, ast.Starred):
                stack.append(node.value)
        return names

    def _expr_roots(self, node: ast.AST) -> Set[str]:
        if isinstance(node, ast.Name):
            if node.id in self.params:
                return {f"param:{node.id}"}
            if node.id in self.globals_declared:
                return {"global"}
            if node.id in self.roots:
                return set(self.roots[node.id])
            if node.id in self.closure:
                return {"local"}
            scope = self.engine.callgraph.module_scope.get(
                self.info.module.name, {})
            if node.id in scope or node.id in _OWNING_BUILTINS:
                return {"local"}
            if node.id in self.info.module.aliases:
                return {"global"}
            # Unknown bare name: module-level state, conservatively.
            return {"global"}
        if isinstance(node, (ast.Attribute, ast.Subscript, ast.Starred)):
            return self._expr_roots(node.value)
        if isinstance(node, ast.Call):
            return {"local"}
        if isinstance(node, (ast.BoolOp,)):
            roots: Set[str] = set()
            for value in node.values:
                roots |= self._expr_roots(value)
            return roots
        if isinstance(node, ast.IfExp):
            return self._expr_roots(node.body) | self._expr_roots(
                node.orelse)
        if isinstance(node, ast.NamedExpr):
            return self._expr_roots(node.value)
        return {"local"}

    def _target_mutations(self, target: ast.AST) -> Set[str]:
        mutations: Set[str] = set()
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                mutations |= self._target_mutations(element)
            return mutations
        if isinstance(target, ast.Name):
            if target.id in self.globals_declared:
                mutations.add("global")
            return mutations
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            for root in self._expr_roots(target.value):
                if root != "local":
                    mutations.add(root)
        return mutations

    def _call_effects(self, call: ast.Call) -> Tuple[bool, Set[str]]:
        io = False
        mutates: Set[str] = set()
        target = self.engine.resolve(
            self.info.module, call, self.info,
            self.engine.local_types(self.info))
        name = call.func.attr if isinstance(call.func, ast.Attribute) \
            else (call.func.id if isinstance(call.func, ast.Name) else "")
        if target.is_project:
            callee = self.engine.callgraph.callee_body(target)
            if callee is not None:
                facts = self.engine.facts.get(callee.qname, EMPTY_FACTS)
                io = facts.io
                mapping = map_call_args(call, callee,
                                        target.kind == "constructor")
                for token in facts.mutates:
                    if token == "global":
                        mutates.add("global")
                        continue
                    param_name = token.split(":", 1)[1]
                    try:
                        index = callee.params.index(param_name)
                    except ValueError:
                        continue
                    expr = mapping.get(index)
                    if expr is None:
                        continue
                    for root in self._expr_roots(expr):
                        if root != "local":
                            mutates.add(root)
            return io, mutates
        if target.kind == "external":
            qname = target.qname
            if qname.startswith("os.") and not qname.startswith("os.path."):
                io = True
            elif qname.startswith(_IO_EXTERNAL_PREFIXES):
                io = True
            elif qname in ("json.dump",):
                io = True
            return io, mutates
        if name in ("print", "input", "open", "breakpoint"):
            io = True
            return io, mutates
        if isinstance(call.func, ast.Attribute):
            if name in _IO_METHODS:
                io = True
            if name in _MUTATOR_EXACT or name.startswith(_MUTATOR_PREFIXES):
                for root in self._expr_roots(call.func.value):
                    if root != "local":
                        mutates.add(root)
        return io, mutates


# ----------------------------------------------------------- project engine


class ProjectFlowAnalysis:
    """Summaries + flow findings for one whole project.

    Construction runs the interprocedural fixpoint and then a reporting
    pass over every module whose record has no valid closure section
    (every module, in an uncached run).  ``facts`` maps function
    qualified names to :class:`FunctionFacts`; ``module_findings`` maps
    module display paths to raw finding dicts the FLOW/FLOAT rules
    re-emit.
    """

    def __init__(self, project: Project):
        self.project = project
        self.callgraph = build_callgraph(project)
        self.facts: Dict[str, FunctionFacts] = {}
        self.module_findings: Dict[str, List[dict]] = {}
        self.stats = {"modules": len(project.modules), "computed": 0,
                      "cached": 0}
        #: Callee qname -> qnames of the functions whose bodies call it,
        #: as far as resolution has reached (every summarised function's
        #: calls are resolved).
        self.callers: Dict[str, Set[str]] = {}
        self._cfgs: Dict[str, _CFG] = {}
        self._types: Dict[str, Dict[str, str]] = {}
        self._resolved: Dict[int, CallTarget] = {}
        self._run()

    # ------------------------------------------------------------ helpers

    def resolve(self, module: ModuleInfo, call: ast.Call,
                info: Optional[FunctionInfo],
                local_types: Mapping[str, str]) -> CallTarget:
        """Memoised call resolution (a call node resolves once; the
        fixpoint revisits functions many times).  A call from a function
        body into a project body records the caller edge."""
        target = self._resolved.get(id(call))
        if target is None:
            target = self.callgraph.resolve_call(
                module, call, enclosing=info, local_types=local_types)
            self._resolved[id(call)] = target
            callee = self.callgraph.callee_body(target)
            if callee is not None and info is not None:
                self.callers.setdefault(callee.qname, set()).add(info.qname)
        return target

    def cfg_for(self, qname: str, body: Sequence[ast.stmt]) -> _CFG:
        cfg = self._cfgs.get(qname)
        if cfg is None:
            cfg = build_cfg(body)
            self._cfgs[qname] = cfg
        return cfg

    def local_types(self, info: Optional[FunctionInfo]) -> Dict[str, str]:
        if info is None:
            return {}
        types = self._types.get(info.qname)
        if types is None:
            types = self.callgraph.local_types_for(info)
            self._types[info.qname] = types
        return types

    def _analysis_for(self, info: FunctionInfo) -> _FunctionAnalysis:
        return _FunctionAnalysis(
            self, info.module, info.node.body, info.params, info.qname,
            info, info.line)

    def _bare_bodies(self, module: ModuleInfo) -> List[_FunctionAnalysis]:
        """The bodies of ``module`` that run without being called: each
        class body, then the top level.  They have no summary, so only
        the reporting pass reads them."""
        bodies = [_FunctionAnalysis(self, module, info.node.body, (),
                                    f"{info.qname}.<body>", None, info.line)
                  for info in self.callgraph.classes.values()
                  if info.module is module]
        bodies.append(_FunctionAnalysis(
            self, module, module.tree.body, (), f"{module.name}.<module>",
            None, 1))
        return bodies

    # --------------------------------------------------------------- run

    def _run(self) -> None:
        store = self.project.records
        keys = closure_keys(self.project) if store is not None else {}
        cached_displays: Set[str] = set()
        for module in self.project.modules:
            section = closure_section(module, keys.get(module.display, ""),
                                      FunctionFacts.from_dict)
            if section is None:
                continue
            facts, findings = section
            cached_displays.add(module.display)
            self.module_findings[module.display] = findings
            self.facts.update(facts)
        fresh = [module for module in self.project.modules
                 if module.display not in cached_displays]
        self.stats["cached"] = len(cached_displays)
        self.stats["computed"] = len(fresh)
        fresh_functions = [
            info for module in fresh
            for info in self.callgraph.functions_of_module(module.name)
            if info.module.display == module.display]
        for info in fresh_functions:
            self.facts.setdefault(info.qname, EMPTY_FACTS)
        recompute = {info.qname for info in fresh_functions}
        # Interprocedural fixpoint over the fresh set.
        pending = list(reversed(fresh_functions))
        queued = {info.qname for info in pending}
        by_qname = {info.qname: info for info in fresh_functions}
        while pending:
            info = pending.pop()
            queued.discard(info.qname)
            facts = self._summarise(info)
            if facts != self.facts.get(info.qname):
                self.facts[info.qname] = facts
                # A caller not summarised yet is still queued, so the
                # edges resolution has recorded so far are enough.  They
                # are pushed so that they pop in sorted order.
                for caller in sorted(self.callers.get(info.qname, ()),
                                     reverse=True):
                    if caller in recompute and caller not in queued:
                        queued.add(caller)
                        pending.append(by_qname[caller])
        # Reporting pass: findings with converged summaries.
        for module in fresh:
            findings: List[dict] = []
            functions = [info for info in
                         self.callgraph.functions_of_module(module.name)
                         if info.module.display == module.display]
            for info in functions:
                _ret, _sinks, raw = self._analysis_for(info).run(
                    report=True)
                findings.extend(raw)
            for body in self._bare_bodies(module):
                _ret, _sinks, raw = body.run(report=True)
                findings.extend(raw)
            findings = _FunctionAnalysis._dedupe(findings)
            self.module_findings[module.display] = findings
            if store is not None:
                store.set_closure(
                    module, keys[module.display],
                    {info.qname: self.facts.get(info.qname,
                                                EMPTY_FACTS).to_dict()
                     for info in functions}, findings)

    def _summarise(self, info: FunctionInfo) -> FunctionFacts:
        ret, sinks, _ = self._analysis_for(info).run(report=False)
        io, mutates = _EffectWalker(self, info).run()
        return FunctionFacts(ret=ret, param_sinks=sinks, io=io,
                             mutates=mutates)

    # ----------------------------------------------------------- queries

    def findings_for(self, rule_id: str
                     ) -> Iterator[Tuple[ModuleInfo, int, str]]:
        for display in sorted(self.module_findings):
            module = self.project.by_display.get(display)
            if module is None:
                continue
            for finding in self.module_findings[display]:
                if finding["rule"] == rule_id:
                    yield module, finding["line"], finding["message"]

    def facts_for(self, qname: str) -> FunctionFacts:
        return self.facts.get(qname, EMPTY_FACTS)


def project_flow(project: Project) -> ProjectFlowAnalysis:
    """The (memoised) flow analysis for a project: all flow-backed rules
    share one engine run per project."""
    analysis = getattr(project, "_flow_analysis", None)
    if analysis is None:
        analysis = ProjectFlowAnalysis(project)
        project._flow_analysis = analysis
    return analysis
