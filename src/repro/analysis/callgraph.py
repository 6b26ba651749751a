"""Whole-tree symbol table and call graph for the flow analyses.

The syntactic rules of :mod:`repro.analysis.rules` look at one expression
at a time; the flow rules (FLOW/EFFECT/FLOAT) need to know *who calls
whom* so taint and effects can cross function boundaries.  This module
builds that statically from a :class:`~repro.analysis.core.Project`:

* :class:`FunctionInfo` / :class:`ClassInfo` — every ``def`` and
  ``class`` in the analyzed tree, at any depth, addressable by
  **qualified name** (``repro.sim.policy.PolicyContext.set_quota``; a def
  nested in a function is ``outer.<locals>.inner``, as in
  ``__qualname__``);
* :class:`CallGraph` — the symbol table plus call-site resolution:
  :meth:`CallGraph.resolve_call` maps a call expression to a
  :class:`CallTarget`, understanding import aliases (via
  :attr:`ModuleInfo.aliases`), module-level function aliasing
  (``f = helper``), ``self.method()`` dispatch through the class and its
  project-local bases, constructor calls (``Foo()`` →
  ``Foo.__init__``), ``super().method()``, and — when the caller passes
  ``local_types`` (the flow engine's variable→class bindings) —
  ``obj.method()`` on variables of statically known class, and a bare
  call to a def or class an enclosing function binds (``helper()`` in
  ``outer`` → ``outer.<locals>.helper``).

The symbol table is built from each module's :class:`ModuleSymbols`,
plain rows that :func:`read_symbols` reads off the AST or, when the
module's cache record is valid, :attr:`ModuleInfo.symbols` takes from
the record, so a module nobody edited is not parsed to index it; a
def's or class's ``node`` is looked up on first use.  The flow engine
resolves every call through its memoised
:meth:`~repro.analysis.flow.ProjectFlowAnalysis.resolve`, which also
records the caller edges its fixpoint schedules by.

Resolution is deliberately best-effort: anything it cannot pin down comes
back as an ``unknown-method`` / ``unknown`` target and the flow engine
falls back to conservative heuristics.  Like everything in the analyzer,
this is stdlib-only and never imports the code it describes.
"""

from __future__ import annotations

import ast
import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set, Tuple, Union

from repro.analysis.core import (ModuleInfo, Project, defs_in, dotted_name,
                                 scope_walk)

#: Decorators that change how a def's parameters bind.
_STATIC_DECORATORS = {"staticmethod"}
_CLASS_DECORATORS = {"classmethod"}


@dataclass
class FunctionInfo:
    """One ``def`` in the analyzed tree."""

    qname: str
    name: str
    module: ModuleInfo
    #: Qualified name of the owning class, None for module-level functions.
    class_qname: Optional[str] = None
    #: Parameter names in positional order (``self``/``cls`` included).
    params: Tuple[str, ...] = ()
    #: Decorator names as written (dotted where applicable).
    decorators: Tuple[str, ...] = ()
    line: int = 0
    #: The function whose body defines this one (through any classes in
    #: between); None for module-level functions and their methods.
    enclosing: Optional["FunctionInfo"] = None
    #: Parameters that are a PolicyContext, by name or annotation.
    ctx_params: Tuple[str, ...] = ()

    @property
    def node(self) -> ast.AST:
        """The FunctionDef/AsyncFunctionDef (parses the module if need be)."""
        return self.module.definitions[(self.qname, self.line)]

    @property
    def is_method(self) -> bool:
        return self.class_qname is not None

    @property
    def binds_instance(self) -> bool:
        """Whether the first parameter is the instance/class receiver."""
        if not self.is_method or not self.params:
            return False
        simple = {decorator.split(".")[-1] for decorator in self.decorators}
        return not (simple & _STATIC_DECORATORS)

    @property
    def receiver_param(self) -> Optional[str]:
        return self.params[0] if self.binds_instance else None


@dataclass
class ClassInfo:
    """One ``class`` in the analyzed tree."""

    qname: str
    name: str
    module: ModuleInfo
    line: int = 0
    #: Base names resolved to absolute dotted form where possible.
    bases: Tuple[str, ...] = ()
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)

    @property
    def node(self) -> ast.ClassDef:
        return self.module.definitions[(self.qname, self.line)]


#: ``(qname, line, class qname, params, decorators, enclosing qname,
#: PolicyContext params)`` of one def.
FunctionRow = Tuple[str, int, Optional[str], Tuple[str, ...],
                    Tuple[str, ...], Optional[str], Tuple[str, ...]]
#: ``(qname, line, bases)`` of one class; its methods are the defs whose
#: class qname it is.
ClassRow = Tuple[str, int, Tuple[str, ...]]


@dataclass
class ModuleSymbols:
    """What the symbol table needs from one module, in plain rows: the
    module scope (local name -> qname, for the defs and classes its body
    defines plus ``f = g`` aliases), and every def and class at any
    depth, each list in source order (no two share a line)."""

    scope: Dict[str, str] = field(default_factory=dict)
    functions: List[FunctionRow] = field(default_factory=list)
    classes: List[ClassRow] = field(default_factory=list)


@dataclass(frozen=True)
class CallTarget:
    """Resolution result for one call expression.

    ``kind`` is one of:

    * ``"function"`` — a project function/method; ``qname`` addresses it;
    * ``"constructor"`` — a project class; ``qname`` is the class (its
      ``__init__``, when defined, is the callee body);
    * ``"external"`` — resolved to an absolute dotted name outside the
      analyzed tree (``hashlib.sha256``, ``time.time``);
    * ``"unknown-method"`` — a method call whose receiver class is
      unknown; ``qname`` is just the attribute name (``"append"``);
    * ``"unknown"`` — nothing usable (call on a subscript, lambda, ...).
    """

    kind: str
    qname: str

    @property
    def is_project(self) -> bool:
        return self.kind in ("function", "constructor")


def _function_params(node) -> Tuple[str, ...]:
    args = node.args
    names = [arg.arg for arg in args.posonlyargs + args.args]
    if args.vararg:
        names.append(args.vararg.arg)
    names.extend(arg.arg for arg in args.kwonlyargs)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return tuple(names)


def _decorator_names(node) -> Tuple[str, ...]:
    names = []
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        dotted = dotted_name(target)
        if dotted:
            names.append(dotted)
    return tuple(names)


def context_params(node) -> Tuple[str, ...]:
    """Parameters of a def that are (by name or annotation) a
    :class:`PolicyContext`, in signature order."""
    names: List[str] = []
    args = node.args
    for arg in (args.posonlyargs + args.args + args.kwonlyargs):
        if arg.arg == "ctx":
            names.append(arg.arg)
        elif arg.annotation is not None:
            try:
                annotation = ast.unparse(arg.annotation)
            except Exception:  # pragma: no cover - malformed annotation
                continue
            if "PolicyContext" in annotation:
                names.append(arg.arg)
    return tuple(names)


def _scope_symbol(module: ModuleInfo, scope: Mapping[str, str],
                  dotted: str) -> Optional[str]:
    """Absolute qualified name for a dotted reference in ``module``:
    a symbol of its module scope, else an import alias
    (``np.random.default_rng`` → ``numpy.random.default_rng``; ``from
    repro.sim.policy import PolicyContext`` →
    ``repro.sim.policy.PolicyContext``)."""
    head, _, rest = dotted.partition(".")
    base = scope.get(head) or module.aliases.get(head)
    if base is None:
        return None
    return f"{base}.{rest}" if rest else base


def read_symbols(module: ModuleInfo) -> ModuleSymbols:
    """The module's symbol rows, read off its tree (:attr:`ModuleInfo.
    symbols` takes them from the module's record when it has a valid
    one).  A class base resolves against the scope the module has
    defined so far, as it does when the class statement runs."""
    symbols = ModuleSymbols()
    for node in module.tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            # Module-level aliasing: ``run = _run_impl``.
            target, value = node.targets[0], node.value
            if (isinstance(target, ast.Name)
                    and isinstance(value, ast.Name)
                    and value.id in symbols.scope):
                symbols.scope[target.id] = symbols.scope[value.id]
        for defined in defs_in([node]):
            symbols.scope[defined.name] = _index_def(
                module, symbols, defined, module.name, None, None)
    return symbols


def _index_def(module: ModuleInfo, symbols: ModuleSymbols, node: ast.stmt,
               owner: str, class_qname: Optional[str],
               enclosing: Optional[str]) -> str:
    """Add the rows of one def or class statement and of every def and
    class nested in it; returns its qname."""
    qname = f"{owner}.{node.name}"
    if isinstance(node, ast.ClassDef):
        bases = []
        for base in node.bases:
            dotted = dotted_name(base)
            if dotted is not None:
                bases.append(_scope_symbol(module, symbols.scope, dotted)
                             or dotted)
        symbols.classes.append((qname, node.lineno, tuple(bases)))
        for member in defs_in(node.body):
            _index_def(module, symbols, member, qname, qname, enclosing)
        return qname
    symbols.functions.append((
        qname, node.lineno, class_qname, _function_params(node),
        _decorator_names(node), enclosing, context_params(node)))
    for nested in defs_in(node.body):
        _index_def(module, symbols, nested, f"{qname}.<locals>", None, qname)
    return qname


class CallGraph:
    """Symbol table + call resolution over one :class:`Project`."""

    def __init__(self, project: Project):
        self.project = project
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: module name -> local symbol -> qualified name (functions and
        #: classes the module body defines, plus ``f = g`` aliases).
        self.module_scope: Dict[str, Dict[str, str]] = {}
        for module in project.modules:
            self._add_module(module, module.symbols)

    # ------------------------------------------------------------- indexing

    def _add_module(self, module: ModuleInfo,
                    symbols: ModuleSymbols) -> None:
        """Index one module's rows in source order, so that a def's class
        and enclosing def are the latest ones by their qnames, as when
        the tree was indexed."""
        self.module_scope[module.name] = dict(symbols.scope)
        for row in heapq.merge(symbols.classes, symbols.functions,
                               key=lambda row: row[1]):
            if len(row) == 3:  # a ClassRow
                qname, line, bases = row
                self.classes[qname] = ClassInfo(
                    qname=qname, name=qname.rpartition(".")[2],
                    module=module, line=line, bases=bases)
                continue
            qname, line, class_qname, params, decorators, enclosing, ctx = row
            info = FunctionInfo(
                qname=qname, name=qname.rpartition(".")[2], module=module,
                class_qname=class_qname, params=params,
                decorators=decorators, line=line,
                enclosing=self.functions[enclosing] if enclosing else None,
                ctx_params=ctx)
            self.functions[qname] = info
            if class_qname is not None:
                self.classes[class_qname].methods[info.name] = info

    # ----------------------------------------------------------- resolution

    def _resolve_symbol(self, module: ModuleInfo,
                        dotted: str) -> Optional[str]:
        """Absolute qualified name for a dotted reference in ``module``:
        module-local top-level symbols first, then import aliases (see
        :func:`_scope_symbol`)."""
        return _scope_symbol(module, self.module_scope.get(module.name, {}),
                             dotted)

    def lookup_method(self, class_qname: str,
                      method: str) -> Optional[FunctionInfo]:
        """Resolve ``method`` on a class, walking project-local bases."""
        seen: Set[str] = set()
        queue = [class_qname]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            if method in info.methods:
                return info.methods[method]
            queue.extend(info.bases)
        return None

    def enclosing_def(self, enclosing: Optional[FunctionInfo], name: str
                      ) -> Optional[Union[FunctionInfo, ClassInfo]]:
        """The def or class bound to ``name`` by ``enclosing`` or the
        nearest function around it that binds one (``helper`` in
        ``outer`` → ``outer.<locals>.helper``)."""
        scope = enclosing
        while scope is not None:
            local = f"{scope.qname}.<locals>.{name}"
            found = self.functions.get(local) or self.classes.get(local)
            if found is not None:
                return found
            scope = scope.enclosing
        return None

    def resolve_call(self, module: ModuleInfo, call: ast.Call,
                     enclosing: Optional[FunctionInfo] = None,
                     local_types: Optional[Mapping[str, str]] = None
                     ) -> CallTarget:
        """Best-effort resolution of ``call``'s target.

        ``enclosing`` enables ``self.method()`` / ``super().method()``
        dispatch; ``local_types`` (variable name → class qname) enables
        ``obj.method()`` on variables the flow engine knows the class of.
        """
        func = call.func
        # super().method()
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Call)
                and isinstance(func.value.func, ast.Name)
                and func.value.func.id == "super"
                and enclosing is not None and enclosing.class_qname):
            owner = self.classes.get(enclosing.class_qname)
            if owner is not None:
                for base in owner.bases:
                    found = self.lookup_method(base, func.attr)
                    if found is not None:
                        return CallTarget("function", found.qname)
            return CallTarget("unknown-method", func.attr)
        dotted = dotted_name(func)
        if dotted is None:
            return CallTarget("unknown", "")
        head, _, rest = dotted.partition(".")
        # helper() where an enclosing function defines helper
        local = self.enclosing_def(enclosing, head) if not rest else None
        if local is not None:
            return CallTarget("function" if isinstance(local, FunctionInfo)
                              else "constructor", local.qname)
        # self.method() / cls.method()
        if (enclosing is not None and enclosing.class_qname
                and rest and "." not in rest
                and head == enclosing.receiver_param):
            found = self.lookup_method(enclosing.class_qname, rest)
            if found is not None:
                return CallTarget("function", found.qname)
            return CallTarget("unknown-method", rest)
        # obj.method() with a statically known receiver class
        if (local_types and rest and "." not in rest
                and head in local_types):
            found = self.lookup_method(local_types[head], rest)
            if found is not None:
                return CallTarget("function", found.qname)
            return CallTarget("unknown-method", rest)
        resolved = self._resolve_symbol(module, dotted)
        if resolved is None:
            if isinstance(func, ast.Attribute):
                return CallTarget("unknown-method", func.attr)
            return CallTarget("unknown", dotted)
        if resolved in self.functions:
            return CallTarget("function", resolved)
        if resolved in self.classes:
            return CallTarget("constructor", resolved)
        # ``from pkg import name`` gives pkg.name even when ``name`` is a
        # symbol of pkg's __init__ re-export; try the tail as a project
        # symbol before declaring it external.
        base, _, tail = resolved.rpartition(".")
        exporting = self.project.module(base)
        if exporting is not None:
            origin = exporting.aliases.get(tail)
            if origin is not None:
                if origin in self.functions:
                    return CallTarget("function", origin)
                if origin in self.classes:
                    return CallTarget("constructor", origin)
        if isinstance(func, ast.Attribute) and resolved.split(".")[0] in (
                self.module_scope):
            # A dotted chain rooted at a project symbol we could not pin
            # down (e.g. an attribute on a project class object).
            return CallTarget("unknown-method", func.attr)
        return CallTarget("external", resolved)

    def callee_body(self, target: CallTarget) -> Optional[FunctionInfo]:
        """The function body a project target executes (a constructor's
        ``__init__`` when defined)."""
        if target.kind == "function":
            return self.functions.get(target.qname)
        if target.kind == "constructor":
            return self.lookup_method(target.qname, "__init__")
        return None

    # ---------------------------------------------------------------- edges

    def _annotation_class(self, module: ModuleInfo, annotation) -> Optional[str]:
        """Project class qname named by a parameter annotation, if any.

        Handles both plain names (``ctx: PolicyContext``) and string
        annotations (``ctx: "PolicyContext"``).
        """
        if isinstance(annotation, ast.Constant) and isinstance(
                annotation.value, str):
            text = annotation.value.strip()
            if not text.replace(".", "").replace("_", "").isalnum():
                return None
            try:
                annotation = ast.parse(text, mode="eval").body
            except SyntaxError:
                return None
        dotted = dotted_name(annotation)
        if dotted is None:
            return None
        resolved = self._resolve_symbol(module, dotted) or dotted
        return resolved if resolved in self.classes else None

    def local_types_for(self, info: FunctionInfo) -> Dict[str, str]:
        """Variable → class qname bindings from parameter annotations
        (``ctx: PolicyContext``) and simple constructor assignments
        (``ctx = PolicyContext(engine)``) in one function.

        Conservative single-binding contract: a name rebound to anything
        that is not the same constructor is dropped.  Nested defs and
        classes bind their own names, so their bodies are not read.
        """
        types: Dict[str, str] = {}
        dropped: Set[str] = set()
        arguments = info.node.args
        for arg in (arguments.posonlyargs + arguments.args
                    + arguments.kwonlyargs):
            if arg.annotation is None:
                continue
            qname = self._annotation_class(info.module, arg.annotation)
            if qname is not None:
                types[arg.arg] = qname
        for node in scope_walk(info.node.body):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            qname = None
            if isinstance(node.value, ast.Call):
                resolved = self.resolve_call(info.module, node.value,
                                             enclosing=info)
                if resolved.kind == "constructor":
                    qname = resolved.qname
            if qname is None:
                dropped.add(target.id)
            elif types.get(target.id, qname) != qname:
                dropped.add(target.id)
            else:
                types[target.id] = qname
        return {name: qname for name, qname in types.items()
                if name not in dropped}

    def functions_of_module(self, module_name: str) -> List[FunctionInfo]:
        return [info for info in self.functions.values()
                if info.module.name == module_name]


def build_callgraph(project: Project) -> CallGraph:
    return CallGraph(project)
