"""Symbol table + call graph resolution (`repro.analysis.callgraph`).

Resolution must survive the spellings real code uses: import aliases,
module-level ``f = g`` aliasing, ``self``/``super()`` dispatch through
project-local bases, constructor calls, decorated defs, calls into
nested defs, and receiver types learned from parameter annotations or
constructor assignments.  The caller edges the flow engine schedules by
are the ones its resolver records.
"""

import ast
import pathlib
import textwrap

from repro.analysis.callgraph import build_callgraph
from repro.analysis.core import ModuleInfo, Project, scope_walk
from repro.analysis.driver import analyze_paths, load_project
from repro.analysis.flow import ProjectFlowAnalysis
from repro.analysis.records import RecordStore


def make_project(**modules):
    """A Project from ``name=source`` pairs (dotted names allowed via
    double underscores: ``repro__sim__policy`` → ``repro.sim.policy``)."""
    infos = []
    for name, source in modules.items():
        dotted = name.replace("__", ".")
        source = textwrap.dedent(source)
        display = dotted.replace(".", "/") + ".py"
        infos.append(ModuleInfo(
            path=pathlib.Path(display), display=display, source=source,
            tree=ast.parse(source), name=dotted))
    return Project(infos)


def calls_in(graph, qname):
    """Every call in one function's own body (nested defs excluded), with
    its resolution, the way the flow engine resolves it."""
    info = graph.functions[qname]
    local_types = graph.local_types_for(info)
    return [(node, graph.resolve_call(info.module, node, enclosing=info,
                                      local_types=local_types))
            for node in scope_walk(info.node.body)
            if isinstance(node, ast.Call)]


class TestSymbolTable:
    def test_functions_classes_and_methods_are_indexed(self):
        graph = build_callgraph(make_project(mod="""
            def run():
                pass

            class Engine:
                def step(self):
                    pass

                @staticmethod
                def version():
                    pass
            """))
        assert "mod.run" in graph.functions
        assert "mod.Engine" in graph.classes
        step = graph.functions["mod.Engine.step"]
        assert step.is_method and step.binds_instance
        assert step.receiver_param == "self"
        version = graph.functions["mod.Engine.version"]
        assert not version.binds_instance and version.receiver_param is None

    def test_decorated_defs_keep_their_qname(self):
        graph = build_callgraph(make_project(mod="""
            import functools

            def wrap(fn):
                return fn

            @wrap
            @functools.lru_cache(maxsize=None)
            def cached():
                pass
            """))
        info = graph.functions["mod.cached"]
        assert info.decorators == ("wrap", "functools.lru_cache")

    def test_nested_defs_and_local_classes_get_locals_qnames(self):
        graph = build_callgraph(make_project(mod="""
            def outer(flag):
                def helper():
                    pass
                if flag:
                    def in_if():
                        pass
                try:
                    def in_try():
                        pass
                except ValueError:
                    def in_handler():
                        pass
                with open("x") as stream:
                    def in_with():
                        pass

                class Local:
                    def method(self):
                        def deep():
                            pass

            class Engine:
                def step(self):
                    def inner():
                        pass
            """))
        for name in ("helper", "in_if", "in_try", "in_handler", "in_with"):
            info = graph.functions[f"mod.outer.<locals>.{name}"]
            assert not info.is_method
            assert info.enclosing is graph.functions["mod.outer"]
        assert "mod.outer.<locals>.Local" in graph.classes
        method = graph.functions["mod.outer.<locals>.Local.method"]
        assert method.class_qname == "mod.outer.<locals>.Local"
        assert method.binds_instance
        assert method.enclosing is graph.functions["mod.outer"]
        deep = graph.functions["mod.outer.<locals>.Local.method.<locals>.deep"]
        assert deep.enclosing is method
        inner = graph.functions["mod.Engine.step.<locals>.inner"]
        assert inner.enclosing is graph.functions["mod.Engine.step"]
        # A nested def never shadows a method or a module-level name.
        assert set(graph.classes["mod.Engine"].methods) == {"step"}
        assert set(graph.module_scope["mod"]) == {"outer", "Engine"}
        assert graph.functions["mod.outer"].enclosing is None


class TestResolution:
    def test_import_alias_resolves_to_project_function(self):
        graph = build_callgraph(make_project(
            helpers="""
                def stamp():
                    return 1
                """,
            caller="""
                from helpers import stamp as s

                def use():
                    return s()
                """))
        ((_, target),) = calls_in(graph, "caller.use")
        assert target.kind == "function"
        assert target.qname == "helpers.stamp"

    def test_module_level_function_alias(self):
        graph = build_callgraph(make_project(mod="""
            def _impl():
                return 1

            run = _impl

            def use():
                return run()
            """))
        ((_, target),) = calls_in(graph, "mod.use")
        assert (target.kind, target.qname) == ("function", "mod._impl")

    def test_self_dispatch_walks_project_bases(self):
        graph = build_callgraph(make_project(mod="""
            class Base:
                def shared(self):
                    return 0

            class Child(Base):
                def use(self):
                    return self.shared()
            """))
        ((_, target),) = calls_in(graph, "mod.Child.use")
        assert (target.kind, target.qname) == ("function", "mod.Base.shared")

    def test_super_dispatch(self):
        graph = build_callgraph(make_project(mod="""
            class Base:
                def setup(self):
                    return 0

            class Child(Base):
                def setup(self):
                    return super().setup()
            """))
        calls = calls_in(graph, "mod.Child.setup")
        targets = {(t.kind, t.qname) for _, t in calls}
        assert ("function", "mod.Base.setup") in targets

    def test_constructor_call_and_callee_body(self):
        graph = build_callgraph(make_project(mod="""
            class Engine:
                def __init__(self, n):
                    self.n = n

            def build():
                return Engine(4)
            """))
        ((_, target),) = calls_in(graph, "mod.build")
        assert (target.kind, target.qname) == ("constructor", "mod.Engine")
        body = graph.callee_body(target)
        assert body is not None and body.qname == "mod.Engine.__init__"

    def test_external_and_unknown_targets(self):
        graph = build_callgraph(make_project(mod="""
            import time

            def use(obj):
                time.time()
                obj.poke()
            """))
        targets = [t for _, t in calls_in(graph, "mod.use")]
        assert ("external", "time.time") in [(t.kind, t.qname)
                                             for t in targets]
        assert ("unknown-method", "poke") in [(t.kind, t.qname)
                                              for t in targets]

    def test_bare_call_to_an_enclosing_functions_def_or_class(self):
        graph = build_callgraph(make_project(mod="""
            def helper():
                return 0

            def outer():
                def helper():
                    return 1
                class Box:
                    pass
                def sibling():
                    return helper()
                return helper(), Box(), sibling()
            """))
        targets = {(t.kind, t.qname) for _, t in calls_in(graph, "mod.outer")}
        assert targets == {("function", "mod.outer.<locals>.helper"),
                           ("constructor", "mod.outer.<locals>.Box"),
                           ("function", "mod.outer.<locals>.sibling")}
        ((_, target),) = calls_in(graph, "mod.outer.<locals>.sibling")
        assert (target.kind, target.qname) == (
            "function", "mod.outer.<locals>.helper")


class TestLocalTypes:
    def test_parameter_annotation_binds_receiver_class(self):
        graph = build_callgraph(make_project(
            repro__sim__policy="""
                class PolicyContext:
                    def set_quota(self, kernel, value):
                        pass
                """,
            repro__qos__policy="""
                from repro.sim.policy import PolicyContext

                def decide(ctx: PolicyContext):
                    ctx.set_quota("k", 1)

                def decide_str(ctx: "PolicyContext"):
                    ctx.set_quota("k", 2)
                """))
        for qname in ("repro.qos.policy.decide", "repro.qos.policy.decide_str"):
            ((_, target),) = calls_in(graph, qname)
            assert (target.kind, target.qname) == (
                "function", "repro.sim.policy.PolicyContext.set_quota"), qname

    def test_constructor_assignment_binds_and_rebinding_drops(self):
        graph = build_callgraph(make_project(mod="""
            class A:
                def go(self):
                    pass

            def single():
                obj = A()
                obj.go()

            def rebound(mystery):
                obj = A()
                obj = mystery()
                obj.go()
            """))
        single_targets = {(t.kind, t.qname)
                          for _, t in calls_in(graph, "mod.single")}
        assert single_targets == {("constructor", "mod.A"),
                                  ("function", "mod.A.go")}
        rebound_targets = {(t.kind, t.qname)
                           for _, t in calls_in(graph, "mod.rebound")}
        assert ("function", "mod.A.go") not in rebound_targets
        assert ("unknown-method", "go") in rebound_targets

    def test_a_nested_defs_bindings_stay_in_the_nested_def(self):
        # ``obj`` in outer is an untyped parameter; the ``obj = A()``
        # inside inner binds inner's own local.
        graph = build_callgraph(make_project(mod="""
            class A:
                def go(self):
                    pass

            def outer(obj):
                def inner():
                    obj = A()
                    return obj
                obj.go()
            """))
        assert graph.local_types_for(graph.functions["mod.outer"]) == {}
        ((_, target),) = calls_in(graph, "mod.outer")
        assert (target.kind, target.qname) == ("unknown-method", "go")
        inner = graph.functions["mod.outer.<locals>.inner"]
        assert graph.local_types_for(inner) == {"obj": "mod.A"}


class TestEdges:
    def test_callers_of_reverse_edges(self):
        # The engine records an edge for every call it resolves; a call
        # inside a nested def belongs to the nested def, not to the
        # function around it.
        engine = ProjectFlowAnalysis(make_project(
            helpers="""
                def leaf():
                    return 1
                """,
            caller="""
                import helpers

                def one():
                    return helpers.leaf()

                def two():
                    def nested():
                        return one()
                    return helpers.leaf() + nested()
                """))
        assert engine.callers == {
            "helpers.leaf": {"caller.one", "caller.two"},
            "caller.one": {"caller.two.<locals>.nested"},
            "caller.two.<locals>.nested": {"caller.two"},
        }

    def test_functions_of_module(self):
        graph = build_callgraph(make_project(
            a="def f():\n    pass\n",
            b="def g():\n    pass\n"))
        assert [info.qname for info in graph.functions_of_module("a")] == [
            "a.f"]


class TestSymbolsFromRecords:
    SOURCES = {
        "pkg/__init__.py": "",
        "pkg/base.py": """
            import functools

            class Base:
                def run(self, ctx):
                    return ctx

            def _impl(x):
                return x

            run = _impl
            """,
        "pkg/mod.py": """
            import functools
            from pkg import base as b
            from pkg.base import Base

            class Late(Early):  # Early is defined below: stays unresolved
                pass

            class Early(b.Base):
                @property
                def size(self):
                    return 1

                @size.setter
                def size(self, value):
                    self._size = value

                @staticmethod
                def make(policy: "PolicyContext", *args, ctx=None, **kw):
                    class Local(Base):
                        def inner(self):
                            def deepest():
                                return 0
                            return deepest()
                    return Local

            try:
                def pick():
                    return 1

                class Backend:
                    def fast(self):
                        return 1
            except ImportError:
                def pick():
                    return 2

                class Backend:
                    def slow(self):
                        return 2

            @functools.lru_cache(maxsize=None)
            def cached(x):
                def helper():
                    return x
                return helper
            """,
    }

    def shape(self, graph):
        functions = {
            qname: (info.name, info.module.display, info.class_qname,
                    info.params, info.decorators, info.line,
                    info.enclosing.qname if info.enclosing else None,
                    info.ctx_params)
            for qname, info in graph.functions.items()}
        classes = {
            qname: (info.name, info.module.display, info.line, info.bases,
                    {name: method.qname
                     for name, method in info.methods.items()})
            for qname, info in graph.classes.items()}
        return (list(graph.functions), functions, list(graph.classes),
                classes, graph.module_scope)

    def test_a_graph_from_records_equals_one_from_trees(self, tmp_path):
        for name, source in self.SOURCES.items():
            (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / name).write_text(textwrap.dedent(source))
        cache = tmp_path / "cache"
        analyze_paths([tmp_path / "pkg"], root=tmp_path,
                      flow_cache_dir=cache)
        from_records, _ = load_project([tmp_path / "pkg"], root=tmp_path,
                                       records=RecordStore(cache))
        assert all(module.record is not None
                   for module in from_records.modules)
        from_trees, _ = load_project([tmp_path / "pkg"], root=tmp_path)
        graph = build_callgraph(from_records)
        assert self.shape(graph) == self.shape(build_callgraph(from_trees))
        assert graph.classes["pkg.mod.Late"].bases == ("Early",)
        # Each method joins the class statement it is defined in.
        assert list(graph.classes["pkg.mod.Backend"].methods) == ["slow"]
        assert graph.classes["pkg.mod.Early"].bases == ("pkg.base.Base",)
        make = graph.functions["pkg.mod.Early.make"]
        assert make.ctx_params == ("policy", "ctx")
        # A node is found by qname and line: the later of two defs that
        # share a qname, the setter over the getter.
        assert graph.functions["pkg.mod.pick"].node.body[0].value.value == 2
        assert len(graph.functions["pkg.mod.Early.size"].node.args.args) == 2
        inner = graph.functions[
            "pkg.mod.Early.make.<locals>.Local.inner.<locals>.deepest"]
        assert inner.node.name == "deepest"
        assert inner.enclosing.qname == (
            "pkg.mod.Early.make.<locals>.Local.inner")
