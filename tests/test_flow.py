"""Interprocedural flow engine: taint traces, effect inference, caching.

Three layers under test:

* the FLOW/FLOAT rules through :func:`check_source` — positive fixtures
  must carry a full source→sink trace in the message, and each positive
  fixture has a *mediated twin* (seeded RNG, ``sorted``, ``math.fsum``)
  that must analyse clean;
* effect inference (the ``mutates``/``io`` summary facts) and the EFFECT
  seam rules, driven by module names the rules anchor on;
* the persistent summary cache: a second run over an unchanged tree
  computes nothing, an edit recomputes only what it must, and the
  findings are identical either way.
"""

import ast
import os
import pathlib
import subprocess
import sys
import textwrap

from repro.analysis.callgraph import build_callgraph  # noqa: F401
from repro.analysis.core import ModuleInfo, Project
from repro.analysis.driver import (analyze_paths, check_source,
                                   resolve_flow_cache_dir)
from repro.analysis.flow import ProjectFlowAnalysis

REPO = pathlib.Path(__file__).resolve().parents[1]


def flow(source, rules=("FLOW001", "FLOW002", "FLOW003", "FLOAT001"),
         name=None):
    return check_source(textwrap.dedent(source), rule_ids=list(rules),
                        name=name)


def rules_of(findings):
    return [finding.rule for finding in findings]


def analysis_of(source, name="mod"):
    source = textwrap.dedent(source)
    module = ModuleInfo(path=pathlib.Path(name + ".py"),
                        display=name + ".py", source=source,
                        tree=ast.parse(source), name=name)
    return ProjectFlowAnalysis(Project([module]))


# ------------------------------------------------------------ FLOW001


class TestTaintedIdentity:
    def test_trace_crosses_two_intermediate_helpers(self):
        findings = flow("""
            import hashlib
            import time

            def stamp():
                return time.time()

            def describe():
                return f"run at {stamp()}"

            def case_key():
                return hashlib.sha256(describe().encode()).hexdigest()
            """)
        assert rules_of(findings) == ["FLOW001"]
        message = findings[0].message
        # The full provenance chain is printed, source to sink.
        assert "wall-clock read time.time()" in message
        assert "stamp()" in message and "describe()" in message
        assert "identity sink sha256()" in message

    def test_seeded_rng_twin_is_clean(self):
        findings = flow("""
            import hashlib
            import random

            def stamp():
                return random.Random(42).random()

            def describe():
                return f"run at {stamp()}"

            def case_key():
                return hashlib.sha256(describe().encode()).hexdigest()
            """)
        assert findings == []

    def test_set_order_through_join_helper(self):
        findings = flow("""
            import hashlib

            def join(items):
                return ",".join(items)

            def digest(names):
                return hashlib.sha256(join(set(names)).encode()).hexdigest()
            """)
        assert rules_of(findings) == ["FLOW001"]

    def test_sorted_twin_is_clean(self):
        findings = flow("""
            import hashlib

            def join(items):
                return ",".join(items)

            def digest(names):
                return hashlib.sha256(
                    join(sorted(set(names))).encode()).hexdigest()
            """)
        assert findings == []

    def test_unseeded_rng_into_key_callable(self):
        findings = flow("""
            import random

            def run(case_key):
                return case_key(random.random())
            """)
        assert rules_of(findings) == ["FLOW001"]
        assert "random.random" in findings[0].message

    def test_fires_inside_a_nested_def(self):
        findings = flow("""
            import hashlib
            import time

            def outer():
                def key():
                    return hashlib.sha256(str(time.time()).encode())
                return key
            """)
        assert rules_of(findings) == ["FLOW001"]
        assert "time.time" in findings[0].message

    def test_trace_through_a_called_nested_def(self):
        findings = flow("""
            import hashlib
            import time

            def case_key(spec):
                def stamp():
                    return time.time()
                return hashlib.sha256(f"{spec}{stamp()}".encode()).hexdigest()
            """)
        assert rules_of(findings) == ["FLOW001"]
        assert "returned via stamp()" in findings[0].message


    def _store_then_digest(self, store):
        return flow(f"""
            import hashlib
            import json
            import time

            def _digest(payload):
                text = json.dumps(payload, sort_keys=True)
                return hashlib.sha256(text.encode()).hexdigest()

            def isolated_key(name):
                {store}
                return _digest(payload)

            def stamped():
                return isolated_key(str(time.time()))
            """)

    def test_a_dict_literal_carries_its_values_taint(self):
        findings = self._store_then_digest('payload = {"kernel": name}')
        assert rules_of(findings) == ["FLOW001"]
        assert "passed to isolated_key()" in findings[0].message

    def test_a_subscript_store_carries_its_values_taint(self):
        # The twin of the dict literal: storing into the payload by
        # subscript joins the value into what the payload holds.
        findings = self._store_then_digest(
            'payload = {}\n                payload["kernel"] = name')
        assert rules_of(findings) == ["FLOW001"]
        assert "passed to isolated_key()" in findings[0].message

    def _keyed_by_the_clock(self, statement):
        return flow(f"""
            import hashlib
            import time

            def remember(cache, value):
                {statement}
            """)

    def test_a_sink_in_a_load_subscript_is_checked(self):
        findings = self._keyed_by_the_clock(
            "return cache[hashlib.sha256(str(time.time()).encode())"
            ".hexdigest()]")
        assert rules_of(findings) == ["FLOW001"]

    def test_a_sink_in_a_store_subscript_is_checked(self):
        # The twin of the load: a store runs its subscript expression too.
        findings = self._keyed_by_the_clock(
            "cache[hashlib.sha256(str(time.time()).encode())"
            ".hexdigest()] = value")
        assert rules_of(findings) == ["FLOW001"]
        assert "time.time" in findings[0].message

    def _stamp_then_digest(self, store):
        return flow(f"""
            import hashlib
            import json
            import time

            def key(payload):
                {store}
                return hashlib.sha256(json.dumps(payload).encode()).hexdigest()
            """)

    def test_a_subscript_store_of_the_clock_reaches_the_digest(self):
        findings = self._stamp_then_digest('payload["stamp"] = time.time()')
        assert rules_of(findings) == ["FLOW001"]

    def test_an_augmented_subscript_store_reaches_the_digest(self):
        # The twin of the plain store: ``+=`` joins into the payload too.
        findings = self._stamp_then_digest('payload["stamp"] += time.time()')
        assert rules_of(findings) == ["FLOW001"]
        assert "time.time" in findings[0].message

    def test_a_diamond_keeps_one_sink_per_key_and_one_finding(self):
        # top reaches the sink through left and through right; one
        # witness per (param, rule, sink, line) is enough, so the
        # summary and the caller's findings do not grow per call path.
        source = """
            import hashlib
            import time

            def sink(value):
                return hashlib.sha256(value.encode()).hexdigest()

            def left(value):
                return sink(value)

            def right(value):
                return sink(value)

            def top(value):
                return left(value) + right(value)

            def caller():
                return top(str(time.time()))
            """
        sinks = analysis_of(source).facts_for("mod.top").param_sinks
        assert [(sink.param, sink.rule, sink.line) for sink in sinks] == [
            (0, "FLOW001", 6)]
        assert len(next(iter(sinks)).trace) == 2
        assert rules_of(flow(source)) == ["FLOW001"]


# ------------------------------------------------------------ FLOW002


class TestTaintedSortKey:
    def test_lambda_id_key(self):
        findings = flow("""
            def order(tbs):
                return sorted(tbs, key=lambda tb: id(tb))
            """)
        assert rules_of(findings) == ["FLOW002"]

    def test_named_helper_key_reading_the_clock(self):
        findings = flow("""
            import time

            def jitter(item):
                return time.time()

            def order(items):
                return sorted(items, key=jitter)
            """)
        assert rules_of(findings) == ["FLOW002"]

    def test_stable_key_is_clean(self):
        findings = flow("""
            def order(tbs):
                return sorted(tbs, key=lambda tb: tb.name)
            """)
        assert findings == []

    def test_a_nested_def_used_as_key(self):
        # The key name resolves through the enclosing function's
        # <locals> first, as a call to it would.
        findings = flow("""
            import time

            def order(xs):
                def stamp(x):
                    return time.time()
                return sorted(xs, key=stamp)
            """)
        assert rules_of(findings) == ["FLOW002"]
        assert "wall-clock read time.time()" in findings[0].message

    def test_a_nested_key_shadows_a_module_level_one(self):
        findings = flow("""
            import time

            def stamp(x):
                return time.time()

            def order(xs):
                def stamp(x):
                    return x
                return sorted(xs, key=stamp)
            """)
        assert findings == []


# ------------------------------------------------------------ FLOW003


class TestTaintedTelemetry:
    def test_wall_clock_into_note_quota(self):
        findings = flow("""
            import time

            def observe(recorder):
                recorder.note_quota("k", time.time())
            """)
        assert rules_of(findings) == ["FLOW003"]

    def test_simulation_quantities_are_clean(self):
        findings = flow("""
            def observe(recorder, cycles):
                recorder.note_quota("k", cycles)
            """)
        assert findings == []


# ------------------------------------------------------------ FLOAT001


class TestFloatAccumulation:
    def test_augmented_sum_over_a_set(self):
        findings = flow("""
            def total(values):
                acc = 0.0
                for value in set(values):
                    acc += value
                return acc
            """)
        assert rules_of(findings) == ["FLOAT001"]

    def test_sum_over_helper_returned_listing(self):
        findings = flow("""
            import os

            def entries(path):
                return os.listdir(path)

            def total(path, sizes):
                return sum(sizes[name] for name in entries(path))
            """)
        assert "FLOAT001" in rules_of(findings)

    def test_fsum_twin_is_clean(self):
        findings = flow("""
            import math

            def total(values):
                return math.fsum(set(values))
            """)
        assert findings == []

    def test_sorted_loop_twin_is_clean(self):
        findings = flow("""
            def total(values):
                acc = 0.0
                for value in sorted(set(values)):
                    acc += value
                return acc
            """)
        assert findings == []

    def test_plain_list_accumulation_is_clean(self):
        findings = flow("""
            def total(values):
                acc = 0.0
                for value in values:
                    acc += value
                return acc
            """)
        assert findings == []

    def test_a_nested_defs_float_does_not_type_the_outer_name(self):
        findings = flow("""
            def total(values):
                def reset():
                    acc = 0.0
                    return acc
                acc = 0
                for value in set(values):
                    acc += value
                return acc + reset()
            """)
        assert findings == []

    def test_an_outer_float_does_not_type_a_nested_defs_name(self):
        findings = flow("""
            def total(values):
                acc = 0.0
                def inner(items):
                    acc = 0
                    for item in set(items):
                        acc += item
                    return acc
                return inner(values) + acc
            """)
        assert findings == []

    def test_a_functions_float_does_not_type_a_module_level_name(self):
        findings = flow("""
            def helper():
                total = 0.0
                return total

            total = 0
            for value in set([1, 2]):
                total += value
            """)
        assert findings == []

    def test_each_body_types_its_own_names(self):
        findings = flow("""
            def total(values):
                def inner(items):
                    acc = 0.0
                    for item in set(items):
                        acc += item
                    return acc
                return inner(values)

            total = 0.0
            for value in set([1.0, 2.0]):
                total += value
            """)
        assert [(f.rule, f.line) for f in findings] == [
            ("FLOAT001", 6), ("FLOAT001", 12)]

    def test_float_names_come_from_the_body_walk(self, monkeypatch):
        # Collecting float names walks each body once with the rest of
        # the analysis.  The only traversals from a module root are the
        # module's node index and the parent map the += check asks for;
        # none starts at a module made up to walk one body.
        source = textwrap.dedent("""
            def total(values):
                acc = 0.0
                for value in values:
                    acc += value
                return acc

            class Sums:
                def add(self, values):
                    return total(values)
            """)
        roots = []
        iter_child_nodes = ast.iter_child_nodes

        def counting(node):
            if isinstance(node, ast.Module):
                roots.append(node)
            return iter_child_nodes(node)

        monkeypatch.setattr(ast, "iter_child_nodes", counting)
        module = ModuleInfo(path=pathlib.Path("mod.py"), display="mod.py",
                            source=source, tree=ast.parse(source),
                            name="mod")
        engine = ProjectFlowAnalysis(Project([module]))
        assert engine.stats["computed"] == 1
        assert [id(root) for root in roots] == [id(module.tree)] * 2


# ----------------------------------------------------- effect inference


def effects(analysis, qname):
    facts = analysis.facts_for(qname)
    return sorted(facts.mutates), facts.io


class TestEffectInference:
    def test_four_way_classification(self):
        # The two facts the EFFECT rules read tell mutating and IO
        # functions apart from pure ones; reading state is no effect.
        analysis = analysis_of("""
            def pure(a, b):
                return a + b

            def reads(engine):
                return engine.cycle

            def mutates(engine):
                engine.cycle = 0

            def logs(x):
                print(x)
            """)
        assert effects(analysis, "mod.pure") == ([], False)
        assert effects(analysis, "mod.reads") == ([], False)
        assert effects(analysis, "mod.mutates") == (["param:engine"], False)
        assert effects(analysis, "mod.logs") == ([], True)

    def test_mutation_maps_through_call_summaries(self):
        analysis = analysis_of("""
            def poke(target):
                target.count += 1

            def wrapper(engine):
                poke(engine)
            """)
        facts = analysis.facts_for("mod.wrapper")
        assert "param:engine" in facts.mutates

    def test_io_propagates_transitively(self):
        analysis = analysis_of("""
            def emit(row):
                print(row)

            def outer(rows):
                for row in rows:
                    emit(row)
            """)
        assert effects(analysis, "mod.outer") == ([], True)

    def test_local_mutation_stays_local(self):
        analysis = analysis_of("""
            def build(n):
                out = []
                for i in range(n):
                    out.append(i)
                return out
            """)
        assert effects(analysis, "mod.build") == ([], False)

    def test_closure_mutation_is_local_global_mutation_is_not(self):
        analysis = analysis_of("""
            NOTES = []

            def outer(rows):
                seen = []
                def note(row):
                    seen.append(row)
                for row in rows:
                    note(row)
                return seen

            def log(row):
                NOTES.append(row)
            """)
        assert "mod.outer.<locals>.note" in analysis.facts
        assert effects(analysis, "mod.outer.<locals>.note") == ([], False)
        assert effects(analysis, "mod.log") == (["global"], False)

    def test_a_nested_def_counts_only_where_it_is_called(self):
        # Defining a def has no effect, whether or not an ``if`` guards
        # it; calling it has the callee's.
        analysis = analysis_of("""
            LOG = []

            def direct():
                def inner():
                    LOG.append(1)

            def guarded(flag):
                if flag:
                    def inner():
                        LOG.append(1)

            def calls():
                def inner():
                    LOG.append(1)
                inner()
            """)
        assert effects(analysis, "mod.direct") == ([], False)
        assert effects(analysis, "mod.guarded") == ([], False)
        assert effects(analysis, "mod.direct.<locals>.inner") == (
            ["global"], False)
        assert effects(analysis, "mod.calls") == (["global"], False)

    def test_a_called_nested_def_passes_on_its_summary(self):
        # As in a runner's ``key(name)`` helper: the enclosing function
        # gets the nested def's IO and fresh sources through the call.
        analysis = analysis_of("""
            import time

            def outer(path):
                def key(name):
                    print(name)
                    return time.time()
                return key(path)
            """)
        facts = analysis.facts_for("mod.outer")
        assert facts.io
        assert {tag.kind for tag in facts.ret.taints} == {"time"}


# ----------------------------------------------------- EFFECT rules


class TestEffectRules:
    def test_effect001_telemetry_mutating_engine_param(self):
        findings = check_source(textwrap.dedent("""
            class Recorder:
                def open_epoch(self, engine):
                    engine.epoch += 1
                    self.epochs = []
            """), rule_ids=["EFFECT001"], name="repro.sim.telemetry")
        assert rules_of(findings) == ["EFFECT001"]
        assert "engine" in findings[0].message

    def test_effect001_covers_the_record_codec(self):
        findings = check_source(textwrap.dedent("""
            def check(payload):
                payload.pop("kind", None)
            """), rule_ids=["EFFECT001"], name="repro.sim.records")
        assert rules_of(findings) == ["EFFECT001"]
        assert "payload" in findings[0].message

    def test_effect001_self_accumulation_and_io_are_fine(self):
        findings = check_source(textwrap.dedent("""
            class Recorder:
                def open_epoch(self, engine):
                    self.epochs.append(engine.cycle)

                def export(self, stream):
                    stream.write("row")
            """), rule_ids=["EFFECT001"], name="repro.sim.telemetry")
        assert findings == []

    def test_effect002_observer_with_side_effect(self):
        findings = check_source(textwrap.dedent("""
            class PolicyContext:
                def quota_attainment(self, kernel):
                    self.calls += 1
                    return 1.0

                def set_quota(self, kernel, value):
                    self.quotas[kernel] = value
            """), rule_ids=["EFFECT002"], name="repro.sim.policy")
        assert rules_of(findings) == ["EFFECT002"]
        assert "quota_attainment" in findings[0].message
        # set_quota is on the actuation allowlist and stays unflagged.

    def test_effect003_policy_reaching_around_the_seam(self):
        findings = check_source(textwrap.dedent("""
            class Policy:
                def on_epoch(self, ctx, engine):
                    engine.cycle = 0
                    print("acted")
            """), rule_ids=["EFFECT003"], name="repro.qos.fixture")
        assert rules_of(findings) == ["EFFECT003"]
        message = findings[0].message
        assert "engine" in message and "IO" in message

    def test_effect003_actuating_via_the_seam_is_fine(self):
        findings = check_source(textwrap.dedent("""
            class Policy:
                def on_epoch(self, ctx):
                    self.rounds += 1
                    ctx.set_quota("k", 1)
            """), rule_ids=["EFFECT003"], name="repro.qos.fixture")
        assert findings == []


# ----------------------------------------------------- summary cache


def write_tree(root):
    (root / "helpers.py").write_text(textwrap.dedent("""
        import time

        def stamp():
            return time.time()
        """))
    (root / "keys.py").write_text(textwrap.dedent("""
        import hashlib

        from helpers import stamp

        def case_key():
            return hashlib.sha256(str(stamp()).encode()).hexdigest()
        """))
    (root / "clean.py").write_text(textwrap.dedent("""
        def double(x):
            return 2 * x
        """))


class TestSummaryCache:
    RULES = ["FLOW001", "FLOW002", "FLOW003", "FLOAT001"]

    def run(self, root, cache):
        return analyze_paths([root], root=root, rule_ids=self.RULES,
                             flow_cache_dir=cache)

    def test_warm_run_skips_every_module(self, tmp_path):
        write_tree(tmp_path)
        cache = tmp_path / "cache"
        cold = self.run(tmp_path, cache)
        assert cold.flow_stats == {"modules": 3, "computed": 3, "cached": 0}
        assert rules_of(cold.findings) == ["FLOW001"]
        warm = self.run(tmp_path, cache)
        assert warm.flow_stats == {"modules": 3, "computed": 0, "cached": 3}
        # Cached findings are bit-identical to the cold run's.
        assert [(f.rule, f.path, f.line, f.message)
                for f in warm.findings] == [
            (f.rule, f.path, f.line, f.message) for f in cold.findings]

    def test_editing_a_module_invalidates_its_dependents(self, tmp_path):
        write_tree(tmp_path)
        cache = tmp_path / "cache"
        self.run(tmp_path, cache)
        # Sanitize the source helper: its importer must recompute too,
        # and the finding disappears.
        (tmp_path / "helpers.py").write_text(textwrap.dedent("""
            def stamp():
                return 42
            """))
        result = self.run(tmp_path, cache)
        assert result.flow_stats["cached"] == 1  # clean.py only
        assert result.flow_stats["computed"] == 2
        assert result.findings == []

    def test_import_cycles_invalidate_the_whole_cycle(self, tmp_path):
        # a ↔ b ↔ c form a cycle; d imports only a.  Every member's
        # cache key must cover every other member's source — a
        # traversal-order-truncated closure would leave some member
        # cached after an edit elsewhere in the cycle (and, worse, the
        # truncation point used to vary with per-process hash
        # randomisation, so warm runs recomputed a random subset).
        (tmp_path / "a.py").write_text("import b\n\nX = 1\n")
        (tmp_path / "b.py").write_text("import c\n\nY = 2\n")
        (tmp_path / "c.py").write_text("import a\n\nZ = 3\n")
        (tmp_path / "d.py").write_text("import a\n\nW = 4\n")
        cache = tmp_path / "cache"
        cold = self.run(tmp_path, cache)
        assert cold.flow_stats == {"modules": 4, "computed": 4, "cached": 0}
        warm = self.run(tmp_path, cache)
        assert warm.flow_stats == {"modules": 4, "computed": 0, "cached": 4}
        (tmp_path / "b.py").write_text("import c\n\nY = 20\n")
        edited = self.run(tmp_path, cache)
        assert edited.flow_stats == {"modules": 4, "computed": 4, "cached": 0}

    def test_summary_bytes_do_not_depend_on_the_hash_seed(self):
        # Sinks and return tags that tie on everything but their sink
        # text or trace: equal facts must serialize to equal bytes under
        # every hash seed, so the summary cache a run writes does not
        # depend on the process that wrote it.
        script = textwrap.dedent("""
            import json
            from repro.analysis.flow import (
                AbsValue, FunctionFacts, ParamSink, Tag)
            sinks = frozenset(
                ParamSink(0, "FLOW001", f"identity sink {name}()", "m.py", 3,
                          (hop,))
                for name in ("a", "b", "c", "d") for hop in ("x", "y"))
            taints = frozenset(Tag("time", "wall-clock read", "m.py", 2,
                                   (hop,)) for hop in "pqrstu")
            facts = FunctionFacts(ret=AbsValue(taints), param_sinks=sinks)
            print(json.dumps(facts.to_dict(), sort_keys=True))
            """)
        outputs = set()
        for seed in range(6):
            env = dict(os.environ, PYTHONHASHSEED=str(seed),
                       PYTHONPATH=str(REPO / "src"))
            outputs.add(subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True).stdout)
        assert len(outputs) == 1

    def test_disabled_cache_always_computes(self, tmp_path):
        write_tree(tmp_path)
        first = analyze_paths([tmp_path], root=tmp_path,
                              rule_ids=self.RULES, flow_cache=False)
        second = analyze_paths([tmp_path], root=tmp_path,
                               rule_ids=self.RULES, flow_cache=False)
        assert first.flow_stats["computed"] == 3
        assert second.flow_stats["computed"] == 3


def write_record_tree(root):
    """A tree with a flow finding, module-rule findings, a suppression,
    a class hierarchy and an import chain core <- mid <- top."""
    files = {
        "pkg/__init__.py": "",
        "pkg/core.py": """
            import time

            def stamp():
                return time.time()  # repro: noqa=DET001

            class Base:
                def label(self):
                    return "base"
            """,
        "pkg/mid.py": """
            import hashlib

            from pkg.core import Base, stamp

            class Keyed(Base):
                def key(self):
                    return hashlib.sha256(str(stamp()).encode()).hexdigest()
            """,
        "pkg/top.py": """
            from pkg.mid import Keyed

            def build():
                return Keyed().key()
            """,
        "pkg/leaf.py": """
            def double(x):
                def twice():
                    return 2 * x
                return twice()

            for name in {"a", "b"}:
                print(name)
            """,
    }
    for name, source in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))


def as_rows(result):
    return [[(f.rule, f.severity, f.path, f.line, f.message) for f in group]
            for group in (result.findings, result.suppressed)]


class TestModuleRecords:
    """One record per module: a warm run parses only what changed, and a
    broken record recovers with the result of an uncached run."""

    def run(self, root, cache):
        return analyze_paths([root / "pkg"], root=root, flow_cache_dir=cache)

    def uncached(self, root):
        return as_rows(analyze_paths([root / "pkg"], root=root,
                                     flow_cache=False))

    def parsed(self, monkeypatch, root, cache):
        """The run's result and the files it parsed, in parse order."""
        files = []
        parse = ast.parse

        def counting(source, filename="<unknown>", mode="exec", **kwargs):
            if mode == "exec":
                files.append(pathlib.Path(filename).relative_to(root)
                             .as_posix())
            return parse(source, filename, mode, **kwargs)

        monkeypatch.setattr(ast, "parse", counting)
        try:
            return self.run(root, cache), files
        finally:
            monkeypatch.setattr(ast, "parse", parse)

    def test_one_record_per_module(self, tmp_path):
        write_record_tree(tmp_path)
        result = self.run(tmp_path, tmp_path / "cache")
        assert len(sorted((tmp_path / "cache").iterdir())) == len(
            result.modules) == 5
        assert rules_of(result.findings) == ["DET003", "FLOW001"]
        assert rules_of(result.suppressed) == ["DET001"]

    def test_a_warm_run_parses_nothing(self, tmp_path, monkeypatch):
        write_record_tree(tmp_path)
        cache = tmp_path / "cache"
        cold, parsed = self.parsed(monkeypatch, tmp_path, cache)
        assert len(parsed) == 5
        warm, parsed = self.parsed(monkeypatch, tmp_path, cache)
        assert parsed == []
        assert warm.flow_stats == {"modules": 5, "computed": 0, "cached": 5}
        assert as_rows(warm) == as_rows(cold) == self.uncached(tmp_path)

    def test_a_leaf_edit_parses_the_leaf_alone(self, tmp_path, monkeypatch):
        write_record_tree(tmp_path)
        cache = tmp_path / "cache"
        self.run(tmp_path, cache)
        with (tmp_path / "pkg" / "leaf.py").open("a") as stream:
            stream.write("# edited\n")
        result, parsed = self.parsed(monkeypatch, tmp_path, cache)
        assert parsed == ["pkg/leaf.py"]
        assert result.flow_stats["computed"] == 1
        assert as_rows(result) == self.uncached(tmp_path)

    def test_a_core_edit_parses_it_and_its_importers(self, tmp_path,
                                                     monkeypatch):
        write_record_tree(tmp_path)
        cache = tmp_path / "cache"
        self.run(tmp_path, cache)
        with (tmp_path / "pkg" / "core.py").open("a") as stream:
            stream.write("# edited\n")
        result, parsed = self.parsed(monkeypatch, tmp_path, cache)
        assert sorted(parsed) == ["pkg/core.py", "pkg/mid.py", "pkg/top.py"]
        assert parsed[0] == "pkg/core.py"  # parsed at load, the others lazily
        assert result.flow_stats["computed"] == 3
        assert as_rows(result) == self.uncached(tmp_path)

    def test_the_salted_cache_module_is_the_one_warm_parse(self, tmp_path,
                                                           monkeypatch):
        # SALT001/002 read the _SALTED tuple off repro.harness.cache's tree.
        files = {"repro/__init__.py": "", "repro/harness/__init__.py": "",
                 "repro/harness/cache.py": '_SALTED = ("harness",)\n',
                 "repro/helper.py": "def helper():\n    return 1\n"}
        for name, source in files.items():
            (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / name).write_text(source)
        cache = tmp_path / "cache"

        def lint():
            return analyze_paths([tmp_path / "repro"], root=tmp_path,
                                 flow_cache_dir=cache)

        lint()
        parse = ast.parse
        parsed = []

        def counting(source, filename="<unknown>", mode="exec", **kwargs):
            if mode == "exec":
                parsed.append(pathlib.Path(filename).name)
            return parse(source, filename, mode, **kwargs)

        monkeypatch.setattr(ast, "parse", counting)
        assert lint().flow_stats["computed"] == 0
        assert parsed == ["cache.py"]

    # ---------------------------------------------------- fault injection

    def record_of(self, root, display):
        from repro.analysis.records import RecordStore
        return RecordStore(root / "cache").path(display)

    def test_a_truncated_record_is_recomputed(self, tmp_path):
        write_record_tree(tmp_path)
        self.run(tmp_path, tmp_path / "cache")
        record = self.record_of(tmp_path, "pkg/mid.py")
        text = record.read_text()
        record.write_text(text[:len(text) // 2])
        result = self.run(tmp_path, tmp_path / "cache")
        assert result.flow_stats["computed"] == 1
        assert as_rows(result) == self.uncached(tmp_path)
        assert record.read_text() == text

    def test_a_record_of_another_module_is_ignored(self, tmp_path):
        write_record_tree(tmp_path)
        self.run(tmp_path, tmp_path / "cache")
        mid = self.record_of(tmp_path, "pkg/mid.py")
        top = self.record_of(tmp_path, "pkg/top.py")
        text = top.read_text()
        top.write_text(mid.read_text())
        result = self.run(tmp_path, tmp_path / "cache")
        assert result.flow_stats["computed"] == 1
        assert as_rows(result) == self.uncached(tmp_path)
        assert top.read_text() == text

    def test_a_record_under_another_dotted_name_is_ignored(self, tmp_path):
        # Without pkg/__init__.py, pkg/mid.py is the module "mid"; the
        # same file under the same display path is "pkg.mid" again once
        # the package marker is back.
        write_record_tree(tmp_path)
        marker = tmp_path / "pkg" / "__init__.py"
        marker.unlink()
        cache = tmp_path / "cache"
        self.run(tmp_path, cache)
        marker.write_text("")
        result = self.run(tmp_path, cache)
        assert result.flow_stats["cached"] == 0
        assert as_rows(result) == self.uncached(tmp_path)

    def test_a_stale_analyzer_salt_recomputes_everything(self, tmp_path,
                                                         monkeypatch):
        from repro.analysis import records
        write_record_tree(tmp_path)
        salt = records.analysis_salt()
        monkeypatch.setattr(records, "analysis_salt", lambda: "stale")
        self.run(tmp_path, tmp_path / "cache")
        monkeypatch.setattr(records, "analysis_salt", lambda: salt)
        result = self.run(tmp_path, tmp_path / "cache")
        assert result.flow_stats == {"modules": 5, "computed": 5,
                                     "cached": 0}
        assert as_rows(result) == self.uncached(tmp_path)

    def test_a_stale_closure_key_recomputes_the_flow_alone(self, tmp_path,
                                                           monkeypatch):
        import json
        write_record_tree(tmp_path)
        self.run(tmp_path, tmp_path / "cache")
        record = self.record_of(tmp_path, "pkg/mid.py")
        payload = json.loads(record.read_text())
        payload["closure"]["key"] = "stale"
        record.write_text(json.dumps(payload))
        result, parsed = self.parsed(monkeypatch, tmp_path,
                                     tmp_path / "cache")
        assert parsed == ["pkg/mid.py"]
        assert result.flow_stats["computed"] == 1
        assert as_rows(result) == self.uncached(tmp_path)
        assert json.loads(record.read_text())["closure"]["key"] != "stale"

    def test_an_unwritable_cache_directory_changes_nothing(self, tmp_path):
        write_record_tree(tmp_path)
        (tmp_path / "file").write_text("")
        cache = tmp_path / "file" / "cache"
        for _ in range(2):
            result = self.run(tmp_path, cache)
            assert result.flow_stats["cached"] == 0
            assert as_rows(result) == self.uncached(tmp_path)

    def test_warm_facts_equal_uncached_facts(self, tmp_path):
        from repro.analysis.driver import load_project
        from repro.analysis.records import RecordStore
        write_record_tree(tmp_path)
        self.run(tmp_path, tmp_path / "cache")
        store = RecordStore(tmp_path / "cache")
        warm_project, _ = load_project([tmp_path / "pkg"], root=tmp_path,
                                       records=store)
        warm_project.records = store
        warm = ProjectFlowAnalysis(warm_project)
        cold_project, _ = load_project([tmp_path / "pkg"], root=tmp_path)
        cold = ProjectFlowAnalysis(cold_project)
        assert warm.stats["cached"] == 5
        assert warm.facts == cold.facts
        assert warm.module_findings == cold.module_findings


class TestCacheDirResolution:
    def test_disabled_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LINT_CACHE", str(tmp_path))
        assert resolve_flow_cache_dir(enabled=False) is None

    def test_explicit_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LINT_CACHE", str(tmp_path / "env"))
        explicit = tmp_path / "explicit"
        assert resolve_flow_cache_dir(explicit=explicit) == explicit

    def test_env_off_disables(self, monkeypatch):
        for value in ("0", "off", "OFF", "", "no"):
            monkeypatch.setenv("REPRO_LINT_CACHE", value)
            assert resolve_flow_cache_dir(root=REPO) is None

    def test_env_path_relocates(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LINT_CACHE", str(tmp_path / "spot"))
        assert resolve_flow_cache_dir(root=REPO) == tmp_path / "spot"

    def test_default_is_the_benchmarks_cache(self, monkeypatch):
        monkeypatch.delenv("REPRO_LINT_CACHE", raising=False)
        assert resolve_flow_cache_dir(root=REPO) == (
            REPO / "benchmarks" / ".cache" / "analysis")

    def test_no_checkout_no_default(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_LINT_CACHE", raising=False)
        assert resolve_flow_cache_dir(root=tmp_path) is None
        assert resolve_flow_cache_dir(root=None) is None
