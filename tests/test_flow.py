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
