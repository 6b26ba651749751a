"""Tests for the `repro lint` analyzer: every shipped rule must catch its
deliberately-seeded fixture violation and stay quiet on the clean twin."""

import ast
import collections
import pathlib
import textwrap

import pytest

from repro.analysis import analyze_paths, check_source, select_rules
from repro.analysis.driver import PARSE_ERROR_RULE

REPO = pathlib.Path(__file__).resolve().parents[1]


def rules_of(findings):
    return [finding.rule for finding in findings]


def snippet(source, **kwargs):
    return check_source(textwrap.dedent(source), **kwargs)


# ---------------------------------------------------------------- DET rules

class TestWallClock:
    def test_flags_time_time(self):
        findings = snippet("""
            import time
            def stamp():
                return time.time()
            """)
        assert rules_of(findings) == ["DET001"]

    def test_flags_from_import_alias(self):
        findings = snippet("""
            from time import perf_counter as tick
            x = tick()
            """)
        assert rules_of(findings) == ["DET001"]

    def test_flags_argless_datetime_now(self):
        findings = snippet("""
            from datetime import datetime
            stamp = datetime.now()
            """)
        assert rules_of(findings) == ["DET001"]

    def test_quiet_on_injected_clock(self):
        findings = snippet("""
            def stamp(clock):
                return clock()
            """)
        assert findings == []

    def test_noqa_suppresses(self):
        findings = snippet("""
            import time
            started = time.time()  # repro: noqa=DET001
            """)
        assert findings == []

    def test_bare_noqa_suppresses_everything_on_line(self):
        findings = snippet("""
            import time
            started = time.time()  # repro: noqa
            """)
        assert findings == []


class TestUnseededRandom:
    def test_flags_global_random(self):
        findings = snippet("""
            import random
            pick = random.choice([1, 2, 3])
            """)
        assert rules_of(findings) == ["DET002"]

    def test_flags_unseeded_random_instance(self):
        findings = snippet("""
            import random
            rng = random.Random()
            """)
        assert rules_of(findings) == ["DET002"]

    def test_quiet_on_seeded_random_instance(self):
        # kernels/trace.py's idiom: a per-kernel string seed.
        findings = snippet("""
            import random
            rng = random.Random("pattern:mri-q")
            draws = [rng.random() for _ in range(4)]
            """)
        assert findings == []

    def test_flags_numpy_global_state(self):
        findings = snippet("""
            import numpy as np
            noise = np.random.normal(size=8)
            """)
        assert rules_of(findings) == ["DET002"]

    def test_numpy_default_rng_needs_a_seed(self):
        unseeded = snippet("""
            import numpy.random
            rng = numpy.random.default_rng()
            """)
        seeded = snippet("""
            import numpy.random
            rng = numpy.random.default_rng(1234)
            """)
        assert rules_of(unseeded) == ["DET002"]
        assert seeded == []


class TestSetIteration:
    def test_flags_direct_set_call_iteration(self):
        findings = snippet("""
            def order(warps):
                for warp in set(warps):
                    warp.issue()
            """)
        assert rules_of(findings) == ["DET003"]

    def test_flags_set_literal_and_comprehension(self):
        findings = snippet("""
            def f(items):
                a = [x for x in {1, 2, 3}]
                b = [x for x in {i for i in items}]
                return a, b
            """)
        assert rules_of(findings) == ["DET003", "DET003"]

    def test_flags_name_assigned_from_set(self):
        findings = snippet("""
            def pending(sms):
                ready = set(sms)
                for sm in ready:
                    sm.tick()
            """)
        assert rules_of(findings) == ["DET003"]

    def test_flags_set_difference_iteration(self):
        findings = snippet("""
            def diff(a, b):
                left = set(a)
                for item in left - set(b):
                    yield item
            """)
        assert rules_of(findings) == ["DET003"]

    def test_quiet_when_sorted(self):
        findings = snippet("""
            def order(warps):
                for warp in sorted(set(warps)):
                    warp.issue()
            """)
        assert findings == []

    def test_quiet_on_membership_only_sets(self):
        # sim/cache.py's idiom: a dirty-line set used for membership tests.
        findings = snippet("""
            def track(lines):
                dirty = set()
                dirty.add(7)
                return 7 in dirty and len(dirty) == len(lines)
            """)
        assert findings == []

    def test_rebinding_to_list_disqualifies(self):
        findings = snippet("""
            def f(items):
                bag = set(items)
                bag = sorted(bag)
                for item in bag:
                    yield item
            """)
        assert findings == []


class TestIdOrdering:
    # FLOW002 is the one check for address-dependent ordering.
    def test_flags_key_id(self):
        findings = snippet("""
            def order(tbs):
                return sorted(tbs, key=id)
            """)
        assert rules_of(findings) == ["FLOW002"]
        assert findings[0].severity == "error"

    def test_flags_lambda_id(self):
        findings = snippet("""
            def order(tbs):
                tbs.sort(key=lambda tb: id(tb))
            """)
        assert rules_of(findings) == ["FLOW002"]

    def test_quiet_on_stable_key(self):
        findings = snippet("""
            def order(tbs):
                return sorted(tbs, key=lambda tb: tb.tb_id)
            """)
        assert findings == []


class TestFilesystemOrder:
    def test_flags_unsorted_listdir(self):
        findings = snippet("""
            import os
            def traces(root):
                return [name for name in os.listdir(root)]
            """)
        assert rules_of(findings) == ["DET005"]

    def test_flags_unsorted_path_glob(self):
        findings = snippet("""
            def sources(root):
                for path in root.rglob("*.py"):
                    yield path
            """)
        assert rules_of(findings) == ["DET005"]

    def test_quiet_when_sorted(self):
        # harness/cache.py's idiom for the code salt.
        findings = snippet("""
            def sources(root):
                return sorted(root.rglob("*.py"))
            """)
        assert findings == []


class TestDictKeysIteration:
    def test_flags_keys_iteration(self):
        findings = snippet("""
            def order(quotas):
                for kernel in quotas.keys():
                    yield kernel
            """)
        assert rules_of(findings) == ["DET006"]
        assert findings[0].severity == "warning"

    def test_quiet_on_items_and_sorted_keys(self):
        findings = snippet("""
            def order(quotas):
                for kernel, quota in quotas.items():
                    yield kernel, quota
                for kernel in sorted(quotas.keys()):
                    yield kernel
            """)
        assert findings == []


class TestFloatAccumulationOrder:
    # FLOAT001 is the one check for order-sensitive float sums.
    def test_flags_sum_over_sweep_result(self):
        findings = snippet("""
            def total(runner, specs):
                records = runner.sweep(specs)
                return sum(r.ipc for r in records)
            """)
        assert rules_of(findings) == ["FLOAT001"]
        assert findings[0].severity == "warning"
        assert "math.fsum" in findings[0].message

    def test_flags_sum_of_pool_map_directly(self):
        findings = snippet("""
            def total(pool, cases):
                return sum(pool.map(run, cases))
            """)
        assert rules_of(findings) == ["FLOAT001"]

    def test_flags_list_wrapped_producer(self):
        findings = snippet("""
            def total(pool, cases):
                values = list(pool.imap_unordered(run, cases))
                return sum(values)
            """)
        # FLOAT001 tracks the unordered shape through the list(...) wrap.
        assert rules_of(findings) == ["FLOAT001"]

    def test_quiet_on_fsum_and_plain_iterables(self):
        findings = snippet("""
            import math
            def totals(runner, specs, values):
                records = runner.sweep(specs)
                a = math.fsum(r.ipc for r in records)
                b = sum(values)
                c = sum(x * x for x in values)
                return a + b + c
            """)
        assert findings == []

    def test_rebinding_disqualifies_the_name(self):
        findings = snippet("""
            def total(runner, specs):
                records = runner.sweep(specs)
                records = [1, 2, 3]
                return sum(records)
            """)
        assert findings == []

    def test_noqa_suppresses(self):
        findings = snippet("""
            def total(runner, specs):
                records = runner.sweep(specs)
                return sum(r.ipc for r in records)  # repro: noqa=FLOAT001
            """)
        assert findings == []


#: Spellings of the two hazards that DET004 (ordering by ``id()``) and
#: DET007 (``sum`` over parallel-worker results) used to catch, in every
#: kind of code body.  Each fires exactly one flow finding.
ONE_CHECK_PER_HAZARD = [
    pytest.param("FLOW002", """
        def order(tbs):
            return min(tbs, key=id)
        """, id="key-id-min"),
    pytest.param("FLOW002", """
        import heapq
        def order(tbs):
            return heapq.nsmallest(2, tbs, key=id)
        """, id="key-id-heapq"),
    pytest.param("FLOW002", """
        def outer(tbs):
            def order():
                return sorted(tbs, key=lambda t: id(t))
            return order
        """, id="lambda-id-in-nested-def"),
    pytest.param("FLOW002", """
        XS = [object(), object()]
        class Registry:
            ORDER = sorted(XS, key=id)
        """, id="key-id-in-class-body"),
    pytest.param("FLOW002", """
        XS = [object(), object()]
        def pick(order=sorted(XS, key=id)):
            return order
        """, id="key-id-in-default"),
    pytest.param("FLOW002", """
        XS = [object(), object()]
        def register(items):
            return lambda fn: fn
        @register(sorted(XS, key=id))
        def handler():
            return 1
        """, id="key-id-in-decorator"),
    pytest.param("FLOW002", """
        order = lambda tbs: sorted(tbs, key=id)
        """, id="key-id-in-lambda"),
    pytest.param("FLOAT001", """
        def outer(pool, cases):
            def total():
                return sum(pool.map(run, cases))
            return total
        """, id="sum-in-nested-def"),
    pytest.param("FLOAT001", """
        class Sweeper:
            def build(self, pool, cases):
                def total():
                    return sum(pool.map(run, cases))
                return total
        """, id="sum-in-def-nested-in-method"),
    pytest.param("FLOAT001", """
        import multiprocessing
        POOL = multiprocessing.Pool(2)
        class Totals:
            ALL = sum(POOL.map(abs, [1.0, -2.0]))
        """, id="sum-in-class-body"),
    pytest.param("FLOAT001", """
        def outer(pool, cases):
            class Totals:
                ALL = sum(pool.map(run, cases))
            return Totals
        """, id="sum-in-class-defined-in-function"),
    pytest.param("FLOAT001", """
        def outer():
            class Totals:
                def all(self, pool, cases):
                    return sum(pool.map(run, cases))
            return Totals
        """, id="sum-in-method-of-class-defined-in-function"),
    pytest.param("FLOAT001", """
        import multiprocessing
        POOL = multiprocessing.Pool(2)
        def report(total=sum(POOL.map(abs, [1.0, -2.0]))):
            return total
        """, id="sum-in-default"),
    pytest.param("FLOAT001", """
        total = lambda pool, cases: sum(pool.map(run, cases))
        """, id="sum-in-lambda"),
    pytest.param("FLOAT001", """
        def total(pool, cases):
            return sum(pool.imap(run, cases))
        """, id="sum-over-imap"),
    pytest.param("FLOAT001", """
        def total(pool, cases):
            return sum(pool.map_async(run, cases))
        """, id="sum-over-map-async"),
    pytest.param("FLOAT001", """
        class Runner:
            def sweep(self, specs):
                return list(specs)
        def total(runner: Runner, specs):
            return sum(r.ipc for r in runner.sweep(specs))
        """, id="sum-over-annotated-runner-sweep"),
    pytest.param("FLOAT001", """
        class Runner:
            def sweep(self, specs):
                return list(specs)
        def total(specs):
            return sum(r.ipc for r in Runner().sweep(specs))
        """, id="sum-over-constructed-runner-sweep"),
    pytest.param("FLOAT001", """
        def total(runner, specs):
            values = [r.ipc for r in runner.sweep(specs)]
            return sum(values)
        """, id="sum-over-list-built-from-sweep"),
]

#: The mediated twins: the same code made deterministic stays quiet.
MEDIATED_TWINS = [
    pytest.param("""
        def outer(tbs):
            def order():
                return sorted(tbs, key=lambda t: t.tb_id)
            return order
        """, id="stable-key-in-nested-def"),
    pytest.param("""
        def id(tb):
            return tb.tb_id
        def order(tbs):
            return sorted(tbs, key=id)
        """, id="id-rebound-by-the-module"),
    pytest.param("""
        def order(tbs, id):
            return sorted(tbs, key=id)
        """, id="id-is-a-parameter"),
    pytest.param("""
        import math
        def outer(pool, cases):
            class Totals:
                ALL = math.fsum(pool.map(run, cases))
            return Totals
        """, id="fsum-in-class-body"),
    pytest.param("""
        def total(pool, cases):
            return sum(sorted(pool.imap_unordered(run, cases)))
        """, id="sorted-unordered-results"),
    pytest.param("""
        def total(xs):
            return sum(map(float, xs))
        """, id="builtin-map-is-not-a-worker-pool"),
]


class TestOneCheckPerHazard:
    @pytest.mark.parametrize("rule, source", ONE_CHECK_PER_HAZARD)
    def test_fires_exactly_one_flow_finding(self, rule, source):
        assert rules_of(snippet(source)) == [rule]

    @pytest.mark.parametrize("source", MEDIATED_TWINS)
    def test_mediated_twin_is_quiet(self, source):
        assert snippet(source) == []

    def test_the_syntactic_duplicates_are_gone(self):
        from repro.analysis import all_rules
        assert not {"DET004", "DET007"} & set(all_rules())


class TestTimestampIdentity:
    # The positive SQL fixtures are assembled with a runtime ``+`` that
    # splits the timestamp column name, so DET008's string scan never
    # flags this test file's own data (lint --strict runs over tests/).
    def test_flags_order_by_timestamp_column(self):
        findings = snippet(
            'QUERY = "SELECT * FROM cases ORDER BY claimed' + '_at"\n')
        assert rules_of(findings) == ["DET008"]
        assert "claimed_at" in findings[0].message

    def test_flags_timestamp_deeper_in_the_column_list(self):
        findings = snippet(
            'QUERY = "SELECT id FROM experiments ORDER BY status, created'
            + '_at DESC"\n')
        assert rules_of(findings) == ["DET008"]

    def test_quiet_on_content_derived_ordering(self):
        findings = snippet('''
            A = "SELECT * FROM cases ORDER BY case_index LIMIT 1"
            B = "SELECT * FROM experiments ORDER BY id"
            C = "UPDATE cases SET claimed_at = ? WHERE case_index = ?"
            ''')
        assert findings == []

    def test_quiet_on_prose_mentioning_order_by(self):
        findings = snippet('''
            """Rows must never use ORDER BY <timestamp column>; a plain
            ORDER BY over ids is fine, and so is a later timestamp word."""
            ''')
        assert findings == []

    def test_flags_timestamp_key_in_digest_payload(self):
        findings = snippet("""
            def identity(digest):
                return digest({"goal": 0.5, "created_at": 12.0})
            """)
        assert rules_of(findings) == ["DET008"]
        assert "created_at" in findings[0].message

    def test_flags_timestamp_key_in_key_function_call(self):
        findings = snippet("""
            def keyed(case_key):
                return case_key(payload={"timestamp": 1.0})
            """)
        assert rules_of(findings) == ["DET008"]

    def test_quiet_on_timestamp_dict_outside_identity_calls(self):
        findings = snippet("""
            def report(write_row):
                return write_row({"created_at": 12.0, "status": "done"})
            """)
        assert findings == []

    def test_noqa_suppresses(self):
        findings = snippet(
            'QUERY = "SELECT * FROM cases ORDER BY finished'
            + '_at"  # repro: noqa=DET008\n')
        assert findings == []


# ---------------------------------------------------------------- LAY rules

class TestImportContractRule:
    def test_policy_package_importing_engine(self):
        findings = snippet(
            """
            from repro.sim.engine import GPUSimulator
            """,
            name="repro.qos.manager")
        assert rules_of(findings) == ["LAY001"]
        assert "policy-engine-independence" in findings[0].message

    def test_engine_importing_harness(self):
        findings = snippet(
            """
            import repro.harness.runner
            """,
            name="repro.sim.engine")
        assert rules_of(findings) == ["LAY001"]
        assert "engine-harness-independence" in findings[0].message

    def test_runtime_importing_analysis(self):
        findings = snippet(
            """
            from repro.analysis import check_source
            """,
            name="repro.sim.telemetry",
            rule_ids=["LAY001"])
        assert rules_of(findings) == ["LAY001"]
        assert "runtime-analysis-independence" in findings[0].message

    def test_relative_import_of_engine_is_caught(self):
        findings = snippet(
            """
            from ..sim import engine
            """,
            name="repro.qos.manager")
        assert rules_of(findings) == ["LAY001"]

    def test_ungoverned_module_may_import_engine(self):
        findings = snippet(
            """
            from repro.sim.engine import GPUSimulator
            """,
            name="repro.harness.runner")
        assert findings == []

    def test_policy_importing_the_context_is_fine(self):
        findings = snippet(
            """
            from repro.sim.policy import PolicyContext, SharingPolicy
            """,
            name="repro.qos.manager")
        assert findings == []

    def test_controller_package_may_not_import_engine(self):
        findings = snippet(
            """
            from repro.sim.engine import GPUSimulator
            """,
            name="repro.controllers.pid")
        assert rules_of(findings) == ["LAY001"]
        assert "policy-engine-independence" in findings[0].message

    def test_controller_package_may_not_import_analysis(self):
        findings = snippet(
            """
            import repro.analysis
            """,
            name="repro.controllers.base",
            rule_ids=["LAY001"])
        assert rules_of(findings) == ["LAY001"]
        assert "runtime-analysis-independence" in findings[0].message

    def test_expdb_may_not_import_the_simulation_stack(self):
        for forbidden in ("repro.sim", "repro.config",
                          "repro.harness.runner", "repro.harness.cache"):
            findings = snippet(
                f"""
                import {forbidden}
                """,
                name="repro.harness.expdb",
                rule_ids=["LAY001"])
            assert rules_of(findings) == ["LAY001"], forbidden
            assert "expdb-engine-independence" in findings[0].message

    def test_other_harness_modules_may_import_expdb(self):
        # The dependency is one-way: runner/cli layers import the store,
        # never the reverse.
        findings = snippet(
            """
            from repro.harness.expdb import ExperimentDB
            """,
            name="repro.harness.runner",
            rule_ids=["LAY001"])
        assert findings == []


class TestPolicyContextSeamRules:
    def test_flags_attribute_assignment_into_ctx(self):
        findings = snippet(
            """
            class Policy:
                def on_epoch_start(self, ctx, cycle, epoch_index):
                    ctx.quota_hint = 42
            """,
            name="repro.qos.manager")
        assert rules_of(findings) == ["LAY002"]

    def test_flags_assignment_via_annotated_param(self):
        findings = snippet(
            """
            def helper(view: "PolicyContext") -> None:
                view.epoch_cache = {}
            """,
            name="repro.sharing.fairness")
        assert rules_of(findings) == ["LAY002"]

    def test_flags_private_access(self):
        findings = snippet(
            """
            class Policy:
                def on_epoch_start(self, ctx, cycle, epoch_index):
                    ctx._engine.sms[0].wake_all()
            """,
            name="repro.baselines.spart")
        assert rules_of(findings) == ["LAY003"]

    def test_quiet_on_public_surface(self):
        findings = snippet(
            """
            class Policy:
                def on_epoch_start(self, ctx, cycle, epoch_index):
                    for sm_id in range(ctx.num_sms):
                        ctx.set_quota(sm_id, 0, 100.0)
                    local = ctx.epoch
                    if local is not None:
                        _ = local.epoch_ipc
            """,
            name="repro.qos.manager")
        assert findings == []

    def test_engine_side_modules_are_exempt(self):
        # The context's own module assigns its internals freely.
        findings = snippet(
            """
            class PolicyContext:
                def _advance_epoch(self, ctx):
                    ctx._view = None
            """,
            name="repro.sim.policy",
            rule_ids=["LAY002", "LAY003"])
        assert findings == []

    def test_nested_context_defs_report_each_violation_once(self):
        findings = snippet(
            """
            def outer(ctx):
                def inner(ctx):
                    ctx.hint = 1
                    ctx._engine.wake_all()
                    ctx.mode = 2
                return inner
            """,
            name="repro.qos.manager",
            rule_ids=["LAY002", "LAY003"])
        assert [(f.rule, f.line) for f in findings] == [
            ("LAY002", 4), ("LAY003", 5), ("LAY002", 6)]

    def test_nested_def_without_ctx_sees_the_outer_ctx(self):
        findings = snippet(
            """
            def outer(ctx):
                def inner():
                    ctx.hint = 1
                    return ctx._engine
                return inner
            """,
            name="repro.qos.manager",
            rule_ids=["LAY002", "LAY003"])
        assert [(f.rule, f.line) for f in findings] == [
            ("LAY002", 4), ("LAY003", 5)]


# ------------------------------------------------------------ project rules

def write_tree(root, files):
    for relative, source in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return root


def mini_repro(tmp_path, salted, engine_body="import repro.config\n",
               extra=None):
    files = {
        "src/repro/__init__.py": "",
        "src/repro/config.py": "EPOCH = 2000\n",
        "src/repro/sim/__init__.py": "",
        "src/repro/sim/engine.py": engine_body,
        "src/repro/harness/__init__.py": "",
        "src/repro/harness/runner.py": "import repro.sim.engine\n",
        "src/repro/harness/cache.py": f"_SALTED = {salted!r}\n",
    }
    files.update(extra or {})
    return write_tree(tmp_path, files)


class TestSaltCoverage:
    def test_uncovered_transitive_import_is_flagged(self, tmp_path):
        root = mini_repro(
            tmp_path,
            salted=("sim", "harness/runner.py"),
            engine_body="import repro.config\n")
        result = analyze_paths([root / "src"], root=root,
                               rule_ids=["SALT001"])
        assert rules_of(result.findings) == ["SALT001"]
        assert "repro.config" in result.findings[0].message

    def test_covered_tree_is_clean(self, tmp_path):
        root = mini_repro(
            tmp_path,
            salted=("config.py", "sim", "harness/runner.py",
                    "harness/cache.py"),
            engine_body="import repro.config\n")
        result = analyze_paths([root / "src"], root=root,
                               rule_ids=["SALT001"])
        assert result.findings == []

    def test_from_import_of_symbol_resolves_to_module(self, tmp_path):
        # `from repro.mystery import helper` must pull repro/mystery.py
        # into the closure even though repro.mystery.helper is a symbol.
        root = mini_repro(
            tmp_path,
            salted=("config.py", "sim", "harness/runner.py",
                    "harness/cache.py"),
            engine_body="from repro.mystery import helper\n",
            extra={"src/repro/mystery.py": "def helper():\n    return 1\n"})
        result = analyze_paths([root / "src"], root=root,
                               rule_ids=["SALT001"])
        assert rules_of(result.findings) == ["SALT001"]
        assert "repro.mystery" in result.findings[0].message

    def test_stale_entry_is_flagged(self, tmp_path):
        root = mini_repro(
            tmp_path,
            salted=("config.py", "sim", "harness/runner.py",
                    "harness/cache.py", "ghost.py"))
        result = analyze_paths([root / "src"], root=root,
                               rule_ids=["SALT002"])
        assert rules_of(result.findings) == ["SALT002"]
        assert "ghost.py" in result.findings[0].message

    def test_rule_skips_trees_without_the_cache_module(self, tmp_path):
        root = write_tree(tmp_path, {"standalone.py": "x = 1\n"})
        result = analyze_paths([root], root=root,
                               rule_ids=["SALT001", "SALT002"])
        assert result.findings == []

    def test_lazily_imported_batch_module_is_flagged(self, tmp_path):
        # The engine imports repro.sim.batch inside a function (so the
        # event core never pays the numpy import); SALT001 walks
        # function-level imports too, so the batch module cannot silently
        # drop out of the salted closure if the `sim` entry is narrowed.
        root = mini_repro(
            tmp_path,
            salted=("config.py", "sim/engine.py", "harness/runner.py",
                    "harness/cache.py"),
            engine_body=(
                "import repro.config\n"
                "def run():\n"
                "    from repro.sim.batch import BatchState\n"
                "    return BatchState\n"),
            extra={"src/repro/sim/batch.py":
                   "class BatchState:\n    pass\n"})
        result = analyze_paths([root / "src"], root=root,
                               rule_ids=["SALT001"])
        assert rules_of(result.findings) == ["SALT001"]
        assert "repro.sim.batch" in result.findings[0].message

    def test_lazily_imported_batch_module_covered_by_sim_dir(self, tmp_path):
        # The shipped tree relies on the `sim` directory entry to cover
        # the batch module; the same lazy import is clean under it.
        root = mini_repro(
            tmp_path,
            salted=("config.py", "sim", "harness/runner.py",
                    "harness/cache.py"),
            engine_body=(
                "import repro.config\n"
                "def run():\n"
                "    from repro.sim.batch import BatchState\n"
                "    return BatchState\n"),
            extra={"src/repro/sim/batch.py":
                   "class BatchState:\n    pass\n"})
        result = analyze_paths([root / "src"], root=root,
                               rule_ids=["SALT001"])
        assert result.findings == []

    def test_shipped_salt_covers_the_controllers_package(self):
        # The runner imports repro.controllers (PID/MPC quota control), so
        # controller source must participate in the cache's code salt:
        # tuning a gain preset alone would not change GPUConfig hashes of
        # *other* configs, but editing a control law must invalidate
        # everything.
        from repro.harness.cache import _SALTED, salted_paths
        assert "controllers" in _SALTED
        assert any(path.startswith("controllers/")
                   for path in salted_paths())

    def test_shipped_salt_covers_the_experiment_store(self):
        # The runner lazily imports repro.harness.expdb, pulling it into
        # the SALT001 closure: were it missing from _SALTED, editing the
        # claim protocol could not invalidate cached sweeps even though
        # resumability semantics changed under them.
        from repro.harness.cache import _SALTED, salted_paths
        assert "harness/expdb.py" in _SALTED
        assert "harness/expdb.py" in salted_paths()


# ------------------------------------------------------------ driver pieces

class TestDriver:
    def test_unknown_rule_id_raises(self):
        with pytest.raises(ValueError, match="SALT001"):
            select_rules(["NOPE999"])

    def test_parse_error_becomes_finding(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        result = analyze_paths([bad], root=tmp_path)
        assert rules_of(result.findings) == [PARSE_ERROR_RULE]

    def test_pycache_and_egg_info_are_skipped(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/__pycache__/junk.py": "import time\ntime.time()\n",
            "pkg.egg-info/setup.py": "import time\ntime.time()\n",
            "pkg/ok.py": "x = 1\n",
        })
        result = analyze_paths([tmp_path], root=tmp_path)
        assert result.findings == []
        assert [m.display for m in result.modules] == ["pkg/ok.py"]

    def test_noqa_lands_in_suppressed(self, tmp_path):
        source = tmp_path / "mod.py"
        source.write_text("import time\nt = time.time()  # repro: noqa\n")
        result = analyze_paths([source], root=tmp_path)
        assert result.findings == []
        assert rules_of(result.suppressed) == ["DET001"]

    def test_every_rule_reads_one_walk_of_each_module(self, tmp_path,
                                                      monkeypatch):
        # A traversal of a module starts with ast.iter_child_nodes on its
        # root (ast.walk too).  On a cold run all rules together may start
        # one per module, the node index, plus one for the parent map in a
        # module where a rule asks for it: pipeline.py's
        # sorted(os.listdir(...)).  A warm run over the unchanged tree
        # takes everything from the module records and starts none.
        write_tree(tmp_path, {
            "helpers.py": """
                import time

                def stamp():
                    return time.time()  # repro: noqa=DET001
                """,
            "pipeline.py": """
                import hashlib
                import os

                from helpers import stamp

                class Runner:
                    def __init__(self, root):
                        self.root = root

                    def names(self):
                        return sorted(os.listdir(self.root))

                def key(runner):
                    return hashlib.sha256(
                        f"{stamp()}{runner.names()}".encode()).hexdigest()
                """,
            "policy.py": """
                def decide(ctx):
                    return ctx.epoch
                """,
        })
        starts = collections.Counter()
        iter_child_nodes = ast.iter_child_nodes

        def counting(node):
            if isinstance(node, ast.Module):
                starts[id(node)] += 1
            return iter_child_nodes(node)

        monkeypatch.setattr(ast, "iter_child_nodes", counting)
        cold = {"helpers.py": 1, "pipeline.py": 2, "policy.py": 1}
        warm = dict.fromkeys(cold, 0)
        for computed, expected in ((3, cold), (0, warm)):
            starts.clear()
            result = analyze_paths([tmp_path], root=tmp_path,
                                   flow_cache_dir=tmp_path / "cache")
            assert result.flow_stats["computed"] == computed
            assert {module.display: starts[id(module.tree)]
                    for module in result.modules} == expected


# ------------------------------------------------------------- self-check

class TestShippedTreeIsClean:
    def test_repro_lint_strict_is_clean_on_src_and_examples(self):
        result = analyze_paths([REPO / "src", REPO / "examples"], root=REPO)
        assert result.findings == [], "\n".join(
            finding.format() for finding in result.findings)

    def test_every_registered_rule_has_id_and_summary(self):
        from repro.analysis import all_rules
        registry = all_rules()
        assert {"DET001", "DET002", "DET003", "DET005", "DET006", "DET008",
                "FLOAT001", "FLOW002", "LAY001", "LAY002", "LAY003",
                "SALT001", "SALT002"} <= set(registry)
        for rule in registry.values():
            assert rule.summary
            assert rule.scope in ("module", "project")
