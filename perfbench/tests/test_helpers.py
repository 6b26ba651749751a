"""Tests of the benchmark's own helpers (run: ``python -m pytest perfbench/tests``)."""

import json
import pathlib
from collections import Counter

import pytest

from e2ebench import layertrace
from e2ebench.inputs import (CORE_MODULES, LEAF_MODULES, SIZES, corun_ops,
                             corun_universe, generate, lint_edits, pair_slice)
from e2ebench.measure import beyond, digest, end_to_end, percentile

ROOT = pathlib.Path(__file__).resolve().parents[2]


# ------------------------------------------------------------ percentiles

def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 100) == 100
    assert percentile([3.0], 90) == 3.0
    assert percentile([4, 1, 3, 2], 50) == 2


def test_p90_has_ten_samples_beyond_from_100_samples():
    assert beyond(list(range(100)), 90) == 10
    assert beyond(list(range(99)), 90) == 9
    assert beyond(list(range(1000)), 90) == 100


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_end_to_end_reports_the_benchmark_metrics():
    metrics = end_to_end([0.3, 0.1, 0.2], 40.0, [1.0, 3.0, 2.0, 4.0])
    assert metrics["setup_s"]["value"] == 0.2
    assert metrics["op_s_p50"]["value"] == 2.5
    assert metrics["peak_rss_mb"] == {"value": 40.0, "unit": "MiB"}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in declared["end_to_end"]] == list(metrics)
    assert [m["unit"] for m in declared["end_to_end"]] == [
        metric["unit"] for metric in metrics.values()]


# -------------------------------------------------------------- digests

def test_digest_is_canonical_and_sensitive():
    assert digest({"a": 1, "b": [1.5, None]}) == digest({"b": [1.5, None],
                                                         "a": 1})
    assert digest({"a": 0.1 + 0.2}) != digest({"a": 0.3})
    assert len(digest([])) == 16


# --------------------------------------------------------------- inputs

def test_inputs_repeat_for_a_seed_and_vary_across_seeds():
    for workload in ("corun-cold", "serve-cold", "rerun-warm", "lint-edit"):
        assert generate(workload, 7) == generate(workload, 7)
    assert generate("corun-cold", 1) != generate("corun-cold", 2)
    assert generate("serve-cold", 1) != generate("serve-cold", 2)


def test_pair_slice_keeps_the_class_balance():
    from repro.kernels import intensity_class
    for seed in range(20):
        pairs = pair_slice(seed)
        classes = Counter(f"{intensity_class(q)}+{intensity_class(o)}"
                          for q, o in pairs)
        assert classes == {"C+C": 5, "C+M": 5, "M+C": 5, "M+M": 5}
        assert all(count == 2 for count in Counter(q for q, _ in pairs).values())
        assert all(count == 2 for count in Counter(o for _, o in pairs).values())


def test_corun_round_covers_goals_schemes_and_denominators():
    size = SIZES["default"]
    ops = corun_ops(3, size)
    cases = [op for op in ops if op["kind"] == "case"]
    assert {op["policy"] for op in cases} == set(size["schemes"])
    assert {op["goals"][0] for op in cases} == set(size["goals"])
    needed = set()
    for op in ops:
        if op["kind"] == "isolated":
            needed.add(op["kernel"])
        else:
            assert set(op["names"]) <= needed


def test_reference_universe_covers_every_seed():
    universe = {op["key"] for op in corun_universe(SIZES["default"])}
    for seed in range(100):
        assert {op["key"] for op in corun_ops(seed, SIZES["default"])} <= universe
    stored = json.loads((ROOT / "perfbench/data/reference.json").read_text())
    assert set(stored["corun-cold"]) == universe


def test_lint_edit_round_is_leaf_heavy_and_names_tree_files():
    import tarfile
    with tarfile.open(ROOT / "perfbench/data/lint_tree.tar.gz") as archive:
        names = set(archive.getnames())
    assert set(LEAF_MODULES) | set(CORE_MODULES) <= names
    edits = lint_edits(11)
    assert [module in CORE_MODULES for module in edits] == [
        False, False, True, False, False]


# ---------------------------------------------------------------- trace

class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def advance(self, amount):
        self.now += amount


def test_span_self_time_subtracts_children_and_hot_calls():
    clock = FakeClock()
    recorder = layertrace.Recorder(clock)

    def leaf():
        clock.advance(3)
        return 1

    hot = recorder.hot_wrapper(leaf, "hot")

    def inner():
        clock.advance(5)
        hot()
        hot()
        clock.advance(1)

    inner_span = recorder.span_wrapper(inner, "inner")

    def outer():
        clock.advance(2)
        inner_span()
        clock.advance(4)

    recorder.span_wrapper(outer, "outer")()
    outer_span, inner_record = recorder.spans
    assert inner_record.parent == outer_span.index
    assert (inner_record.end_ns - inner_record.start_ns) == 12
    assert inner_record.self_ns == 6
    assert outer_span.self_ns == 6
    assert recorder.buckets["hot"] == [2, 6, 0, 2]


def test_generator_wrapper_times_resumes_only():
    clock = FakeClock()
    recorder = layertrace.Recorder(clock)

    def produce():
        for item in range(3):
            clock.advance(2)
            yield item

    items = []
    for item in recorder.generator_wrapper(produce, "gen")():
        clock.advance(10)  # the consumer's own work is not the generator's
        items.append(item)
    assert items == [0, 1, 2]
    assert recorder.buckets["gen"][:3] == [1, 6, 0]


def test_install_wraps_every_target_and_restore_puts_originals_back():
    recorder = layertrace.Recorder()
    installed = layertrace.install(recorder)
    originals = [original for _owner, _attribute, original
                 in installed.patches]
    wrapped = [owner.__dict__[attribute]
               for owner, attribute, _original in installed.patches]
    patched = {(owner, attribute) for owner, attribute, _ in installed.patches}
    try:
        assert all(now is not before
                   for now, before in zip(wrapped, originals))
        for module, class_name, attribute, *_rest in layertrace.TARGETS:
            if class_name is not None:
                owner = getattr(__import__(module, fromlist=["x"]), class_name)
                assert (owner, attribute) in patched, (class_name, attribute)
        rules = {owner for owner, attribute, _ in installed.patches
                 if attribute in ("check_module", "check_project")}
        assert len(rules) >= 2
    finally:
        patches = list(installed.patches)
        installed.restore()
    for (owner, attribute, original) in patches:
        assert owner.__dict__[attribute] is original
    assert installed.patches == []


def test_layer_metrics_are_zero_where_nothing_ran():
    metrics = layertrace.layer_metrics(layertrace.Recorder(), 0.25)
    names = [name for name, _unit, _better in layertrace.PER_LAYER]
    assert list(metrics) == names
    assert metrics.pop("trace.overhead_frac")["value"] == 0.25
    assert all(metric["value"] == 0 for metric in metrics.values())
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"])
            for m in declared["per_layer"]] == list(layertrace.PER_LAYER)


def test_metric_names_are_unique():
    names = [name for name, _u, _b in layertrace.PER_LAYER]
    assert len(names) == len(set(names))
    assert not set(names) & {"setup_s", "peak_rss_mb", "op_s_p50"}
