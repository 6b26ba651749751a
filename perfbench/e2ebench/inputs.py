"""Seeded inputs of the four workloads.

The seed is the benchmark's argument; the program under test receives
only what :func:`generate` returns (pairs, specs, module paths), never
the seed.  The same ``(workload, seed, size)`` always gives the same
inputs.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

WORKLOADS = ("corun-cold", "serve-cold", "rerun-warm", "lint-edit")

#: The Figure-6a schemes plus the two feedback controllers.
SCHEMES = ("spart", "naive", "elastic", "rollover", "pid", "mpc")
PAIR_CLASSES = ("C+C", "C+M", "M+C", "M+M")

#: Scale of each size.  ``default`` is what the benchmark measures;
#: ``tiny`` runs every workload end to end in seconds, for tests.
SIZES = {
    "default": {
        # corun-cold: the fast preset's window (warm-up is the runner's
        # default two epochs).
        "corun_cycles": 24_000, "corun_warmup": None,
        "pair_stride": 1, "goals": (0.5, 0.8), "schemes": SCHEMES,
        # serve-cold: ext_serving's classes at three times its horizon.
        "serve_unit": 24_000, "serve_horizon": 288_000,
        # rerun-warm reads records of the same grids simulated at a
        # short window: read cost follows record count and shape.
        "warm_cycles": 500, "warm_warmup": 500, "warm_horizon": 24_000,
        "lint_paths": ("src", "examples", "tests", "benchmarks"),
        "lint_modules": None,
        # Operations of a traced run (fixed, so counts repeat exactly).
        "traced_ops": {"corun-cold": 30, "serve-cold": 6, "rerun-warm": 300,
                       "lint-edit": 5},
    },
    "tiny": {
        "corun_cycles": 1_000, "corun_warmup": 500,
        "pair_stride": 5, "goals": (0.5,), "schemes": ("rollover", "pid"),
        "serve_unit": 3_000, "serve_horizon": 12_000,
        "warm_cycles": 1_000, "warm_warmup": 500, "warm_horizon": 6_000,
        "lint_paths": ("examples",),
        "lint_modules": (("examples/quickstart.py",),
                         ("examples/custom_kernel.py",)),
        "traced_ops": {"corun-cold": 4, "serve-cold": 2, "rerun-warm": 2,
                       "lint-edit": 3},
    },
}

#: Modules nothing else imports (an edit recomputes one summary) and
#: simulator, harness and analysis modules that several dozen others
#: depend on.  The core list keeps modules whose edit cost the same
#: within about 10% on the frozen tree, so the seed varies which module
#: is edited, not how much work the edit causes.  Both lists name files
#: of the frozen lint tree.
LEAF_MODULES = (
    "benchmarks/bench_fig05_history_miss.py",
    "benchmarks/bench_serving.py",
    "benchmarks/bench_tables.py",
    "examples/custom_kernel.py",
    "examples/online_serving.py",
    "examples/quickstart.py",
    "tests/test_cache.py",
    "tests/test_serve.py",
    "tests/test_warp.py",
)
CORE_MODULES = (
    "src/repro/analysis/core.py",
    "src/repro/controllers/base.py",
    "src/repro/harness/cache.py",
    "src/repro/harness/expdb.py",
    "src/repro/harness/runner.py",
    "src/repro/sim/sm.py",
    "src/repro/sim/telemetry.py",
)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _kernels() -> Tuple[List[str], List[str]]:
    """Compute-bound and memory-bound kernels, each in name order."""
    from repro.kernels import PARBOIL_NAMES, intensity_class
    return (sorted(n for n in PARBOIL_NAMES if intensity_class(n) == "C"),
            sorted(n for n in PARBOIL_NAMES if intensity_class(n) == "M"))


def pair_slice(seed: int) -> List[Tuple[str, str]]:
    """Twenty ordered (QoS, non-QoS) pairs, five per C/M class, in which
    every kernel plays each role exactly twice.

    C+C and M+M pairs follow a seed-drawn cyclic order of the class's
    kernels.  C+M and M+C pairs take the compute-bound kernels in name
    order and give each a seed-drawn memory-bound partner.  A cross-class
    case's cost is set mostly by its compute-bound kernel, and these cases
    are the ones near the median operation time, so fixing their
    compute-bound side keeps ``op_s_p50`` from following the seed.
    """
    compute, memory = _kernels()
    rng = _rng("pairs", seed)

    def cycle(names: List[str]) -> List[Tuple[str, str]]:
        order = rng.sample(names, len(names))
        return [(order[i], order[(i + 1) % len(order)])
                for i in range(len(order))]

    to_memory = list(zip(compute, rng.sample(memory, len(memory))))
    from_memory = [(partner, kernel) for kernel, partner in
                   zip(compute, rng.sample(memory, len(memory)))]
    return cycle(compute) + to_memory + from_memory + cycle(memory)


def _slots(pairs: Sequence[Tuple[str, str]], size: dict) -> List[tuple]:
    """``(pair, goal, scheme)`` per slot: classes interleaved, slot ``i``
    at goal/scheme combination ``i`` modulo their number."""
    per_class = len(pairs) // len(PAIR_CLASSES)
    combos = [(goal, scheme) for goal in size["goals"]
              for scheme in size["schemes"]]
    interleaved = [pairs[c * per_class + i] for i in range(per_class)
                   for c in range(len(PAIR_CLASSES))]
    return [(pair,) + combos[slot % len(combos)]
            for slot, pair in enumerate(interleaved)]


def _isolated(name: str) -> dict:
    return {"kind": "isolated", "kernel": name, "key": f"isolated:{name}"}


def _case(qos: str, other: str, goal: float, scheme: str) -> dict:
    return {"kind": "case", "names": [qos, other], "qos": [True, False],
            "goals": [goal, None], "policy": scheme,
            "key": f"case:{qos}+{other}@{goal}:{scheme}"}


def corun_ops(seed: int, size: dict) -> List[dict]:
    """One round of co-run cases: every pair of the slice once, so the
    round covers every goal and scheme in the same class slots whatever
    the seed.  Each case is preceded by the isolated-IPC runs its kernels
    still need.
    """
    ops: List[dict] = []
    seen: set = set()
    for (qos, other), goal, scheme in _slots(
            pair_slice(seed)[::size["pair_stride"]], size):
        for name in (qos, other):
            if name not in seen:
                seen.add(name)
                ops.append(_isolated(name))
        ops.append(_case(qos, other, goal, scheme))
    return ops


def corun_universe(size: dict) -> List[dict]:
    """Every operation :func:`corun_ops` can produce for any seed at a size
    with ``pair_stride`` 1: the set the reference digests cover."""
    compute, memory = _kernels()
    same = {"C+C": [(a, b) for a in compute for b in compute if a != b],
            "M+M": [(a, b) for a in memory for b in memory if a != b]}
    # Stand-in pairs that only carry each slot's class and position.
    template = [(key, index) for key in PAIR_CLASSES
                for index in range(len(compute))]
    ops = [_isolated(name) for name in compute + memory]
    for (key, index), goal, scheme in _slots(template, size):
        if key == "C+M":
            pairs = [(compute[index], partner) for partner in memory]
        elif key == "M+C":
            pairs = [(partner, compute[index]) for partner in memory]
        else:
            pairs = same[key]
        ops.extend(_case(qos, other, goal, scheme) for qos, other in pairs)
    unique = {op["key"]: op for op in ops}
    return list(unique.values())


def serve_specs(seed: int, size: dict, horizon: int) -> List[dict]:
    """``ServeSpec`` payloads: Poisson below, near and above capacity, one
    bursty stream, and the ``slo`` and ``cap:4`` admission policies on the
    overloaded stream.  The seed draws each stream's arrivals."""
    unit = size["serve_unit"]
    classes = [["latency", "mri-q", unit, 4, 1.0],
               ["batch", "lbm", 4 * unit, 4, 1.0]]
    # Capacity on FAST_GPU is about one request per 5k cycles.
    below, near, above = 0.3 * unit, 0.2 * unit, 0.125 * unit
    bursty = {"burst_interarrival": 0.0625 * unit,
              "idle_interarrival": 0.5 * unit,
              "mean_burst_cycles": 1.0 * unit, "mean_idle_cycles": 2.0 * unit}
    mix = (("poisson", {"mean_interarrival_cycles": below}, "always"),
           ("poisson", {"mean_interarrival_cycles": above}, "always"),
           ("bursty", bursty, "always"),
           ("poisson", {"mean_interarrival_cycles": above}, "cap:4"),
           ("poisson", {"mean_interarrival_cycles": near}, "always"),
           ("poisson", {"mean_interarrival_cycles": above}, "slo"))
    rng = _rng("serve-cold", seed)
    return [{"process": process, "params": dict(params), "classes": classes,
             "seed": rng.randrange(1 << 31), "horizon_cycles": horizon,
             "admission": admission, "max_concurrent": 4, "policy": "smk"}
            for process, params, admission in mix]


def _serve_key(spec: dict) -> str:
    rate = spec["params"].get("mean_interarrival_cycles")
    shape = f"poisson/{rate:g}" if rate is not None else spec["process"]
    return f"serve:{shape}:{spec['admission']}:seed{spec['seed']}"


def lint_edits(seed: int, leaf: Sequence[str] = LEAF_MODULES,
               core: Sequence[str] = CORE_MODULES) -> List[str]:
    """One round of edits: leaf, leaf, core, leaf, leaf.

    The first edit meets an empty summary cache.  With three of the four
    warm edits on leaf modules, the round's median operation is a leaf
    edit, the common case of an edit-lint loop; the core edit and the
    cold run sit above it.
    """
    rng = _rng("lint-edit", seed)
    return [rng.choice(core if kind == "core" else leaf)
            for kind in ("leaf", "leaf", "core", "leaf", "leaf")]


def generate(workload: str, seed: int, size_name: str = "default") -> dict:
    """Everything the measured process needs to run ``workload``."""
    size = SIZES[size_name]
    inputs = {"workload": workload, "size": size_name,
              "traced_ops": size["traced_ops"][workload]}
    if workload == "corun-cold":
        inputs.update(cycles=size["corun_cycles"],
                      warmup=size["corun_warmup"],
                      ops=corun_ops(seed, size))
    elif workload == "serve-cold":
        specs = serve_specs(seed, size, size["serve_horizon"])
        inputs["ops"] = [{"kind": "serve", "spec": spec,
                          "key": _serve_key(spec)} for spec in specs]
    elif workload == "rerun-warm":
        cases = [op for op in corun_ops(seed, size) if op["kind"] == "case"]
        inputs.update(
            cycles=size["warm_cycles"], warmup=size["warm_warmup"],
            cases=[{"names": op["names"], "qos": op["qos"],
                    "goals": op["goals"], "policy": op["policy"]}
                   for op in cases],
            serve=serve_specs(seed, size, size["warm_horizon"]),
            ops=[{"kind": "warm", "key": "warm:grid"}])
    elif workload == "lint-edit":
        edits = lint_edits(seed, *(size["lint_modules"] or ()))
        inputs.update(paths=list(size["lint_paths"]),
                      ops=[{"kind": "edit", "module": module,
                            "key": "lint:findings"} for module in edits])
    else:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {WORKLOADS}")
    return inputs
