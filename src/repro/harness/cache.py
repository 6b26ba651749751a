"""Persistent on-disk store for case results (the warm-sweep fast path).

Every figure of the reproduction slices the same (workload x goal x scheme)
case sweep, but a :class:`~repro.harness.runner.CaseRunner`'s memo dies with
its process — so regenerating a figure after an unrelated edit re-simulates
everything.  :class:`CaseCache` gives `CaseRecord`s and isolated IPCs a life
across invocations: an append-only JSON-lines file (default
``benchmarks/.cache/cases.jsonl``) keyed by a content hash of everything the
result depends on:

* the full :class:`~repro.config.GPUConfig` (as a nested dict),
* kernel names, QoS flags and goal fractions, and the policy name,
* measured cycles and warm-up cycles,
* a **code salt**: a digest of the source of every package that affects
  simulation outcomes (`config`, `isa`, `kernels`, `sim`, `qos`,
  `baselines`, `controllers`, `sharing`, `power`, `osched`, `serve`, and
  the harness runner, cache and experiment store — :data:`_SALTED`).
  Editing any of those files invalidates the whole cache automatically;
  docs/harness-report edits do not.

Opt-out / relocation via the ``REPRO_CACHE`` environment variable: ``0`` /
``off`` disables persistence entirely, any other value is used as the cache
directory.  ``repro-gpu-qos cache stats|clear`` inspects and resets the
store.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
from typing import Dict, Optional, Sequence

from repro.config import GPUConfig
from repro.harness.runner import CaseRecord, KernelOutcome
from repro.sim.telemetry import epoch_record_from_dict

ENV_CACHE = "REPRO_CACHE"

#: Package directories (relative to ``src/repro``) whose source participates
#: in the code salt: anything that can change a simulation outcome.  The
#: list must cover the transitive import closure of the result-producing
#: roots (engine + runner) — ``repro lint`` rule SALT001 enforces this —
#: including this module itself, since the keying and record serialisation
#: logic below decides what a cached entry means.
_SALTED = ("config.py", "isa", "kernels", "sim", "qos", "baselines",
           "controllers", "sharing", "power", "osched", "serve",
           "harness/runner.py", "harness/cache.py", "harness/expdb.py")

_code_salt_memo: Optional[str] = None


def salted_paths() -> list:
    """Every source file (relative to ``src/repro``) covered by the salt."""
    package_root = pathlib.Path(__file__).resolve().parents[1]
    paths = []
    for entry in _SALTED:
        path = package_root / entry
        files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        paths.extend(str(source.relative_to(package_root)) for source in files)
    return paths


def code_salt() -> str:
    """Digest of the simulation-affecting source tree (memoised).

    The installed numpy version joins the digest: the batch engine core
    (``repro/sim/batch.py``) computes window horizons with numpy, so a
    numpy upgrade is treated exactly like an edit to a salted source file
    and invalidates the cache rather than silently mixing toolchains.
    """
    global _code_salt_memo
    if _code_salt_memo is None:
        import numpy
        package_root = pathlib.Path(__file__).resolve().parents[1]
        digest = hashlib.sha256()
        digest.update(f"numpy=={numpy.__version__}".encode())
        for relative in salted_paths():
            source = package_root / relative
            digest.update(relative.encode())
            digest.update(source.read_bytes())
        _code_salt_memo = digest.hexdigest()[:16]
    return _code_salt_memo


def cache_disabled_by_env() -> bool:
    return os.environ.get(ENV_CACHE, "").strip().lower() in ("0", "off", "no",
                                                             "false")


def default_cache_dir() -> pathlib.Path:
    """``$REPRO_CACHE`` if it names a directory, else ``benchmarks/.cache``
    next to the source tree (falling back to the user cache dir when the
    package is installed outside its repository)."""
    env = os.environ.get(ENV_CACHE, "").strip()
    if env and not cache_disabled_by_env():
        return pathlib.Path(env)
    repo_root = pathlib.Path(__file__).resolve().parents[3]
    if (repo_root / "benchmarks").is_dir():
        return repo_root / "benchmarks" / ".cache"
    return pathlib.Path.home() / ".cache" / "repro-gpu-qos"


# ------------------------------------------------------------------- keying

def _digest(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _machine_payload(gpu: GPUConfig, cycles: int, warmup: int) -> dict:
    return {"gpu": dataclasses.asdict(gpu), "cycles": cycles,
            "warmup": warmup, "salt": code_salt()}


def isolated_key(gpu: GPUConfig, name: str, cycles: int, warmup: int) -> str:
    payload = _machine_payload(gpu, cycles, warmup)
    payload["kind"] = "isolated"
    payload["kernel"] = name
    return _digest(payload)


def case_key(gpu: GPUConfig, names: Sequence[str],
             qos_flags: Sequence[bool],
             goal_fractions: Sequence[Optional[float]],
             policy: str, cycles: int, warmup: int,
             telemetry: bool = False) -> str:
    payload = _machine_payload(gpu, cycles, warmup)
    payload["kind"] = "case"
    payload["kernels"] = list(names)
    payload["qos"] = list(qos_flags)
    payload["goals"] = list(goal_fractions)
    payload["policy"] = policy
    # Telemetry-bearing records carry the per-epoch stream; keep them
    # distinct from lean records so toggling the flag never serves a
    # record without (or with unwanted) telemetry attached.
    payload["telemetry"] = bool(telemetry)
    return _digest(payload)


def serve_key(gpu: GPUConfig, spec_payload: dict) -> str:
    """Content key of one serving case (a :class:`repro.serve.runner.ServeSpec`
    run on one machine).  The spec payload already carries horizon, seed and
    admission policy; the machine side is the GPU config plus the code salt,
    so editing any salted source invalidates served results too."""
    payload = {"gpu": dataclasses.asdict(gpu), "salt": code_salt(),
               "kind": "serve", "spec": spec_payload}
    return _digest(payload)


# ------------------------------------------------- experiment (sweep) keying
# The experiment store (:mod:`repro.harness.expdb`) is engine-independent
# and deals only in plain payloads, so the content-hash identity of a sweep
# lives here with the other keying logic.  Experiment identity is purely
# content-derived — machine payload (which embeds the code salt) plus the
# ordered spec grid — never timestamps (lint rule DET008).

def sweep_grid_payload(gpu: GPUConfig, cycles: int, warmup: int,
                       telemetry: bool, spec_payloads: Sequence[dict]) -> dict:
    """The full JSON-able description of one sweep: everything needed both
    to identify it (hash) and to rebuild its runner on resume."""
    payload = _machine_payload(gpu, cycles, warmup)
    payload["kind"] = "experiment"
    payload["telemetry"] = bool(telemetry)
    payload["specs"] = list(spec_payloads)
    return payload


#: ``kind`` of a serving sweep's grid payload (co-run grids: ``experiment``).
SERVE_GRID_KIND = "serve-experiment"


def serve_grid_payload(gpu: GPUConfig,
                       spec_payloads: Sequence[dict]) -> dict:
    """The JSON-able description of one serving sweep (a load sweep is a
    grid of :class:`repro.serve.runner.ServeSpec` payloads on one machine)."""
    payload = {"gpu": dataclasses.asdict(gpu), "salt": code_salt(),
               "kind": SERVE_GRID_KIND, "specs": list(spec_payloads)}
    return payload


def experiment_spec_hash(grid: dict) -> str:
    return _digest(grid)


def experiment_id_for(spec_hash: str) -> str:
    """Experiment ids are a readable prefix of the spec hash: the same grid
    under the same code always maps to the same experiment."""
    return f"exp-{spec_hash[:12]}"


# ------------------------------------------------------------ serialisation

def record_to_dict(record: CaseRecord) -> dict:
    return dataclasses.asdict(record)


def record_from_dict(data: dict) -> CaseRecord:
    kernels = tuple(KernelOutcome(**outcome) for outcome in data["kernels"])
    telemetry = tuple(epoch_record_from_dict(entry)
                      for entry in data.get("telemetry", ()))
    rest = {key: value for key, value in data.items()
            if key not in ("kernels", "telemetry")}
    return CaseRecord(kernels=kernels, telemetry=telemetry, **rest)


# -------------------------------------------------------------------- store

class CaseCache:
    """Append-only JSON-lines store; last write wins on key collisions."""

    def __init__(self, directory: Optional[os.PathLike] = None):
        self.directory = pathlib.Path(directory) if directory else default_cache_dir()
        self.path = self.directory / "cases.jsonl"
        self._entries: Dict[str, dict] = {}
        self.hits = 0
        self.misses = 0
        self._load()

    def _load(self) -> None:
        if not self.path.exists():
            return
        with self.path.open() as stream:
            for line in stream:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                    self._entries[entry["key"]] = entry
                except (ValueError, KeyError):
                    continue  # torn write from an interrupted run

    def _append(self, key: str, kind: str, value) -> None:
        entry = {"key": key, "kind": kind, "value": value}
        self._entries[key] = entry
        self.directory.mkdir(parents=True, exist_ok=True)
        with self.path.open("a") as stream:
            stream.write(json.dumps(entry, sort_keys=True) + "\n")

    # ------------------------------------------------------------- records

    def get_case(self, key: str) -> Optional[CaseRecord]:
        entry = self._entries.get(key)
        if entry is None or entry.get("kind") != "case":
            self.misses += 1
            return None
        self.hits += 1
        return record_from_dict(entry["value"])

    def put_case(self, key: str, record: CaseRecord) -> None:
        self._append(key, "case", record_to_dict(record))

    def get_isolated(self, key: str) -> Optional[float]:
        entry = self._entries.get(key)
        if entry is None or entry.get("kind") != "isolated":
            self.misses += 1
            return None
        self.hits += 1
        return float(entry["value"])

    def put_isolated(self, key: str, value: float) -> None:
        self._append(key, "isolated", value)

    def get_serve(self, key: str) -> Optional[dict]:
        """Cached serving-case value (plain dict: request-record payloads
        plus counters — :mod:`repro.serve.runner` owns the shape)."""
        entry = self._entries.get(key)
        if entry is None or entry.get("kind") != "serve":
            self.misses += 1
            return None
        self.hits += 1
        return entry["value"]

    def put_serve(self, key: str, value: dict) -> None:
        self._append(key, "serve", value)

    # ------------------------------------------------------------ plumbing

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict:
        kinds: Dict[str, int] = {}
        for entry in self._entries.values():
            kinds[entry["kind"]] = kinds.get(entry["kind"], 0) + 1
        return {
            "path": str(self.path),
            "entries": len(self._entries),
            "cases": kinds.get("case", 0),
            "isolated": kinds.get("isolated", 0),
            "serve": kinds.get("serve", 0),
            "size_bytes": self.path.stat().st_size if self.path.exists() else 0,
            "hits": self.hits,
            "misses": self.misses,
            "code_salt": code_salt(),
        }

    def clear(self) -> int:
        """Drop every entry; returns how many were removed."""
        removed = len(self._entries)
        self._entries.clear()
        if self.path.exists():
            self.path.unlink()
        return removed


def open_default_cache() -> Optional[CaseCache]:
    """The shared store, or None when ``REPRO_CACHE`` disables persistence."""
    if cache_disabled_by_env():
        return None
    return CaseCache()
