"""SQLite experiment store: sweeps as first-class, resumable objects.

The JSONL :class:`~repro.harness.cache.CaseCache` gives individual case
*records* an identity; this module gives the **sweep itself** one.  Every
:meth:`CaseRunner.sweep <repro.harness.runner.CaseRunner.sweep>` registers
its full ``CaseSpec`` grid as a row in the ``experiments`` table (keyed by a
content hash of the machine payload plus the ordered grid — so the same
sweep always maps to the same experiment id) and one row per case in the
``cases`` table.  Workers then **pull** pending cases from the table with a
claim-by-update transaction instead of consuming a static list, which is
what makes sweeps durable:

* an interrupted figure run resumes where it stopped
  (``repro exp resume <id>`` — done cases are never re-simulated);
* re-running a completed experiment performs zero new simulations and,
  after one status read, writes nothing to the store;
* a committed figure carries provenance (experiment id + spec hash + code
  salt) back to the exact config grid that produced it;
* multi-process — and, with a shared filesystem, multi-machine — fan-out
  claims from the same table (the database is opened in WAL mode).

Layering: this module is deliberately **engine-independent** (enforced by
the ``expdb-engine-independence`` import contract, ``repro lint`` LAY001).
It never imports the simulator, kernels, config or runner: experiments and
cases cross the boundary as plain JSON payloads, and spec hashing lives
with the other content-hash keying in :mod:`repro.harness.cache`.  Result
records are not stored here either — each case row carries a ``cache_key``
*pointer* into the existing :class:`~repro.harness.cache.CaseCache`.

Timestamps (``created_at``/``claimed_at``/...) are recorded for operators
reading ``repro exp list``; they must never feed cache keys, experiment
identity or result ordering (``repro lint`` DET008 guards the classic ways
that regresses: ``ORDER BY <timestamp>`` and timestamp keys in digest
payloads).

Opt-out / relocation via the ``REPRO_EXPDB`` environment variable: ``0`` /
``off`` disables the store entirely, any other value is used as the
database path (a directory gets ``experiments.sqlite`` inside it).
"""

from __future__ import annotations

import json
import os
import pathlib
import sqlite3
import time
from typing import Dict, List, Optional, Sequence, Tuple

ENV_EXPDB = "REPRO_EXPDB"

#: Case/experiment lifecycle states.
PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS experiments (
    id          TEXT PRIMARY KEY,
    spec_hash   TEXT NOT NULL,
    code_salt   TEXT NOT NULL,
    grid        TEXT NOT NULL,
    status      TEXT NOT NULL,
    total_cases INTEGER NOT NULL,
    created_at  REAL NOT NULL,
    updated_at  REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS cases (
    experiment_id TEXT NOT NULL,
    case_index    INTEGER NOT NULL,
    spec          TEXT NOT NULL,
    cache_key     TEXT NOT NULL,
    status        TEXT NOT NULL,
    worker        TEXT,
    error         TEXT,
    claimed_at    REAL,
    finished_at   REAL,
    PRIMARY KEY (experiment_id, case_index)
);
CREATE TABLE IF NOT EXISTS isolated (
    experiment_id TEXT NOT NULL,
    kernel        TEXT NOT NULL,
    cache_key     TEXT NOT NULL,
    ipc           REAL,
    PRIMARY KEY (experiment_id, kernel)
);
CREATE INDEX IF NOT EXISTS idx_cases_status
    ON cases (experiment_id, status, case_index);
"""


def expdb_disabled_by_env() -> bool:
    return os.environ.get(ENV_EXPDB, "").strip().lower() in ("0", "off", "no",
                                                             "false")


def default_expdb_path() -> pathlib.Path:
    """``$REPRO_EXPDB`` if set, else ``benchmarks/.cache/experiments.sqlite``
    next to the source tree (falling back to the user cache dir when the
    package is installed outside its repository)."""
    env = os.environ.get(ENV_EXPDB, "").strip()
    if env and not expdb_disabled_by_env():
        path = pathlib.Path(env)
        return path / "experiments.sqlite" if path.is_dir() else path
    repo_root = pathlib.Path(__file__).resolve().parents[3]
    if (repo_root / "benchmarks").is_dir():
        return repo_root / "benchmarks" / ".cache" / "experiments.sqlite"
    return pathlib.Path.home() / ".cache" / "repro-gpu-qos" / "experiments.sqlite"


def _now() -> float:
    """Wall-clock stamp for operator-facing columns only: timestamps never
    feed experiment identity, cache keys or result ordering (DET008)."""
    return time.time()  # repro: noqa=DET001


class ExperimentDB:
    """The experiment store: one SQLite database, WAL mode, tiny schema.

    ``path=":memory:"`` builds an ephemeral store — the runners use one to
    route *every* sweep through the same pull-based claim loop even when
    persistence is disabled, so the durable path is never a special case.
    """

    def __init__(self, path=None):
        if path is None:
            path = default_expdb_path()
        self.path = str(path)
        if self.path != ":memory:":
            pathlib.Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(self.path)
        self._conn.row_factory = sqlite3.Row
        # Concurrent claimers (pool workers, other machines on a shared
        # filesystem) need readers not to block the claiming writer.
        if self.path != ":memory:":
            self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA busy_timeout=30000")
        self._conn.executescript(_SCHEMA)
        self._conn.commit()

    def close(self) -> None:
        self._conn.close()

    # -------------------------------------------------------- registration

    def register(self, experiment_id: str, spec_hash: str, code_salt: str,
                 grid: dict,
                 case_rows: Sequence[Tuple[dict, str]]) -> bool:
        """Register a sweep and its cases; idempotent by experiment id.

        ``grid`` is the full JSON-able sweep description (machine payload +
        ordered spec payloads) needed to rebuild the runner on resume;
        ``case_rows`` is one ``(spec_payload, cache_key)`` per case, in grid
        order.  Returns True when the experiment was newly created, False
        when it already existed (the resume path: existing case statuses
        are left untouched).
        """
        now = _now()
        with self._conn:
            created = self._conn.execute(
                "INSERT OR IGNORE INTO experiments "
                "(id, spec_hash, code_salt, grid, status, total_cases, "
                " created_at, updated_at) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (experiment_id, spec_hash, code_salt,
                 json.dumps(grid, sort_keys=True), PENDING, len(case_rows),
                 now, now)).rowcount > 0
            if created:
                self._conn.executemany(
                    "INSERT INTO cases (experiment_id, case_index, spec, "
                    "cache_key, status) VALUES (?, ?, ?, ?, ?)",
                    [(experiment_id, index, json.dumps(spec, sort_keys=True),
                      cache_key, PENDING)
                     for index, (spec, cache_key) in enumerate(case_rows)])
        return created

    # ------------------------------------------------------ claim protocol

    def claim_next(self, experiment_id: str,
                   worker: str) -> Optional[Tuple[int, dict]]:
        """Claim the lowest-index pending case, or None when none are left.

        Claim-by-update under ``BEGIN IMMEDIATE``: the write lock is taken
        before the candidate is selected, so two pullers can never claim
        the same case.
        """
        with self._conn:
            self._conn.execute("BEGIN IMMEDIATE")
            row = self._conn.execute(
                "SELECT case_index, spec FROM cases "
                "WHERE experiment_id = ? AND status = ? "
                "ORDER BY case_index LIMIT 1",
                (experiment_id, PENDING)).fetchone()
            if row is None:
                return None
            self._conn.execute(
                "UPDATE cases SET status = ?, worker = ?, claimed_at = ? "
                "WHERE experiment_id = ? AND case_index = ?",
                (RUNNING, worker, _now(), experiment_id, row["case_index"]))
            self._set_status(experiment_id, RUNNING)
        return row["case_index"], json.loads(row["spec"])

    def mark_done(self, experiment_id: str, case_index: int) -> None:
        with self._conn:
            self._conn.execute(
                "UPDATE cases SET status = ?, error = NULL, finished_at = ? "
                "WHERE experiment_id = ? AND case_index = ?",
                (DONE, _now(), experiment_id, case_index))

    def mark_failed(self, experiment_id: str, case_index: int,
                    error: str) -> None:
        with self._conn:
            self._conn.execute(
                "UPDATE cases SET status = ?, error = ?, finished_at = ? "
                "WHERE experiment_id = ? AND case_index = ?",
                (FAILED, str(error)[:500], _now(), experiment_id, case_index))
            self._set_status(experiment_id, FAILED)

    def release_stale(self, experiment_id: str) -> int:
        """Flip ``running``/``failed`` cases back to ``pending``.

        Called before pulling: cases left mid-flight by a killed or crashed
        sweep are re-claimed and re-simulated (determinism makes the retry
        indistinguishable from a first run).
        """
        with self._conn:
            released = self._conn.execute(
                "UPDATE cases SET status = ?, worker = NULL, error = NULL "
                "WHERE experiment_id = ? AND status IN (?, ?)",
                (PENDING, experiment_id, RUNNING, FAILED)).rowcount
        return released

    def finish(self, experiment_id: str) -> bool:
        """Mark the experiment done iff every case is done."""
        counts = self.case_counts(experiment_id)
        remaining = sum(count for status, count in counts.items()
                        if status != DONE)
        if remaining == 0:
            with self._conn:
                self._set_status(experiment_id, DONE)
            return True
        return False

    def _set_status(self, experiment_id: str, status: str) -> None:
        self._conn.execute(
            "UPDATE experiments SET status = ?, updated_at = ? WHERE id = ?",
            (status, _now(), experiment_id))

    # ------------------------------------------------------- isolated IPCs

    def record_isolated(self, experiment_id: str, kernel: str,
                        cache_key: str, ipc: float) -> None:
        """Persist one isolated-IPC denominator for this experiment, so a
        resumed sweep seeds its memo instead of re-simulating it — even
        when the JSONL case cache is disabled."""
        with self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO isolated "
                "(experiment_id, kernel, cache_key, ipc) VALUES (?, ?, ?, ?)",
                (experiment_id, kernel, cache_key, ipc))

    def isolated_ipcs(self, experiment_id: str) -> Dict[str, float]:
        rows = self._conn.execute(
            "SELECT kernel, ipc FROM isolated "
            "WHERE experiment_id = ? AND ipc IS NOT NULL "
            "ORDER BY kernel", (experiment_id,)).fetchall()
        return {row["kernel"]: row["ipc"] for row in rows}

    # ----------------------------------------------------------- inspection

    def status(self, experiment_id: str) -> Optional[str]:
        """The experiment's lifecycle state, or None when it is not
        registered: one primary-key read, no grid decode."""
        row = self._conn.execute(
            "SELECT status FROM experiments WHERE id = ?",
            (experiment_id,)).fetchone()
        return None if row is None else row["status"]

    def experiment(self, experiment_id: str) -> Optional[dict]:
        row = self._conn.execute(
            "SELECT * FROM experiments WHERE id = ?",
            (experiment_id,)).fetchone()
        if row is None:
            return None
        record = dict(row)
        record["grid"] = json.loads(record["grid"])
        return record

    def experiments(self) -> List[dict]:
        """Every experiment, ordered by id (content-derived, so the listing
        is stable across machines and runs)."""
        rows = self._conn.execute(
            "SELECT * FROM experiments ORDER BY id").fetchall()
        return [dict(row) for row in rows]

    def cases(self, experiment_id: str) -> List[dict]:
        rows = self._conn.execute(
            "SELECT * FROM cases WHERE experiment_id = ? ORDER BY case_index",
            (experiment_id,)).fetchall()
        records = []
        for row in rows:
            record = dict(row)
            record["spec"] = json.loads(record["spec"])
            records.append(record)
        return records

    def case_counts(self, experiment_id: str) -> Dict[str, int]:
        rows = self._conn.execute(
            "SELECT status, COUNT(*) AS n FROM cases "
            "WHERE experiment_id = ? GROUP BY status ORDER BY status",
            (experiment_id,)).fetchall()
        return {row["status"]: row["n"] for row in rows}

    def stats(self) -> dict:
        experiments = self._conn.execute(
            "SELECT status, COUNT(*) AS n FROM experiments "
            "GROUP BY status ORDER BY status").fetchall()
        cases = self._conn.execute(
            "SELECT status, COUNT(*) AS n FROM cases "
            "GROUP BY status ORDER BY status").fetchall()
        return {
            "path": self.path,
            "experiments": {row["status"]: row["n"] for row in experiments},
            "cases": {row["status"]: row["n"] for row in cases},
        }

    # ------------------------------------------------------------------ gc

    def gc(self, current_salt: Optional[str] = None,
           drop_done: bool = False) -> int:
        """Delete experiments that can no longer be resumed usefully.

        With ``current_salt`` given, drops every experiment whose code salt
        differs (the cached records its cases point to are unreachable
        after a code edit — resuming would silently mix toolchains, so the
        rows are dead weight).  ``drop_done=True`` additionally drops
        completed experiments.  Returns how many experiments were removed.
        """
        doomed: List[str] = []
        for record in self.experiments():
            if current_salt is not None and record["code_salt"] != current_salt:
                doomed.append(record["id"])
            elif drop_done and record["status"] == DONE:
                doomed.append(record["id"])
        with self._conn:
            for experiment_id in doomed:
                self._conn.execute("DELETE FROM cases WHERE experiment_id = ?",
                                   (experiment_id,))
                self._conn.execute(
                    "DELETE FROM isolated WHERE experiment_id = ?",
                    (experiment_id,))
                self._conn.execute("DELETE FROM experiments WHERE id = ?",
                                   (experiment_id,))
        return len(doomed)


def open_default_expdb() -> Optional[ExperimentDB]:
    """The shared store, or None when ``REPRO_EXPDB`` disables it."""
    if expdb_disabled_by_env():
        return None
    return ExperimentDB()
