"""JSONL export/import of engine telemetry streams.

A trace file is newline-delimited JSON: one ``{"kind": "meta", ...}`` header
line carrying the schema version plus caller-supplied provenance (workload,
policy, preset...), followed by one ``{"kind": "epoch", ...}`` line per
:class:`~repro.sim.telemetry.EpochRecord` in simulation order.  The format
is append-friendly, greppable, and loads line-by-line, so multi-million-
cycle traces never need to fit in memory at once.

The reader and writer are :func:`repro.sim.records.read_jsonl` /
:func:`~repro.sim.records.write_jsonl`, the codec the serving layer's
request traces use too.  :func:`read_trace` is strict: every epoch line is
checked against the record schema, which is the dataclass itself
(:data:`repro.sim.telemetry.EPOCH_SCHEMA`), and the meta line's
``schema_version`` must match :data:`SCHEMA_VERSION`, so a stale trace
fails loudly instead of decoding into garbage.

The ``repro-gpu-qos trace`` subcommand (see :mod:`repro.cli`) runs one
co-run case with telemetry enabled and writes its stream in this format.
"""

from __future__ import annotations

from typing import IO, Iterable, List, Mapping, Optional, Tuple

from repro.sim.records import read_jsonl, write_jsonl
from repro.sim.telemetry import EPOCH_SCHEMA, SCHEMA_VERSION, EpochRecord


def write_trace(stream: IO[str], records: Iterable[EpochRecord],
                meta: Optional[Mapping] = None) -> int:
    """Write a meta line plus one line per record; returns the epoch count."""
    return write_jsonl(stream, EPOCH_SCHEMA, records, meta, kind="epoch",
                       version_key="schema_version", version=SCHEMA_VERSION)


def read_trace(stream: IO[str]) -> Tuple[dict, List[EpochRecord]]:
    """Parse and validate a trace; returns ``(meta, records)``.

    Raises ``ValueError`` on a missing/mismatched meta line, an unknown
    ``kind``, or any epoch line that fails the schema check.
    """
    return read_jsonl(stream, EPOCH_SCHEMA, kind="epoch",
                      version_key="schema_version", version=SCHEMA_VERSION,
                      label="trace")
