"""Request-level metrics and SLO scoring for the serving layer.

Epoch telemetry (:mod:`repro.sim.telemetry`) answers "what was the machine
doing"; this module answers "what did each *request* experience".  One
:class:`RequestRecord` per generated request carries its full lifecycle —
arrival, admission verdict, launch, completion — plus the derived queue-
wait / service / end-to-end latencies, and the summary helpers reduce a
record stream to the numbers serving papers report: per-class p50/p95/p99
latency and SLO attainment.

The dataclass is the record schema: :data:`REQUEST_SCHEMA`
(:class:`repro.sim.records.RecordSchema`) derives the dict codec and the
strict check from its fields and type hints.  The JSONL export is the
codec epoch traces use (:func:`repro.sim.records.write_jsonl` /
:func:`~repro.sim.records.read_jsonl`): a ``{"kind": "meta"}`` header
carrying ``request_schema_version`` followed by one ``{"kind": "request"}``
line per record, and the reader validates every line strictly (exact field
set, exact types) so a stale or hand-mangled trace fails loudly instead of
decoding into garbage.

Everything here is pure accounting over integers already produced by the
deterministic simulator — no floats feed back into results, and the
percentile definition (nearest-rank) is exact, so summaries are
byte-reproducible across machines and runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.sim.records import RecordSchema, read_jsonl, write_jsonl

#: Bump when the request-record field set changes; readers reject other
#: versions.
REQUEST_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RequestRecord:
    """Lifecycle of one request through the serving dispatcher.

    Cycle fields are ``None`` until the corresponding event happened:
    a rejected request has no ``start_cycle``; a request still queued or
    running at the horizon has no ``finish_cycle``.  ``slo_met`` is False
    for any request that did not complete within its SLO — including
    rejected and unfinished ones, which is what makes attainment an
    honest end-to-end score.
    """

    request_id: int
    request_class: str
    kernel: str
    arrival_cycle: int
    slo_cycles: int
    grid_tbs: int
    admitted: bool
    reject_reason: Optional[str]
    start_cycle: Optional[int]
    finish_cycle: Optional[int]
    queue_wait_cycles: Optional[int]
    service_cycles: Optional[int]
    latency_cycles: Optional[int]
    completed: bool
    slo_met: bool


#: The strict check and dict codec, derived from :class:`RequestRecord`.
REQUEST_SCHEMA = RecordSchema(RequestRecord)


def request_record_to_dict(record: RequestRecord) -> dict:
    return REQUEST_SCHEMA.to_dict(record)


def request_record_from_dict(payload: Mapping) -> RequestRecord:
    validate_request_dict(payload)
    return REQUEST_SCHEMA.from_dict(payload)


def validate_request_dict(payload: Mapping) -> None:
    """Strict schema check: exact field set, exact types.

    Raises ``ValueError`` naming the first offending field, as
    :func:`repro.sim.telemetry.validate_epoch_dict` does.
    """
    REQUEST_SCHEMA.check(payload)


# ------------------------------------------------------------------ summaries


def percentile(values: Sequence[int], fraction: float) -> Optional[int]:
    """Nearest-rank percentile over a sequence of cycle counts.

    Exact (no interpolation) so summaries stay integer-valued and
    byte-reproducible; returns ``None`` for an empty sequence.
    """
    if not values:
        return None
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    ordered = sorted(values)
    rank = max(1, -(-int(fraction * 1000) * len(ordered) // 1000))
    if rank > len(ordered):
        rank = len(ordered)
    return ordered[rank - 1]


def class_summary(records: Sequence[RequestRecord]) -> Dict[str, dict]:
    """Per-class reduction: counts, latency percentiles, SLO attainment.

    Keys are class names in first-arrival order.  ``slo_attainment`` is
    requests that completed within their SLO over *all* generated requests
    of the class (rejections and horizon-unfinished requests count as
    misses).
    """
    by_class: Dict[str, List[RequestRecord]] = {}
    for record in records:
        by_class.setdefault(record.request_class, []).append(record)
    summary: Dict[str, dict] = {}
    for name, group in by_class.items():
        latencies = [r.latency_cycles for r in group
                     if r.latency_cycles is not None]
        waits = [r.queue_wait_cycles for r in group
                 if r.queue_wait_cycles is not None]
        services = [r.service_cycles for r in group
                    if r.service_cycles is not None]
        met = sum(1 for r in group if r.slo_met)
        summary[name] = {
            "requests": len(group),
            "admitted": sum(1 for r in group if r.admitted),
            "rejected": sum(1 for r in group if not r.admitted),
            "completed": sum(1 for r in group if r.completed),
            "p50_latency": percentile(latencies, 0.50),
            "p95_latency": percentile(latencies, 0.95),
            "p99_latency": percentile(latencies, 0.99),
            "p50_queue_wait": percentile(waits, 0.50),
            "p99_queue_wait": percentile(waits, 0.99),
            "p50_service": percentile(services, 0.50),
            "slo_attainment": met / len(group),
        }
    return summary


def latency_cdf(records: Sequence[RequestRecord],
                points: Sequence[float] = (0.10, 0.25, 0.50, 0.75, 0.90,
                                           0.95, 0.99, 1.00),
                ) -> List[Tuple[str, Dict[str, Optional[int]]]]:
    """Latency CDF sample points per class: ``[(class, {"p50": ...}), ...]``.

    This is the figure backing the serving evaluation's latency-CDF plot,
    rendered as a table by the harness (the repo's figures are ASCII).
    """
    by_class: Dict[str, List[int]] = {}
    for record in records:
        if record.latency_cycles is not None:
            by_class.setdefault(record.request_class, []).append(
                record.latency_cycles)
    rows: List[Tuple[str, Dict[str, Optional[int]]]] = []
    for name, latencies in by_class.items():
        rows.append((name, {
            f"p{int(round(point * 100)):02d}": percentile(latencies, point)
            for point in points
        }))
    return rows


# ---------------------------------------------------------------- JSONL trace


def write_request_trace(stream: IO[str], records: Iterable[RequestRecord],
                        meta: Optional[Mapping] = None) -> int:
    """Write a meta line plus one line per request record; returns count."""
    return write_jsonl(stream, REQUEST_SCHEMA, records, meta, kind="request",
                       version_key="request_schema_version",
                       version=REQUEST_SCHEMA_VERSION)


def read_request_trace(stream: IO[str]) -> Tuple[dict, List[RequestRecord]]:
    """Parse and strictly validate a request trace: ``(meta, records)``."""
    return read_jsonl(stream, REQUEST_SCHEMA, kind="request",
                      version_key="request_schema_version",
                      version=REQUEST_SCHEMA_VERSION, label="request trace")
