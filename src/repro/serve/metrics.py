"""Request-level metrics and SLO scoring for the serving layer.

Epoch telemetry (:mod:`repro.sim.telemetry`) answers "what was the machine
doing"; this module answers "what did each *request* experience".  One
:class:`RequestRecord` per generated request carries its full lifecycle —
arrival, admission verdict, launch, completion — plus the derived queue-
wait / service / end-to-end latencies, and the summary helpers reduce a
record stream to the numbers serving papers report: per-class p50/p95/p99
latency and SLO attainment.

The JSONL export mirrors :mod:`repro.trace.jsonl`: a ``{"kind": "meta"}``
header carrying ``request_schema_version`` followed by one
``{"kind": "request"}`` line per record, and the reader validates every
line strictly (exact field set, exact types) so a stale or hand-mangled
trace fails loudly instead of decoding into garbage.

Everything here is pure accounting over integers already produced by the
deterministic simulator — no floats feed back into results, and the
percentile definition (nearest-rank) is exact, so summaries are
byte-reproducible across machines and runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

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


_INT_FIELDS = ("request_id", "arrival_cycle", "slo_cycles", "grid_tbs")
_OPT_INT_FIELDS = ("start_cycle", "finish_cycle", "queue_wait_cycles",
                   "service_cycles", "latency_cycles")
_STR_FIELDS = ("request_class", "kernel")
_BOOL_FIELDS = ("admitted", "completed", "slo_met")
_ALL_FIELDS = (_INT_FIELDS + _OPT_INT_FIELDS + _STR_FIELDS + _BOOL_FIELDS
               + ("reject_reason",))


def request_record_to_dict(record: RequestRecord) -> dict:
    return {field: getattr(record, field) for field in _ALL_FIELDS}


def request_record_from_dict(payload: Mapping) -> RequestRecord:
    validate_request_dict(payload)
    return RequestRecord(**{field: payload[field] for field in _ALL_FIELDS})


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def validate_request_dict(payload: Mapping) -> None:
    """Strict schema check: exact field set, exact types.

    Raises ``ValueError`` with the first offending field, mirroring
    :func:`repro.sim.telemetry.validate_epoch_dict`.
    """
    expected = set(_ALL_FIELDS)
    actual = set(payload.keys())
    if actual != expected:
        missing = sorted(expected - actual)
        extra = sorted(actual - expected)
        raise ValueError(
            f"request record fields mismatch: missing={missing} extra={extra}")
    for field in _INT_FIELDS:
        if not _is_int(payload[field]):
            raise ValueError(f"request field {field} must be an int, "
                             f"got {payload[field]!r}")
    for field in _OPT_INT_FIELDS:
        value = payload[field]
        if value is not None and not _is_int(value):
            raise ValueError(f"request field {field} must be an int or None, "
                             f"got {value!r}")
    for field in _STR_FIELDS:
        if not isinstance(payload[field], str):
            raise ValueError(f"request field {field} must be a str, "
                             f"got {payload[field]!r}")
    for field in _BOOL_FIELDS:
        if not isinstance(payload[field], bool):
            raise ValueError(f"request field {field} must be a bool, "
                             f"got {payload[field]!r}")
    reason = payload["reject_reason"]
    if reason is not None and not isinstance(reason, str):
        raise ValueError(f"request field reject_reason must be a str or "
                         f"None, got {reason!r}")


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
    header = {"kind": "meta",
              "request_schema_version": REQUEST_SCHEMA_VERSION}
    if meta:
        header.update(meta)
        header["kind"] = "meta"  # provenance must not smuggle a kind
        header["request_schema_version"] = REQUEST_SCHEMA_VERSION
    stream.write(json.dumps(header, sort_keys=True) + "\n")
    count = 0
    for record in records:
        payload = request_record_to_dict(record)
        payload["kind"] = "request"
        stream.write(json.dumps(payload, sort_keys=True) + "\n")
        count += 1
    return count


def read_request_trace(stream: IO[str]) -> Tuple[dict, List[RequestRecord]]:
    """Parse and strictly validate a request trace: ``(meta, records)``."""
    meta: Optional[dict] = None
    records: List[RequestRecord] = []
    for line_no, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except ValueError as error:
            raise ValueError(f"request trace line {line_no}: not JSON "
                             f"({error})")
        kind = payload.get("kind") if isinstance(payload, dict) else None
        if meta is None:
            if kind != "meta":
                raise ValueError(
                    f"request trace line {line_no}: expected a meta header "
                    f"line, got kind={kind!r}")
            version = payload.get("request_schema_version")
            if version != REQUEST_SCHEMA_VERSION:
                raise ValueError(
                    f"request trace schema version {version!r} does not "
                    f"match expected {REQUEST_SCHEMA_VERSION}")
            meta = payload
            continue
        if kind != "request":
            raise ValueError(
                f"request trace line {line_no}: unknown kind {kind!r}")
        body = {key: value for key, value in payload.items()
                if key != "kind"}
        try:
            records.append(request_record_from_dict(body))
        except ValueError as error:
            raise ValueError(f"request trace line {line_no}: {error}")
    if meta is None:
        raise ValueError("request trace is empty: no meta header line")
    return meta, records
