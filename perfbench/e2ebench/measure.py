"""Pure helpers: percentiles, digests and the end-to-end metric summary.

Nothing here imports the program under test, so the helpers can be
tested without running a simulation.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from typing import Dict, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``).

    The value at rank ``ceil(q/100 * n)`` of the sorted sample: an
    observed value, never an interpolation.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError("q must be in (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(values: Sequence[float], q: float) -> int:
    """How many samples rank after the nearest-rank ``q``-th percentile.

    The percentile rule asks for at least ten: p90 needs 100 samples.
    """
    return len(values) - max(1, math.ceil(q / 100.0 * len(values)))


def digest(value) -> str:
    """SHA-256 of the canonical JSON form of ``value`` (16 hex digits).

    Floats serialise by their shortest round-trip repr, so two runs that
    produce bit-identical outputs produce identical digests.
    """
    canonical = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def end_to_end(setup_samples: Sequence[float], peak_rss_mb: float,
               op_seconds: Sequence[float]) -> Dict[str, dict]:
    """The end-to-end metrics every workload reports.

    ``op_seconds`` holds the host seconds of every completed operation;
    failed operations are left out by the caller.
    """
    if not op_seconds:
        raise ValueError("no operation completed")
    return {
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        "op_s_p50": {"value": statistics.median(op_seconds), "unit": "s"},
    }


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, dict]) -> str:
    """The one-line JSON object the benchmark prints last."""
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})

