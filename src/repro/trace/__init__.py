"""Epoch-level telemetry: serialise and render policy behaviour.

The engine emits one :class:`repro.sim.telemetry.EpochRecord` per epoch
when a :class:`repro.sim.telemetry.TelemetryRecorder` is attached: per-kernel
IPC, resident TBs, residual quota and, for QoS policies, alpha and the
artificial non-QoS goals.  :func:`write_trace` / :func:`read_trace`
round-trip that stream through the JSONL format the ``repro-gpu-qos trace``
subcommand produces, and :func:`render_timeline` turns it into an ASCII
chart, which is how the examples visualise quota throttling and TB
reallocation converging.
"""

from repro.trace.jsonl import read_trace, write_trace
from repro.trace.render import render_timeline, sparkline

__all__ = ["read_trace", "render_timeline", "sparkline", "write_trace"]
