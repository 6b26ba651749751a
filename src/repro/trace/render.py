"""ASCII rendering of epoch traces."""

from __future__ import annotations

from typing import Optional, Sequence

from repro.sim.telemetry import EpochRecord

_BLOCKS = " ▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: Optional[int] = None,
              ceiling: Optional[float] = None) -> str:
    """Render a numeric series as a unicode block sparkline.

    ``width`` resamples the series (mean-pooling); ``ceiling`` pins the
    scale so multiple sparklines are comparable.
    """
    values = list(values)
    if not values:
        return ""
    if width is not None and width > 0 and len(values) > width:
        pooled = []
        step = len(values) / width
        for bucket in range(width):
            start = int(bucket * step)
            stop = max(start + 1, int((bucket + 1) * step))
            chunk = values[start:stop]
            pooled.append(sum(chunk) / len(chunk))
        values = pooled
    top = ceiling if ceiling is not None else max(values)
    if top <= 0:
        return _BLOCKS[0] * len(values)
    chars = []
    for value in values:
        level = int(round(min(max(value / top, 0.0), 1.0) * (len(_BLOCKS) - 1)))
        chars.append(_BLOCKS[level])
    return "".join(chars)


def render_timeline(records: Sequence[EpochRecord],
                    kernel_names: Sequence[str],
                    goals: Optional[Sequence[Optional[float]]] = None,
                    width: int = 60) -> str:
    """Render a stream of :class:`~repro.sim.telemetry.EpochRecord`s as
    per-kernel rows.

    Each kernel gets an IPC sparkline (scaled to its own peak, with its QoS
    goal shown numerically when given) and a TB-residency sparkline scaled
    to the machine total.  The header spans the epochs' closing cycles.
    """
    if not records:
        return "(empty trace)"
    lines = [f"epoch trace: {len(records)} epochs, "
             f"cycles {records[0].end_cycle}..{records[-1].end_cycle}"]
    label_width = max(len(name) for name in kernel_names) + 2
    for idx, name in enumerate(kernel_names):
        ipc = [record.kernels[idx].epoch_ipc for record in records]
        tbs = [record.kernels[idx].total_tbs for record in records]
        goal = goals[idx] if goals else None
        goal_text = f" goal={goal:.1f}" if goal else ""
        lines.append(f"{name.ljust(label_width)}ipc "
                     f"[{sparkline(ipc, width)}] "
                     f"last={ipc[-1]:.1f} peak={max(ipc):.1f}{goal_text}")
        lines.append(f"{''.ljust(label_width)}tbs "
                     f"[{sparkline(tbs, width, ceiling=max(max(tbs), 1))}] "
                     f"last={tbs[-1]}")
    return "\n".join(lines)
