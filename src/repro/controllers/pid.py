"""Per-QoS-kernel PID control of the epoch quota scale.

The classic SLO tracking loop: the controller measures each QoS kernel's
per-epoch IPC against its goal and drives the quota scale (the alpha that
multiplies ``goal * epoch_length``) with proportional, integral and
derivative action on the *normalised* residual ``(goal - ipc) / goal``.
Normalising makes one gain preset usable across kernels whose absolute
IPC differs by an order of magnitude.

Differences from the paper's History law worth knowing when tuning:

* History only ever *boosts* (``alpha >= 1``); PID may shrink the scale
  below 1.0 (down to ``alpha_floor``) when a kernel overshoots, returning
  quota headroom to non-QoS kernels faster.  The ``ext_controllers``
  experiment checks the effect: PID's non-QoS STP is at least Rollover's.
* History integrates implicitly through cumulative IPC, which never
  forgets the warm-up transient; PID's explicit integral term is clamped
  (``pid_integral_limit``) and conditionally frozen while the output
  saturates (anti-windup), so a long starvation phase cannot wind up a
  quota burst that then blows through the goal.

Gains live in :class:`repro.config.ControllerConfig` (``pid_kp``,
``pid_ki``, ``pid_kd``, ``pid_integral_limit``, ``alpha_floor``,
``alpha_cap``) and therefore hash into persistent case-cache keys.
"""

from __future__ import annotations

from typing import Dict

from repro.controllers.base import ControllerState, QuotaController
from repro.sim.policy import EpochView, PolicyContext


class PIDQuotaController(QuotaController):
    """PID on the normalised IPC-goal residual, with anti-windup."""

    name = "pid"

    def __init__(self) -> None:
        super().__init__()
        self._integral: Dict[int, float] = {}
        self._last_error: Dict[int, float] = {}
        self._state: Dict[int, ControllerState] = {}

    def start(self, config, qos_indices, goals) -> None:
        super().start(config, qos_indices, goals)
        self._integral = {idx: 0.0 for idx in self.qos_indices}
        self._last_error = {idx: 0.0 for idx in self.qos_indices}
        self._state = {}

    def on_epoch(self, ctx: PolicyContext, view: EpochView) -> Dict[int, float]:
        tuning = self.tuning
        scales: Dict[int, float] = {}
        for idx in self.qos_indices:
            goal = self.goals[idx]
            error = (goal - view.epoch_ipc[idx]) / goal if goal > 0 else 0.0
            derivative = error - self._last_error[idx]
            self._last_error[idx] = error
            # Tentatively accumulate, then clamp the magnitude; if the
            # resulting output saturates at either rail, roll the
            # accumulation back (conditional integration) so the integral
            # cannot wind up against a bound it cannot push past.
            integral = self._integral[idx] + error
            limit = tuning.pid_integral_limit
            integral = min(limit, max(-limit, integral))
            raw = (1.0 + tuning.pid_kp * error + tuning.pid_ki * integral
                   + tuning.pid_kd * derivative)
            scale = min(tuning.alpha_cap, max(tuning.alpha_floor, raw))
            if scale != raw:
                integral = self._integral[idx]
            self._integral[idx] = integral
            self._state[idx] = ControllerState(error=error, integral=integral)
            scales[idx] = scale
        return scales

    def state(self, kernel_idx: int) -> ControllerState:
        return self._state.get(kernel_idx, ControllerState())
