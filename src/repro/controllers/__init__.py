"""Pluggable SLO quota controllers for the QoS manager.

The public surface:

* :class:`QuotaController` — the control-law seam: observe the closing
  epoch (:class:`~repro.sim.policy.EpochView`) through a
  :class:`~repro.sim.policy.PolicyContext`, emit a per-QoS-kernel quota
  scale that :class:`~repro.qos.manager.QoSPolicy` turns into quotas and
  TB targets.
* :class:`SchemeController` — the paper's history-based alpha law
  (Section 3.4.2) behind the seam, bit-identical to the pre-seam
  implementation (the default for the four paper schemes).
* :class:`PIDQuotaController` / :class:`MPCQuotaController` — the
  datacenter-style controllers the ROADMAP asks for: PID on the IPC-goal
  residual with anti-windup, and short-horizon model-predictive control
  with a History fallback.  Gains live in
  :class:`repro.config.ControllerConfig` so they hash into case-cache
  keys.
* :func:`controller_by_name` / :data:`CONTROLLER_NAMES` — the registry
  the harness and CLI use.

The package imports nothing from the experiment harness; the harness's
``ext_controllers`` experiment scores the controllers against the paper's
schemes (see docs/controllers.md).
"""

from repro.controllers.base import (
    ALPHA_CAP,
    ControllerState,
    QuotaController,
    SchemeController,
)
from repro.controllers.mpc import MPCQuotaController
from repro.controllers.pid import PIDQuotaController

#: Controller names accepted by :func:`controller_by_name` (and, prefixed
#: onto the policy registry, by ``CaseRunner.run_case``).
CONTROLLER_NAMES = ("pid", "mpc")

_CONTROLLERS = {
    PIDQuotaController.name: PIDQuotaController,
    MPCQuotaController.name: MPCQuotaController,
}


def controller_by_name(name: str) -> QuotaController:
    """Instantiate a non-scheme quota controller from its registry name."""
    try:
        return _CONTROLLERS[name]()
    except KeyError:
        raise ValueError(
            f"unknown controller {name!r}; choose from {CONTROLLER_NAMES}"
        ) from None


__all__ = [
    "ALPHA_CAP",
    "ControllerState",
    "QuotaController",
    "SchemeController",
    "PIDQuotaController",
    "MPCQuotaController",
    "CONTROLLER_NAMES",
    "controller_by_name",
]
