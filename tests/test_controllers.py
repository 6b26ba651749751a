"""Tests for the pluggable SLO controller subsystem (repro.controllers).

Covers the QuotaController seam (golden differential: the four paper
schemes are bit-identical before/after the adaptation, with and without
the scan oracle), the PID and MPC control laws, controller-state
telemetry and cache keying of gain presets.  The scoring lives with the
harness metrics (``tests/test_metrics.py``) and the comparison with the
experiments (``tests/test_experiments.py``).
"""

import contextlib
import dataclasses
import json
import pathlib

import pytest

from repro.config import FAST_GPU, ControllerConfig
from repro.controllers import CONTROLLER_NAMES, controller_by_name
from repro.controllers.base import (
    ALPHA_CAP,
    ControllerState,
    QuotaController,
    SchemeController,
    history_fallback_scale,
)
from repro.controllers.mpc import MPCQuotaController, fit_line
from repro.controllers.pid import PIDQuotaController
from repro.harness.runner import POLICY_NAMES, CaseRunner
from repro.qos import QoSPolicy
from repro.sim.policy import EpochView

GOLDEN_PATH = (pathlib.Path(__file__).parent / "data"
               / "golden_scheme_records.json")


class StubCtx:
    """The one PolicyContext attribute controllers read in unit tests."""

    def __init__(self, num_kernels=2):
        self.num_kernels = num_kernels


def make_view(epoch_ipc, cumulative_ipc=None, index=0):
    if cumulative_ipc is None:
        cumulative_ipc = epoch_ipc
    n = len(epoch_ipc)
    return EpochView(index=index, cycle=(index + 1) * 1000,
                     epoch_cycles=1000, retired=(0,) * n,
                     retired_delta=(0,) * n,
                     epoch_ipc=tuple(epoch_ipc),
                     cumulative_ipc=tuple(cumulative_ipc))


def started(controller, goals={0: 10.0}, config=FAST_GPU):
    controller.start(config, tuple(goals), goals)
    return controller


# ------------------------------------------------------------------ registry

class TestRegistry:
    def test_controller_names_are_policy_names(self):
        assert set(CONTROLLER_NAMES) <= set(POLICY_NAMES)

    def test_controller_by_name(self):
        assert isinstance(controller_by_name("pid"), PIDQuotaController)
        assert isinstance(controller_by_name("mpc"), MPCQuotaController)

    def test_unknown_controller_raises(self):
        with pytest.raises(ValueError, match="unknown controller"):
            controller_by_name("fuzzy")

    def test_qos_policy_names_its_controller(self):
        assert QoSPolicy("rollover").name == "qos-rollover"
        policy = QoSPolicy("rollover", controller=PIDQuotaController())
        assert policy.name == "qos-pid"


# ------------------------------------------------------------- base + scheme

class TestSchemeController:
    def test_matches_paper_alpha_law(self):
        ctrl = started(SchemeController(use_history=True))
        view = make_view([4.0], cumulative_ipc=[4.0])
        scales = ctrl.on_epoch(StubCtx(1), view)
        assert scales == {0: min(ALPHA_CAP, max(1.0, 10.0 / 4.0))}

    def test_zero_history_boosts_to_cap(self):
        ctrl = started(SchemeController(use_history=True))
        scales = ctrl.on_epoch(StubCtx(1), make_view([0.0]))
        assert scales == {0: ALPHA_CAP}

    def test_naive_family_is_constant_one(self):
        ctrl = started(SchemeController(use_history=False))
        scales = ctrl.on_epoch(StubCtx(1), make_view([0.1]))
        assert scales == {0: 1.0}

    def test_base_controller_state_is_empty(self):
        ctrl = started(QuotaController())
        assert ctrl.on_epoch(StubCtx(1), make_view([1.0])) == {0: 1.0}
        assert ctrl.state(0) == ControllerState()

    def test_history_fallback_free_function(self):
        assert history_fallback_scale(10.0, 0.0, 8.0) == 8.0
        assert history_fallback_scale(10.0, 4.0, 8.0) == 2.5
        assert history_fallback_scale(10.0, 40.0, 8.0) == 1.0


# ---------------------------------------------------------------------- PID

class TestPIDController:
    def test_under_goal_boosts_scale(self):
        ctrl = started(PIDQuotaController())
        scales = ctrl.on_epoch(StubCtx(1), make_view([5.0]))
        assert scales[0] > 1.0

    def test_overshoot_shrinks_below_one_but_not_below_floor(self):
        ctrl = started(PIDQuotaController())
        floor = FAST_GPU.controller.alpha_floor
        scale = None
        for _ in range(30):
            scale = ctrl.on_epoch(StubCtx(1), make_view([20.0]))[0]
        assert floor <= scale < 1.0

    def test_antiwindup_freezes_integral_at_the_rail(self):
        ctrl = started(PIDQuotaController())
        for _ in range(50):
            scales = ctrl.on_epoch(StubCtx(1), make_view([0.0]))
        assert scales[0] == FAST_GPU.controller.alpha_cap
        limit = FAST_GPU.controller.pid_integral_limit
        integral = ctrl.state(0).integral
        # Conditional integration: saturation stops accumulation well
        # before the hard clamp would.
        assert integral is not None and abs(integral) <= limit
        saturated = ctrl.on_epoch(StubCtx(1), make_view([0.0]))
        assert ctrl.state(0).integral == integral
        assert saturated[0] == FAST_GPU.controller.alpha_cap

    def test_recovers_after_windup(self):
        # After a starvation phase the controller must still respond to an
        # overshoot (the anti-windup property, end to end).
        ctrl = started(PIDQuotaController())
        for _ in range(20):
            ctrl.on_epoch(StubCtx(1), make_view([0.0]))
        for _ in range(30):
            scale = ctrl.on_epoch(StubCtx(1), make_view([20.0]))[0]
        assert scale < 1.0

    def test_state_carries_error_and_integral(self):
        ctrl = started(PIDQuotaController())
        ctrl.on_epoch(StubCtx(1), make_view([5.0]))
        state = ctrl.state(0)
        assert state.error == pytest.approx(0.5)
        assert state.integral is not None
        assert state.prediction is None

    def test_gains_change_the_output(self):
        hot = dataclasses.replace(FAST_GPU, controller=ControllerConfig(
            pid_kp=3.0))
        a = started(PIDQuotaController())
        b = started(PIDQuotaController(), config=hot)
        view = make_view([5.0])
        assert a.on_epoch(StubCtx(1), view) != b.on_epoch(StubCtx(1), view)


# ---------------------------------------------------------------------- MPC

class TestFitLine:
    def test_exact_on_linear_points(self):
        intercept, slope = fit_line([(1.0, 3.0), (2.0, 5.0), (3.0, 7.0)])
        assert intercept == pytest.approx(1.0)
        assert slope == pytest.approx(2.0)

    def test_degenerate_inputs_return_none(self):
        assert fit_line([]) is None
        assert fit_line([(1.0, 2.0)]) is None
        assert fit_line([(1.0, 2.0), (1.0, 4.0), (1.0, 6.0)]) is None


class TestMPCController:
    def test_falls_back_to_history_law_while_ring_is_short(self):
        ctrl = started(MPCQuotaController())
        view = make_view([4.0, 3.0], cumulative_ipc=[4.0, 3.0])
        scales = ctrl.on_epoch(StubCtx(2), view)
        assert scales[0] == history_fallback_scale(10.0, 4.0, ALPHA_CAP)
        assert ctrl.state(0).prediction is None

    def test_converges_onto_the_fitted_plant_model(self):
        # Plant: ipc = 2 * scale.  Once the ring holds enough varied
        # (scale, ipc) points the model is exact, and the optimiser should
        # pick a scale predicting ~goal (=10 -> scale ~5).
        ctrl = started(MPCQuotaController())
        ctx = StubCtx(2)
        cumulative = [2.0, 4.0, 4.5, 4.6, 4.7, 4.8]
        scales = {0: 1.0}
        for step in range(6):
            ipc = 2.0 * scales[0]
            view = make_view([ipc, 3.0],
                             cumulative_ipc=[cumulative[step], 3.0])
            scales = ctrl.on_epoch(ctx, view)
        assert scales[0] == pytest.approx(5.0, abs=0.6)
        prediction = ctrl.state(0).prediction
        assert prediction is not None
        assert prediction == pytest.approx(10.0, abs=1.0)

    def test_negative_slope_fit_falls_back(self):
        ctrl = started(MPCQuotaController())
        ctrl.tuning = FAST_GPU.controller
        ctrl._nonqos_indices = (1,)
        # Seed a ring whose fit says "more quota, less IPC" — noise.
        ctrl._ring[0] = [(1.0, 8.0), (2.0, 6.0), (3.0, 4.0), (4.0, 2.0)]
        view = make_view([2.0, 3.0], cumulative_ipc=[5.0, 3.0])
        scales = ctrl.on_epoch(StubCtx(2), view)
        assert scales[0] == history_fallback_scale(10.0, 5.0, ALPHA_CAP)

    def test_ring_is_bounded_by_history_window(self):
        ctrl = started(MPCQuotaController())
        for _ in range(3 * FAST_GPU.controller.mpc_history):
            ctrl.on_epoch(StubCtx(2), make_view([4.0, 3.0]))
        assert len(ctrl._ring[0]) == FAST_GPU.controller.mpc_history
        assert len(ctrl._nonqos_ring) == FAST_GPU.controller.mpc_history


# --------------------------------------------------- integration + telemetry

@pytest.fixture(scope="module")
def pid_record():
    runner = CaseRunner(FAST_GPU, 6000, telemetry=True)
    return runner.run_pair("sgemm", "lbm", 0.5, "pid")


class TestControllerPolicies:
    @pytest.mark.parametrize("name", CONTROLLER_NAMES)
    def test_results_identical_with_and_without_telemetry(self, name):
        lean = CaseRunner(FAST_GPU, 6000).run_pair("sgemm", "lbm", 0.5, name)
        full = CaseRunner(FAST_GPU, 6000,
                          telemetry=True).run_pair("sgemm", "lbm", 0.5, name)
        assert lean.kernels == full.kernels
        assert lean.cycles == full.cycles
        assert lean.evictions == full.evictions

    def test_controller_state_reaches_the_telemetry_stream(self, pid_record):
        states = [k for epoch in pid_record.telemetry
                  for k in epoch.kernels if k.ctrl_error is not None]
        assert states, "PID runs must expose ctrl_error in telemetry"
        assert any(k.ctrl_integral is not None for k in states)

    def test_scheme_policies_leave_controller_fields_none(self):
        runner = CaseRunner(FAST_GPU, 6000, telemetry=True)
        record = runner.run_pair("sgemm", "lbm", 0.5, "rollover")
        for epoch in record.telemetry:
            for kernel in epoch.kernels:
                assert kernel.ctrl_error is None
                assert kernel.ctrl_integral is None
                assert kernel.ctrl_prediction is None

    def test_controller_records_pass_schema_validation(self, pid_record):
        from repro.sim.telemetry import (
            epoch_record_to_dict,
            validate_epoch_dict,
        )
        for epoch in pid_record.telemetry:
            validate_epoch_dict(epoch_record_to_dict(epoch))

    def test_gain_presets_hash_into_cache_keys(self):
        from repro.harness.cache import case_key
        tuned = dataclasses.replace(FAST_GPU, controller=ControllerConfig(
            pid_kp=2.0))
        args = (("sgemm", "lbm"), (True, False), (0.5, None), "pid",
                6000, 1000)
        assert case_key(FAST_GPU, *args) != case_key(tuned, *args)


# --------------------------------------------------------- golden differential

GOLDEN = json.loads(GOLDEN_PATH.read_text())


class TestGoldenDifferential:
    """The scheme-behind-controller adaptation must be a refactor, not a
    behaviour change: every pre-seam record replays bit-identically."""

    @pytest.mark.parametrize("core", ["event", "scan"])
    def test_schemes_bit_identical_to_pre_seam_records(self, core,
                                                       scan_oracle):
        # The golden file holds identical "event" and "scan" entries.
        # "scan" runs the event core under the scan oracle (every SM
        # stepped every cycle) against the scan entries; "event" runs it
        # as shipped against the event entries.
        runner = CaseRunner(FAST_GPU, GOLDEN["cycles"])
        mismatches = []
        with scan_oracle() if core == "scan" else contextlib.nullcontext():
            for scheme in ("naive", "history", "elastic", "rollover"):
                for label, case in sorted(GOLDEN["cases"].items()):
                    record = runner.run_case(
                        tuple(case["names"]), tuple(case["qos"]),
                        tuple(case["goals"]), scheme)
                    current = json.loads(
                        json.dumps(dataclasses.asdict(record)))
                    key = f"{core}/{scheme}/{label}"
                    if current != GOLDEN["records"][key]:
                        mismatches.append(f"{core}/{scheme}/{label}")
        assert mismatches == []
