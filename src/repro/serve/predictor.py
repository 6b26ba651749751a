"""Online prediction of kernel execution demand.

Section 3.2 assumes datacenter workloads are stable enough that "the total
number of instructions of the kernel ... can be accurately predicted by the
runtime or application with machine learning algorithms according to
previous work [Baymax]".  This module supplies that runtime piece: an
exponentially weighted online estimator of per-job demand with a
quantile-style safety margin.  :class:`repro.serve.dispatcher.SLOFeasibility`
feeds it each completed request's service cycles, so admission can judge a
request's SLO without being told exact job sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass
class DemandEstimate:
    """Predicted per-job demand for one request class."""

    mean: float
    deviation: float
    samples: int

    def with_margin(self, sigmas: float = 2.0) -> float:
        """Conservative prediction: mean plus ``sigmas`` mean deviations.

        Under-prediction admits requests that then miss their SLO and
        take capacity from feasible ones; over-prediction sheds a few
        requests that would have made it.  The margin errs toward
        over-prediction, the cheaper mistake.
        """
        return self.mean + sigmas * self.deviation


class OnlineDemandPredictor:
    """EWMA + mean-absolute-deviation estimator per request class."""

    def __init__(self, alpha: float = 0.25, warmup_samples: int = 3):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if warmup_samples < 1:
            raise ValueError("warmup_samples must be >= 1")
        self.alpha = alpha
        self.warmup_samples = warmup_samples
        self._means: Dict[str, float] = {}
        self._deviations: Dict[str, float] = {}
        self._counts: Dict[str, int] = {}

    def observe(self, app_name: str, instructions: float) -> None:
        """Record one completed job's actual demand (service cycles, as
        :class:`repro.serve.dispatcher.SLOFeasibility` feeds it)."""
        if instructions < 0:
            raise ValueError("demand cannot be negative")
        count = self._counts.get(app_name, 0)
        if count == 0:
            self._means[app_name] = instructions
            self._deviations[app_name] = 0.0
        else:
            mean = self._means[app_name]
            error = abs(instructions - mean)
            self._means[app_name] = (self.alpha * instructions
                                     + (1 - self.alpha) * mean)
            self._deviations[app_name] = (self.alpha * error
                                          + (1 - self.alpha)
                                          * self._deviations[app_name])
        self._counts[app_name] = count + 1

    def ready(self, app_name: str) -> bool:
        """Enough samples to trust the estimate?"""
        return self._counts.get(app_name, 0) >= self.warmup_samples

    def estimate(self, app_name: str) -> DemandEstimate:
        if app_name not in self._means:
            raise KeyError(f"no observations for {app_name!r}")
        return DemandEstimate(mean=self._means[app_name],
                              deviation=self._deviations[app_name],
                              samples=self._counts[app_name])
