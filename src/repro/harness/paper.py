"""The paper's reported numbers, and shape checks against measurements.

Each figure has a :class:`ShapeCheck` list: the qualitative claims (who
wins, by roughly what factor, where schemes collapse) that a reproduction
must exhibit even when absolute numbers differ — our substrate is a
from-scratch simulator with synthetic workloads, not the authors' GPGPU-Sim
testbed.  This module is the one home of those claims.
:func:`evaluate_experiment` turns a measured
:class:`~repro.harness.experiments.ExperimentResult` into pass/fail
verdicts, and :func:`render_comparison` produces the EXPERIMENTS.md rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

#: Headline numbers as printed in the paper (Section 4).
PAPER_REPORTED = {
    "fig05": "over 700 of 900 cases missed, most within 5% of goal; "
             "successes overshoot by 1.3%",
    "fig06a": "QoSreach AVG: Spart 0.788, Naive 0.206, Rollover 0.884 "
              "(+12.2% over Spart)",
    "fig06b": "Rollover reaches goals 18.8% more often than Spart",
    "fig06c": "Rollover reaches goals 43.8% more often than Spart; Spart "
              "fails all 2x70% cases",
    "fig07": "both reach all C+C cases; Rollover > Spart for C+M and M+M; "
             "histo poor for both",
    "fig08a": "non-QoS throughput +15.9% over Spart (pairs), falling with "
              "goal",
    "fig08b": "+19.9% over Spart (trios, 1 QoS)",
    "fig08c": "+20.5% over Spart (trios, 2 QoS), >10x at hardest goals",
    "fig09": "QoS overshoot: Spart 1.116, Rollover 1.028",
    "fig10": "Rollover-Time within ~3% of Rollover on QoSreach",
    "fig11": "Rollover-Time degrades non-QoS throughput by 1.47x",
    "fig12": "at 56 SMs Spart improves but stays 4.76% below Rollover",
    "fig13": "at 56 SMs Rollover +30.65% non-QoS throughput",
    "fig14": "instructions/Watt +9.3% over Spart",
    "sec48a": "preemption overhead 1.93% of non-QoS throughput",
    "sec48b": "history adjustment covers 86.4% more cases",
    "sec48c": "static resource management +13.3% non-QoS throughput (M+M)",
    "table1": "Table 1 simulation parameters",
    "table2": "qualitative comparison with prior work",
}


@dataclass
class ShapeCheck:
    """One qualitative claim: description + measured verdict."""

    description: str
    holds: bool
    measured: str


def _avg(series: Dict, key: str) -> Optional[float]:
    return series.get(key, {}).get("AVG")


def _averages(rows: Dict[str, Dict[str, float]], metric: str) -> Dict:
    """``rows``' ``metric`` column as series averages, for :func:`_versus`."""
    return {name: {"AVG": row[metric]} for name, row in rows.items()}


def _versus(series: Dict, high: str, low: str, description: str,
            holds: Callable[[float, float], bool]) -> ShapeCheck:
    """A claim on two series' averages: ``holds(high AVG, low AVG)``."""
    first, second = _avg(series, high), _avg(series, low)
    return ShapeCheck(description, holds(first, second),
                      f"{high} {first:.3f} vs {low} {second:.3f}")


def evaluate_experiment(result) -> List[ShapeCheck]:
    """Shape checks for one measured experiment (empty if none defined)."""
    evaluator = _EVALUATORS.get(result.experiment_id)
    if evaluator is None:
        return []
    return evaluator(result.data)


# --------------------------------------------------------------- evaluators

def _eval_fig05(data) -> List[ShapeCheck]:
    histogram = data["histogram"]
    near = histogram["0-1%"] + histogram["1-5%"]
    far = histogram["10-20%"] + histogram["20+%"]
    overshoot = data.get("overshoot")
    checks = [
        ShapeCheck("a substantial share of cases miss even with history "
                   "adjustment",
                   data["missed"] / max(1, data["total"]) > 0.2,
                   f"{data['missed']}/{data['total']} missed"),
        ShapeCheck("near-misses (<=5%) dominate distant ones",
                   near >= far, f"near={near}, far={far}"),
    ]
    if overshoot is not None:
        checks.append(ShapeCheck("successful cases overshoot only slightly",
                                 overshoot < 1.15,
                                 f"overshoot {overshoot:.3f}"))
    return checks


def _eval_fig06a(data) -> List[ShapeCheck]:
    series = data["series"]
    naive = _avg(series, "naive")
    spart = _avg(series, "spart")
    rollover = _avg(series, "rollover")
    elastic = _avg(series, "elastic")
    return [
        ShapeCheck("Naive is by far the weakest scheme",
                   naive < min(spart, rollover, elastic) - 0.1,
                   f"naive {naive:.3f} vs others >= "
                   f"{min(spart, rollover, elastic):.3f}"),
        ShapeCheck("Naive misses most cases (paper: 20.6% reach)",
                   naive < 0.6, f"naive {naive:.3f}"),
        _versus(series, "rollover", "spart",
                "Rollover is competitive with or better than Spart",
                lambda rollover, spart: rollover >= spart - 0.05),
        ShapeCheck("Elastic and Rollover fix Naive's limitation",
                   elastic > naive and rollover > naive,
                   f"elastic {elastic:.3f}, rollover {rollover:.3f}"),
    ]


def _eval_trio(data, slack: float = 0.05) -> List[ShapeCheck]:
    return [_versus(data["series"], "rollover", "spart",
                    "Rollover >= Spart on QoSreach (scalability)",
                    lambda rollover, spart: rollover >= spart - slack)]


def _eval_fig07(data) -> List[ShapeCheck]:
    series = data["series"]
    rollover = series["rollover"]
    spart = series["spart"]
    return [
        ShapeCheck("C+C pairings are handled well under Rollover",
                   rollover["C+C"] >= 0.7,
                   f"rollover C+C {rollover['C+C']:.2f}"),
        ShapeCheck("Rollover holds M+M at least as well as Spart "
                   "(indirect bandwidth control)",
                   rollover["M+M"] >= spart["M+M"] - 0.1,
                   f"rollover {rollover['M+M']:.2f} vs spart "
                   f"{spart['M+M']:.2f}"),
        ShapeCheck("Rollover holds C+M at least as well as Spart",
                   rollover["C+M"] >= spart["C+M"] - 0.1,
                   f"rollover {rollover['C+M']:.2f} vs spart "
                   f"{spart['C+M']:.2f}"),
    ]


def _eval_throughput(data) -> List[ShapeCheck]:
    series = data["series"]
    if None in (_avg(series, "spart"), _avg(series, "rollover")):
        return [ShapeCheck("comparable non-QoS throughput measurable",
                           True, "one scheme met no goals at this scale")]
    return [_versus(series, "rollover", "spart",
                    "Rollover extracts at least Spart-level non-QoS "
                    "throughput",
                    lambda rollover, spart: rollover >= spart * 0.8)]


def _eval_fig08a(data) -> List[ShapeCheck]:
    goals = [value for label, value in data["series"]["rollover"].items()
             if label != "AVG" and value is not None]
    steps = [late - early for early, late in zip(goals, goals[1:])]
    return _eval_throughput(data) + [ShapeCheck(
        "Rollover's non-QoS throughput falls as the goal rises",
        all(step <= 0.15 for step in steps),
        " -> ".join(f"{value:.3f}" for value in goals))]


def _eval_fig09(data) -> List[ShapeCheck]:
    series = data["series"]
    spart = _avg(series, "spart")
    rollover = _avg(series, "rollover")
    return [
        ShapeCheck("Rollover's goal-meeting cases run at or above goal",
                   rollover is not None and rollover >= 1.0 - 1e-6,
                   f"rollover {rollover:.3f}"),
        ShapeCheck("Rollover overshoots goals far less than Spart",
                   rollover is not None and spart is not None
                   and rollover < spart,
                   f"rollover {rollover:.3f} vs spart {spart:.3f}"),
        ShapeCheck("Rollover overshoot is small ('just enough' resources)",
                   rollover is not None and rollover < 1.12,
                   f"rollover {rollover:.3f} (paper 1.028)"),
    ]


def _eval_fig10(data) -> List[ShapeCheck]:
    return [_versus(data["series"], "rollover", "rollover-time",
                    "prioritised time multiplexing matches Rollover's "
                    "QoSreach", lambda rollover, timed:
                    abs(rollover - timed) < 0.25)]


def _eval_fig11(data) -> List[ShapeCheck]:
    series = data["series"]
    if None in (_avg(series, "rollover"), _avg(series, "rollover-time")):
        return []
    return [_versus(series, "rollover", "rollover-time",
                    "overlapped execution beats time multiplexing on "
                    "non-QoS throughput", lambda rollover, timed:
                    rollover >= timed)]


def _eval_fig14(data) -> List[ShapeCheck]:
    series = data["series"]["improvement"]
    average = series.get("AVG")
    labels = [label for label in series if label != "AVG"]
    trend = (series[labels[-1]] is not None and series[labels[0]] is not None
             and series[labels[-1]] > series[labels[0]] - 0.01)
    return [
        ShapeCheck("efficiency advantage grows with goal difficulty",
                   trend, f"{series[labels[0]]:+.3f} -> "
                          f"{series[labels[-1]]:+.3f}"),
        ShapeCheck("no systematic efficiency loss vs Spart",
                   average is not None and average > -0.06,
                   f"AVG {average:+.3f} (paper +0.093)"),
    ]


def _eval_sec48a(data) -> List[ShapeCheck]:
    overhead = data.get("overhead")
    if overhead is None:
        return []
    return [ShapeCheck("preemption overhead is modest",
                       -0.1 < overhead < 0.5,
                       f"{overhead:+.3f} (paper 0.019)")]


def _eval_sec48b(data) -> List[ShapeCheck]:
    return [_versus(data["series"], "history", "naive",
                    "history adjustment reaches more goals than naive",
                    lambda history, naive: history >= naive)]


def _eval_sec48c(data) -> List[ShapeCheck]:
    gain = data.get("gain")
    if gain is None:
        return []
    return [ShapeCheck("static management loses under 25% of M+M non-QoS "
                       "throughput", gain > -0.25,
                       f"gain {gain:+.3f} (paper +0.133)")]


def _eval_ext_epoch_length(data) -> List[ShapeCheck]:
    values = list(data["series"]["rollover"].values())
    return [ShapeCheck("QoSreach stays flat across a 4x range of epoch "
                       "lengths", max(values) - min(values) <= 0.5,
                       f"range {max(values) - min(values):.3f}")]


def _eval_ext_scheduler(data) -> List[ShapeCheck]:
    gto = data["series"]["gto"]["QoSreach"]
    lrr = data["series"]["lrr"]["QoSreach"]
    return [
        ShapeCheck("the quota filter works over LRR about as well as GTO",
                   lrr >= gto - 0.5, f"lrr {lrr:.3f} vs gto {gto:.3f}"),
        ShapeCheck("Rollover reaches a healthy share of goals over LRR",
                   lrr > 0.3, f"lrr {lrr:.3f}"),
    ]


def _eval_ext_unmanaged(data) -> List[ShapeCheck]:
    return [_versus(data["series"], "rollover", "smk",
                    "quota management reaches more goals than unmanaged SMK",
                    lambda rollover, smk: rollover > smk)]


def _eval_ext_sharing_regimes(data) -> List[ShapeCheck]:
    fairness = _averages(data["summary"], "fairness")
    runner_up = max((regime for regime in fairness if regime != "fair-smk"),
                    key=lambda regime: fairness[regime]["AVG"])
    return [
        _versus(_averages(data["summary"], "STP"), "smk", "serial",
                "unmanaged SMK beats serial time multiplexing on STP",
                lambda smk, serial: smk > serial),
        _versus(fairness, "fair-smk", runner_up,
                "fairness-managed SMK has the highest fairness of the four "
                "regimes", lambda fair, other: fair >= other),
    ]


def _eval_ext_fusion(data) -> List[ShapeCheck]:
    fused, smk = data["fused_stp"], data["smk_stp"]
    return [
        ShapeCheck("fusion's throughput is in SMK's ballpark (its gap is "
                   "control)", fused > 0.4 * smk,
                   f"fused STP {fused:.3f} vs SMK {smk:.3f}"),
        ShapeCheck("SMK + Rollover delivers most per-kernel goals",
                   data["qos_reach"] > 0.5,
                   f"reach {data['qos_reach']:.3f}"),
    ]


def _eval_ext_controllers(data) -> List[ShapeCheck]:
    stp = _averages(data["aggregate"], "nonqos_stp")
    met = _averages(data["aggregate"], "qos_met_rate")
    return [
        _versus(stp, "pid", "rollover",
                "PID hands quota headroom back: its non-QoS STP is at "
                "least Rollover's", lambda pid, rollover: pid >= rollover),
        _versus(met, "pid", "rollover",
                "PID meets end-of-run goals at least as often as Rollover",
                lambda pid, rollover: pid >= rollover),
        _versus(met, "rollover", "naive",
                "Rollover meets more end-of-run goals than Naive",
                lambda rollover, naive: rollover > naive),
    ]


_EVALUATORS: Dict[str, Callable] = {
    "fig05": _eval_fig05,
    "fig06a": _eval_fig06a,
    "fig06b": _eval_trio,
    "fig06c": lambda data: _eval_trio(data, slack=0.0),
    "fig07": _eval_fig07,
    "fig08a": _eval_fig08a,
    "fig08b": _eval_throughput,
    "fig08c": _eval_throughput,
    "fig09": _eval_fig09,
    "fig10": _eval_fig10,
    "fig11": _eval_fig11,
    "fig12": _eval_trio,
    "fig13": _eval_throughput,
    "fig14": _eval_fig14,
    "sec48a": _eval_sec48a,
    "sec48b": _eval_sec48b,
    "sec48c": _eval_sec48c,
    "ext_epoch_length": _eval_ext_epoch_length,
    "ext_scheduler": _eval_ext_scheduler,
    "ext_unmanaged": _eval_ext_unmanaged,
    "ext_sharing_regimes": _eval_ext_sharing_regimes,
    "ext_fusion": _eval_ext_fusion,
    "ext_controllers": _eval_ext_controllers,
}


def render_comparison(result, checks: List[ShapeCheck]) -> str:
    """Markdown block for one experiment in EXPERIMENTS.md."""
    lines = [f"### {result.title}", ""]
    reported = PAPER_REPORTED.get(result.experiment_id)
    if reported:
        lines.append(f"*Paper:* {reported}")
        lines.append("")
    lines.append("```")
    lines.append(result.table)
    lines.append("```")
    if checks:
        lines.append("")
        lines.append("| shape claim | measured | holds |")
        lines.append("|---|---|---|")
        for check in checks:
            mark = "yes" if check.holds else "**no**"
            lines.append(f"| {check.description} | {check.measured} "
                         f"| {mark} |")
    lines.append("")
    return "\n".join(lines)
