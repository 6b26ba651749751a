"""Effect contracts on the architecture's seams (EFFECT001-003).

The flow engine (:mod:`repro.analysis.flow`) infers an effect summary
for every function, nested ones included: which parameters (or module
globals) it mutates, and whether it performs IO, transitively through
project calls.  These rules pin the seams the repo's PRs deliberately
built:

* ``EFFECT001`` — telemetry export paths (``repro.sim.records``,
  ``repro.sim.telemetry``, ``repro.trace.jsonl``/``render``) accumulate
  into *themselves* and write to their streams, but never mutate engine
  state handed to them: observability must stay observationally free.
* ``EFFECT002`` — ``PolicyContext`` observation methods are
  side-effect-free; only the declared actuation methods may mutate.
  The seam's whole point (PR 3) is that policies cannot perturb the
  engine by *looking* at it.
* ``EFFECT003`` — policy-side code that holds a ``PolicyContext``
  actuates only through it (mutating ``self`` and ``ctx`` is its job;
  mutating anything else, or doing IO, reaches around the seam).

Like every project rule, each contract skips silently when its anchor
modules are absent, so fixture trees and snippets lint cleanly.
"""

from __future__ import annotations

from typing import Iterator, List, Set

from repro.analysis.core import ERROR, Finding, Project, Rule, register
from repro.analysis.rules.layering import POLICY_SIDE_PACKAGES

# NB: ``repro.analysis.flow`` is imported inside the check methods —
# flow.py itself imports the determinism rule tables, so a module-level
# import here would cycle through the rules package.

#: PolicyContext methods that exist to mutate (the actuation surface +
#: construction + the engine-driven epoch bookkeeping hook).
POLICY_CONTEXT_ACTUATORS = frozenset({
    "__init__", "_advance_epoch", "add_quota", "flush_l1", "note_quota",
    "request_epoch_at", "request_preemption", "set_quota",
    "set_tb_target", "wake_all",
})

#: Telemetry/trace export modules governed by EFFECT001.
TELEMETRY_EXPORT_MODULES = (
    "repro.sim.records", "repro.sim.telemetry", "repro.trace.jsonl",
    "repro.trace.render",
)


def _mutation_text(tokens: List[str]) -> str:
    pretty = []
    for token in tokens:
        if token == "global":
            pretty.append("module-global state")
        else:
            pretty.append(f"parameter {token.split(':', 1)[1]!r}")
    return ", ".join(pretty)


@register
class TelemetryExportEffectRule(Rule):
    id = "EFFECT001"
    severity = ERROR
    scope = "project"
    summary = ("telemetry export paths must not mutate engine state: "
               "recorders accumulate into themselves and exporters "
               "write streams, nothing else changes")
    explain = """\
PR 3's telemetry is *observationally free*: enabling a recorder or
exporting a trace must not change a single simulation record.  The
exporter modules therefore get an inferred-effect contract: a function
in repro.sim.records / repro.sim.telemetry / repro.trace.jsonl /
repro.trace.render may mutate its own object (``self``) and perform IO
(that is its job), but may not mutate any other parameter or
module-global state — a recorder that pokes the engine object it was
handed would make telemetry participation change results.

Example finding:

    EFFECT001 telemetry export path mutates engine state:
    TelemetryRecorder.open_epoch mutates parameter 'engine'
    (telemetry must stay observationally free)

Fix by copying what you need into the record instead of writing back."""

    def check_project(self, project: Project) -> Iterator[Finding]:
        from repro.analysis.flow import project_flow
        if not any(project.module(name) is not None
                   for name in TELEMETRY_EXPORT_MODULES):
            return
        flow = project_flow(project)
        for qname, info in sorted(flow.callgraph.functions.items()):
            if not any(info.module.name == name
                       or info.module.name.startswith(name + ".")
                       for name in TELEMETRY_EXPORT_MODULES):
                continue
            facts = flow.facts_for(qname)
            receiver = info.receiver_param
            banned = sorted(
                token for token in facts.mutates
                if token != (f"param:{receiver}" if receiver else None))
            if banned:
                yield self.finding(
                    info.module, info.line,
                    f"telemetry export path mutates engine state: "
                    f"{_short(qname)} mutates {_mutation_text(banned)} "
                    "(telemetry must stay observationally free)")


@register
class PolicyContextPurityRule(Rule):
    id = "EFFECT002"
    severity = ERROR
    scope = "project"
    summary = ("PolicyContext observation methods are side-effect-free; "
               "only the declared actuation methods mutate")
    explain = """\
The PolicyContext seam exposes two method families: observations
(quota_attainment, live_tb_count, ...) that policies may call freely
while deciding, and actuations (set_quota, request_preemption, ...)
that apply a decision.  The observation family must be inferred
side-effect-free — no mutation of anything, no IO — because policies
call observers at arbitrary points and an observer with a side effect
would make *reading* the engine change it.  The actuation surface is
the explicit allowlist POLICY_CONTEXT_ACTUATORS in
repro.analysis.rules.effects; extending the seam means extending the
list (a one-line, reviewable change).

Example finding:

    EFFECT002 PolicyContext.quota_attainment is an observation method
    but mutates parameter 'self'; observation must be side-effect-free
    (actuators are declared in POLICY_CONTEXT_ACTUATORS)"""

    def check_project(self, project: Project) -> Iterator[Finding]:
        from repro.analysis.flow import project_flow
        if project.module("repro.sim.policy") is None:
            return
        flow = project_flow(project)
        for qname, info in sorted(flow.callgraph.functions.items()):
            if info.class_qname != "repro.sim.policy.PolicyContext":
                continue
            method = info.name
            if method in POLICY_CONTEXT_ACTUATORS:
                continue
            facts = flow.facts_for(qname)
            problems = []
            if facts.mutates:
                problems.append(
                    f"mutates {_mutation_text(sorted(facts.mutates))}")
            if facts.io:
                problems.append("performs IO")
            if problems:
                yield self.finding(
                    info.module, info.line,
                    f"PolicyContext.{method} is an observation method "
                    f"but {' and '.join(problems)}; observation must be "
                    "side-effect-free (actuators are declared in "
                    "POLICY_CONTEXT_ACTUATORS)")


@register
class PolicySeamEffectRule(Rule):
    id = "EFFECT003"
    severity = ERROR
    scope = "project"
    summary = ("policy-side code actuates only through the seam (self + "
               "ctx mutation, no IO)")
    explain = """\
Decisions flow through the seam: a policy-side function (repro.qos /
repro.baselines / repro.sharing / repro.controllers / repro.trace) that
takes a PolicyContext may mutate its own state and actuate through the
context, but an inferred mutation of anything else — or IO — means it
is reaching around the seam the layering rules fence syntactically.

Example finding:

    EFFECT003 QoSPolicy.on_epoch_start takes a PolicyContext but
    mutates module-global state; policy decisions must actuate only
    via self/ctx (the PolicyContext seam)"""

    def check_project(self, project: Project) -> Iterator[Finding]:
        from repro.analysis.flow import project_flow
        if not any(module.name.startswith(POLICY_SIDE_PACKAGES)
                   for module in project.modules):
            return
        flow = project_flow(project)
        for qname, info in sorted(flow.callgraph.functions.items()):
            if not info.module.name.startswith(POLICY_SIDE_PACKAGES):
                continue
            ctx_names = info.ctx_params
            if not ctx_names:
                continue
            facts = flow.facts_for(qname)
            allowed: Set[str] = {f"param:{name}" for name in ctx_names}
            if info.receiver_param:
                allowed.add(f"param:{info.receiver_param}")
            banned = sorted(set(facts.mutates) - allowed)
            problems = []
            if banned:
                problems.append(f"mutates {_mutation_text(banned)}")
            if facts.io:
                problems.append("performs IO")
            if problems:
                yield self.finding(
                    info.module, info.line,
                    f"{_short(qname)} takes a PolicyContext but "
                    f"{' and '.join(problems)}; policy decisions must "
                    "actuate only via self/ctx (the PolicyContext seam)")


def _short(qname: str) -> str:
    parts = qname.rsplit(".", 2)
    return ".".join(parts[-2:]) if len(parts) >= 2 else qname
