"""Flow-sensitive determinism rules (FLOW001-003, FLOAT001).

Where the syntactic DET rules flag a source wherever it appears, these
fire when a nondeterministic value reaches a sink: they re-emit findings
from the project-wide taint analysis in :mod:`repro.analysis.flow`, so
one helper function of indirection between ``time.time()`` and a
cache-key digest no longer hides the bug.  Every finding message
carries the full source→sink trace (``repro lint --explain FLOW001``
shows an example).

The rules themselves are thin: the engine runs once per project (shared
across all four rules and the EFFECT rules via
:func:`~repro.analysis.flow.project_flow`) and each rule yields the raw
findings recorded under its id.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.core import ERROR, WARNING, Finding, Project, Rule, register


class _ProjectFlowRule(Rule):
    """Base: re-emit the flow engine's findings for this rule id."""

    scope = "project"

    def check_project(self, project: Project) -> Iterator[Finding]:
        # Imported here, not at module level: flow.py reuses the
        # determinism rule tables, so a module-level import would cycle
        # through the rules package back into a half-initialized flow.
        from repro.analysis.flow import project_flow
        flow = project_flow(project)
        for module, line, message in flow.findings_for(self.id):
            yield self.finding(module, line, message)


@register
class TaintedIdentityRule(_ProjectFlowRule):
    id = "FLOW001"
    severity = ERROR
    summary = ("nondeterministic value reaches an identity sink "
               "(digest/hash/cache-key construction), tracked through "
               "assignments, f-strings, returns and call summaries")
    explain = """\
Cache keys, spec hashes and experiment ids must be pure functions of
the experiment content: the persistent case cache, the SQLite
experiment store and sweep resume all assume that re-deriving the key
reproduces it bit-identically.  DET001/DET002/DET008 catch a wall-clock
or RNG read *syntactically at* the sink; FLOW001 follows the value
through locals, f-strings, returns and helper calls, so indirection no
longer hides the bug.

Sources: wall-clock reads, unseeded RNGs, ``id()``, filesystem-order
listings, set-order iteration.  Sinks: ``hashlib.*`` calls, calls whose
name contains ``digest``/``hash``/``key``, and ``.update(...)`` on a
digest-named object.  Sanitizers end the taint: ``sorted(...)`` strips
order provenance, a seeded RNG is never a source.

Example finding (two helpers between source and sink):

    wall-clock read time.time() [pipeline.py:6]
      -> returned via stamp() [pipeline.py:12]
      -> through label() [pipeline.py:12]
      -> passed to case_key() [pipeline.py:18]
      -> reaches identity sink sha256() [pipeline.py:15]

Fix by deriving the value from run *content* (spec fields, seeds,
sorted inputs), not from when/where the run happens."""


@register
class TaintedSortKeyRule(_ProjectFlowRule):
    id = "FLOW002"
    severity = ERROR
    summary = ("nondeterministic sort key: the key= of "
               "sorted/sort/min/max evaluates a tainted value, so the "
               "resulting order varies between runs")
    explain = """\
Result ordering feeds figures, sweep grids and the experiment store, so
an ordering decided by a nondeterministic key silently reorders results
between identical runs.  FLOW002 evaluates the ``key=`` of
sorted/sort/min/max and heapq's nsmallest/nlargest/merge under the
taint environment: the builtin ``id`` itself, a lambda body, or a named
helper's return summary, so ``key=id``, ``key=lambda k: id(k)`` and a
helper that reads the clock are all caught, in any code body.

Example finding:

    id() (address-dependent) [order.py:12]
      -> orders via sort key of sorted() [order.py:12]

Fix by keying on stable content (names, indices, spec fields)."""


@register
class TaintedTelemetryRule(_ProjectFlowRule):
    id = "FLOW003"
    severity = ERROR
    summary = ("nondeterministic value recorded into telemetry "
               "(EpochRecord fields, note_quota, write_trace): traces "
               "must replay bit-identically")
    explain = """\
Telemetry is part of the reproduction's observable output: the JSONL
exporter promises that two identical runs produce byte-identical
traces, and the differential tests compare records with an
every-cycle oracle run.  A wall-clock or RNG-derived value stored into
an epoch record breaks that silently — the schema still validates.

Sinks: telemetry record constructors (``EpochRecord``,
``KernelEpochRecord``, ``TBMove``, any project ``*Record`` class),
``note_quota`` and ``write_trace``.

Example finding:

    wall-clock read time.time() [collector.py:15]
      -> recorded by telemetry record note_quota() [collector.py:15]

Fix by recording simulation-derived quantities (cycles, epoch indices,
counters); wall-clock provenance belongs in the meta header, keyed as
operator information, never in per-epoch records."""


@register
class FloatAccumulationRule(_ProjectFlowRule):
    id = "FLOAT001"
    severity = WARNING
    summary = ("order-sensitive float accumulation (+=/sum) over an "
               "unordered or parallel-worker-produced iterable: float "
               "addition is not associative — use math.fsum or sort "
               "first")
    explain = """\
Float addition is not associative: summing the same values in a
different order changes the last few bits, which is exactly the kind
of drift the record-identity tests exist to catch.  FLOAT001 uses the
dataflow shapes, so it catches

* ``sum(...)`` over parallel-worker results (``.sweep``, ``.map``,
  ``.imap``, ``.starmap`` and their ``_async`` forms) or over
  ``.imap_unordered``, directly, through a variable or a comprehension,
* ``sum(...)`` over an unordered set or a filesystem listing, including
  one returned by a helper function,
* ``+=`` accumulation of a float inside a loop over any of those.

Example finding:

    order-sensitive float accumulation: 'total' is summed with += over
    an unordered set; float addition is not associative — use
    math.fsum(...) over a sorted(...) iterable

``math.fsum`` is correctly rounded and therefore order-robust; sorting
the iterable first pins the order instead.  Both are modeled as
sanitizers, so the mediated twin of a finding analyses clean."""
