"""Built-in rule set of the ``repro lint`` analyzer.

Importing this package registers every rule with the
:mod:`repro.analysis.core` registry.  The catalog:

========  =========  ==========================================================
id        severity   invariant
========  =========  ==========================================================
DET001    error      no wall-clock reads on result paths
DET002    error      no process-global / unseeded RNGs
DET003    error      no iteration over sets (hash-randomised order)
DET005    error      no filesystem-order directory listings without ``sorted``
DET006    warning    ``.keys()`` iteration: sort when order can matter
DET008    error      timestamps never feed identity (ORDER BY / hashed keys)
FLOW001   error      no nondeterminism reaching identity sinks (interproc.)
FLOW002   error      no nondeterministic sort keys (flow-evaluated)
FLOW003   error      no nondeterminism recorded into telemetry
FLOAT001  warning    no order-sensitive float sums over unordered or pool input
EFFECT001 error      telemetry export paths never mutate engine state
EFFECT002 error      PolicyContext observation methods are side-effect-free
EFFECT003 error      policy code actuates only via the seam
LAY001    error      declarative import contracts (policy/engine/harness edges)
LAY002    error      no attribute assignment into a ``PolicyContext``
LAY003    error      no underscore-private access on a ``PolicyContext``
SALT001   error      cache code salt covers every result-affecting module
SALT002   warning    no stale entries in the cache code salt
========  =========  ==========================================================
"""

# Import order matters: the flow engine reuses determinism's source
# tables and the EFFECT rules reuse layering's seam helpers, so those
# two modules must initialise before flowrules/effects.
from repro.analysis.rules import determinism, layering  # noqa: F401
from repro.analysis.rules import effects, flowrules, saltcov
from repro.analysis.rules.effects import POLICY_CONTEXT_ACTUATORS
from repro.analysis.rules.layering import (
    IMPORT_CONTRACTS,
    POLICY_SIDE_PACKAGES,
    ImportContract,
    contracts_for,
)

__all__ = [
    "IMPORT_CONTRACTS",
    "POLICY_CONTEXT_ACTUATORS",
    "POLICY_SIDE_PACKAGES",
    "ImportContract",
    "contracts_for",
    "determinism",
    "effects",
    "flowrules",
    "layering",
    "saltcov",
]
