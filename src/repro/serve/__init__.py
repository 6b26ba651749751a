"""Online serving on the simulated GPU: arrivals, dispatch, SLO scoring.

The paper evaluates fine-grained sharing between co-runs fixed at cycle 0;
this package puts the same machine behind a datacenter-style open-loop
front end.  :mod:`repro.serve.arrivals` generates seeded request streams in
the cycle domain, :mod:`repro.serve.dispatcher` queues them, applies
admission control and drives the engine's mid-run launch/retire path, and
:mod:`repro.serve.metrics` scores the per-request outcomes (latency
percentiles, SLO attainment) and round-trips them as JSONL.
:mod:`repro.serve.predictor` learns per-class service demand online (the
Section 3.2 assumption that job sizes are predictable, as in Baymax) for
SLO-feasibility admission.

Harness integration (memoised runs, cached and resumable load sweeps)
lives in :mod:`repro.serve.runner`; the ``repro serve`` command in
:mod:`repro.serve.cli`.  Both are imported lazily by their entry points,
not re-exported here, so importing :mod:`repro.serve` stays cheap.
"""

from repro.serve.arrivals import (ArrivalProcess, BurstyArrivals,
                                  DiurnalArrivals, PeriodicArrivals,
                                  PoissonArrivals, Request, RequestClass,
                                  request_from_dict, trace_arrivals)
from repro.serve.dispatcher import (DEFAULT_MAX_CONCURRENT, AdmissionPolicy,
                                    AlwaysAdmit, Dispatcher, QueueCap,
                                    ServeResult, SLOFeasibility)
from repro.serve.metrics import (REQUEST_SCHEMA_VERSION, RequestRecord,
                                 class_summary, latency_cdf, percentile,
                                 read_request_trace, request_record_from_dict,
                                 request_record_to_dict, validate_request_dict,
                                 write_request_trace)

__all__ = [
    "ArrivalProcess", "BurstyArrivals", "DiurnalArrivals", "PeriodicArrivals",
    "PoissonArrivals", "Request", "RequestClass", "request_from_dict",
    "trace_arrivals",
    "DEFAULT_MAX_CONCURRENT", "AdmissionPolicy", "AlwaysAdmit", "Dispatcher",
    "QueueCap", "ServeResult", "SLOFeasibility",
    "REQUEST_SCHEMA_VERSION", "RequestRecord", "class_summary", "latency_cdf",
    "percentile", "read_request_trace", "request_record_from_dict",
    "request_record_to_dict", "validate_request_dict", "write_request_trace",
]
