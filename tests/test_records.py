"""The record schema is the dataclass (repro.sim.records).

Every field of ``EpochRecord``, ``KernelEpochRecord``, ``TBMove`` and
``RequestRecord`` is read from ``dataclasses.fields``, so a new field is
covered without editing this file.  Dropping a field, adding an unknown
key, or giving a field a value of the wrong type must raise a
``ValueError`` that names the field, both through the dict check and
through the JSONL reader.  Writing what was read reproduces the trace text.
"""

import copy
import dataclasses
import io
import json
import re
import typing
from typing import List, Optional, Tuple

import pytest

from repro.config import GPUConfig, SMConfig
from repro.kernels import get_kernel
from repro.qos import QoSPolicy
from repro.serve import (Dispatcher, PoissonArrivals, RequestClass,
                         RequestRecord, read_request_trace,
                         validate_request_dict, write_request_trace)
from repro.sim import GPUSimulator, LaunchedKernel, TelemetryRecorder
from repro.sim.records import RecordSchema
from repro.sim.telemetry import (EpochRecord, KernelEpochRecord, TBMove,
                                 validate_epoch_dict)
from repro.trace import read_trace, write_trace

GPU = GPUConfig(num_sms=2, num_mcs=1, epoch_length=500, idle_warp_samples=8,
                sm=SMConfig(warp_schedulers=2))

#: Trace format -> (dict check, JSONL writer, JSONL reader).
FORMATS = {
    "epoch": (validate_epoch_dict, write_trace, read_trace),
    "request": (validate_request_dict, write_request_trace,
                read_request_trace),
}

#: Record class -> (trace format, path from a record line to its dict).
TARGETS = {
    EpochRecord: ("epoch", ()),
    KernelEpochRecord: ("epoch", ("kernels", 0)),
    TBMove: ("epoch", ("tb_moves", 0)),
    RequestRecord: ("request", ()),
}

#: Values of the wrong type for each field type the schema supports.
WRONG = {
    int: ("1", 1.5, True),
    float: ("1.0", True),
    str: (1,),
    bool: (1, "true"),
    tuple: ("x", {}, [1], [None]),
}


def wrong_values(hint) -> tuple:
    """Wrong-typed values for a field, ``None`` included unless Optional."""
    args = typing.get_args(hint)
    optional = type(None) in args
    if optional:
        (hint,) = [arg for arg in args if arg is not type(None)]
    base = typing.get_origin(hint) or hint
    return WRONG[base] + (() if optional else (None,))


@pytest.fixture(scope="module")
def epoch_text() -> str:
    # The tiny machine under an aggressive goal moves TBs within 4000
    # cycles, so TBMove fields appear in the trace.
    sim = GPUSimulator(GPU, [
        LaunchedKernel(get_kernel("sgemm"), is_qos=True, ipc_goal=100.0),
        LaunchedKernel(get_kernel("lbm")),
    ], QoSPolicy("rollover"), telemetry=TelemetryRecorder())
    sim.run(4000)
    records = sim.finalize_telemetry()
    assert any(record.tb_moves for record in records)
    stream = io.StringIO()
    write_trace(stream, records, meta={"policy": "rollover"})
    return stream.getvalue()


@pytest.fixture(scope="module")
def request_text() -> str:
    classes = (RequestClass("rt", "mri-q", 8000, 1, 1.0),
               RequestClass("bg", "sad", 16000, 1, 1.0))
    result = Dispatcher(GPU, max_concurrent=1).serve(
        PoissonArrivals(classes, 2000.0, seed=7).generate(6000), 6000)
    stream = io.StringIO()
    write_request_trace(stream, result.records, meta={"case": "unit"})
    return stream.getvalue()


def _sample(text: str, path: tuple):
    """The header line and the first record line holding ``path``, parsed
    and without its ``kind``."""
    header, *lines = text.splitlines(True)
    for line in lines:
        payload = json.loads(line)
        del payload["kind"]
        try:
            _locate(payload, path)
        except IndexError:
            continue
        return header, payload
    raise AssertionError(f"no record line holds {path}")


def _locate(payload: dict, path: tuple) -> dict:
    for step in path:
        payload = payload[step]
    return payload


def _assert_rejected(fmt: str, header: str, payload: dict, name: str):
    validate, _write, read = FORMATS[fmt]
    named = re.escape(repr(name))
    with pytest.raises(ValueError, match=named):
        validate(payload)
    text = header + json.dumps({**payload, "kind": fmt}) + "\n"
    with pytest.raises(ValueError, match=f"line 2: .*{named}"):
        read(io.StringIO(text))


FIELD_CASES = [(cls, field.name) for cls in TARGETS
               for field in dataclasses.fields(cls)]


@pytest.mark.parametrize("cls,name", FIELD_CASES, ids=[
    f"{cls.__name__}.{name}" for cls, name in FIELD_CASES])
def test_each_field_is_required_and_typed(cls, name, request):
    fmt, path = TARGETS[cls]
    header, valid = _sample(request.getfixturevalue(f"{fmt}_text"), path)
    validate = FORMATS[fmt][0]
    validate(valid)

    dropped = copy.deepcopy(valid)
    del _locate(dropped, path)[name]
    _assert_rejected(fmt, header, dropped, name)

    for value in wrong_values(typing.get_type_hints(cls)[name]):
        mutated = copy.deepcopy(valid)
        _locate(mutated, path)[name] = value
        _assert_rejected(fmt, header, mutated, name)


@pytest.mark.parametrize("cls", list(TARGETS), ids=lambda cls: cls.__name__)
def test_unknown_key_is_rejected(cls, request):
    fmt, path = TARGETS[cls]
    header, valid = _sample(request.getfixturevalue(f"{fmt}_text"), path)
    _locate(valid, path)["surprise"] = 1
    _assert_rejected(fmt, header, valid, "surprise")


@pytest.mark.parametrize("fmt", list(FORMATS))
def test_writing_what_was_read_reproduces_the_text(fmt, request):
    text = request.getfixturevalue(f"{fmt}_text")
    _validate, write, read = FORMATS[fmt]
    meta, records = read(io.StringIO(text))
    assert records
    stream = io.StringIO()
    assert write(stream, records, meta=meta) == len(records)
    assert stream.getvalue() == text


@pytest.mark.parametrize("field", ["kernels", "tb_moves"])
@pytest.mark.parametrize("entries", ["[1]", "[null]"])
def test_read_trace_rejects_non_object_entries(field, entries, epoch_text):
    header, line = epoch_text.splitlines(True)[:2]
    payload = json.loads(line)
    payload[field] = json.loads(entries)
    with pytest.raises(ValueError, match=f"trace line 2: .*'{field}'"):
        read_trace(io.StringIO(header + json.dumps(payload) + "\n"))


@pytest.mark.parametrize("hint", [List[int], Optional[Tuple[TBMove, ...]]],
                         ids=["list", "optional-nested"])
def test_unsupported_field_type_fails_when_the_schema_is_built(hint):
    Unsupported = dataclasses.make_dataclass("Unsupported", [("values", hint)])
    with pytest.raises(TypeError, match="Unsupported.values"):
        RecordSchema(Unsupported)
