"""One schema for the JSON records: derived from their dataclasses.

The per-epoch telemetry records (:mod:`repro.sim.telemetry`) and the
per-request serving records (:mod:`repro.serve.metrics`) travel as plain
dicts, through the case cache and as JSONL trace files.  The dataclass is
the schema: a :class:`RecordSchema`, built once when the defining module
is imported, reads the fields and type hints and derives from them

* the strict check (:meth:`RecordSchema.check`): exact key set and exact
  types, nested entries included, raising a ``ValueError`` that names the
  offending field;
* the dict codec (:meth:`RecordSchema.to_dict` /
  :meth:`RecordSchema.from_dict`).

:func:`write_jsonl` / :func:`read_jsonl` hold the trace format both record
kinds share: one ``{"kind": "meta", <version key>: <version>, ...}`` header
line carrying caller-supplied provenance, then one ``{"kind": <kind>, ...}``
line per record.  The reader checks every line strictly, so a stale or
hand-mangled trace fails loudly instead of decoding into garbage.

Field types understood: ``int`` and ``float`` (``bool`` is neither, and
``float`` also accepts an int), ``str``, ``bool``, ``Optional[...]`` of
those, and ``Tuple[<record>, ...]`` of a nested record dataclass (a JSON
list of objects).  Any other annotation raises ``TypeError`` when the
schema is built, so a field of a type the check cannot judge fails at
import instead of going unchecked.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from typing import IO, Any, Iterable, List, Mapping, Optional, Tuple

_NONE = type(None)

#: Scalar annotation -> (accepted types, rejected types, description).
_SCALARS = {
    int: ((int,), (bool,), "an int"),
    float: ((int, float), (bool,), "a number"),
    str: ((str,), (), "a str"),
    bool: ((bool,), (), "a bool"),
}


class RecordSchema:
    """The field plan of one record dataclass: check, decode, encode.

    ``fields`` holds ``(name, accepted, rejected, description)`` per
    dataclass field, in declaration order; ``nested`` pairs each
    ``Tuple[<record>, ...]`` field with the nested record's schema.
    """

    def __init__(self, cls: type) -> None:
        self.cls = cls
        self.names = tuple(field.name for field in dataclasses.fields(cls))
        self.keys = frozenset(self.names)
        hints = typing.get_type_hints(cls)
        fields = []
        nested = []
        for name in self.names:
            accepted, rejected, what, inner = _field_plan(cls, name,
                                                          hints[name])
            fields.append((name, accepted, rejected, what))
            if inner is not None:
                nested.append((name, inner))
        self.fields: Tuple[Tuple[str, tuple, tuple, str], ...] = tuple(fields)
        self.nested: Tuple[Tuple[str, RecordSchema], ...] = tuple(nested)

    def check(self, payload: Mapping[str, Any]) -> None:
        """Raise ``ValueError`` naming the first field where ``payload`` is
        not this record's dict form (exact key set, exact types)."""
        label = self.cls.__name__
        if payload.keys() != self.keys:
            got = set(payload)
            raise ValueError(
                f"{label} fields mismatch: missing={sorted(self.keys - got)} "
                f"extra={sorted(got - self.keys)}")
        for name, accepted, rejected, what in self.fields:
            value = payload[name]
            if not isinstance(value, accepted) or isinstance(value, rejected):
                raise ValueError(f"{label} field {name!r} must be {what}, "
                                 f"got {value!r}")
        for name, inner in self.nested:
            for entry in payload[name]:
                if not isinstance(entry, dict):
                    raise ValueError(f"{label} field {name!r} must hold "
                                     f"objects, got {entry!r}")
                inner.check(entry)

    def from_dict(self, payload: Mapping[str, Any]) -> Any:
        """The record ``payload`` encodes (unchecked: see :meth:`check`)."""
        values = dict(payload)
        for name, inner in self.nested:
            values[name] = tuple(inner.from_dict(entry)
                                 for entry in payload[name])
        return self.cls(**values)

    def to_dict(self, record: Any) -> dict:
        """JSON-ready dict form of ``record``."""
        values = {name: getattr(record, name) for name in self.names}
        for name, inner in self.nested:
            values[name] = [inner.to_dict(entry) for entry in values[name]]
        return values


def _field_plan(cls: type, name: str, hint: Any
                ) -> Tuple[tuple, tuple, str, Optional[RecordSchema]]:
    """``(accepted, rejected, description, nested schema)`` of one field."""
    args = typing.get_args(hint)
    optional = (typing.get_origin(hint) is typing.Union and len(args) == 2
                and _NONE in args)
    if optional:
        hint = args[0] if args[1] is _NONE else args[1]
        args = typing.get_args(hint)
    inner = None
    if hint in _SCALARS:
        accepted, rejected, what = _SCALARS[hint]
    elif (not optional and typing.get_origin(hint) is tuple
          and len(args) == 2 and args[1] is Ellipsis
          and dataclasses.is_dataclass(args[0])):
        accepted, rejected, what = (list, tuple), (), "a list"
        inner = RecordSchema(args[0])
    else:
        raise TypeError(f"{cls.__name__}.{name}: the record schema cannot "
                        f"check a field of type {hint!r}")
    if optional:
        accepted, what = accepted + (_NONE,), what + " or null"
    return accepted, rejected, what, inner


def write_jsonl(stream: IO[str], schema: RecordSchema,
                records: Iterable[Any], meta: Optional[Mapping], *,
                kind: str, version_key: str, version: int) -> int:
    """Write a meta header line plus one ``kind`` line per record; returns
    the record count.  ``meta`` cannot override the header's ``kind`` or
    version."""
    header = {**(meta or {}), "kind": "meta", version_key: version}
    stream.write(json.dumps(header, sort_keys=True) + "\n")
    count = 0
    for record in records:
        payload = schema.to_dict(record)
        payload["kind"] = kind
        stream.write(json.dumps(payload, sort_keys=True) + "\n")
        count += 1
    return count


def read_jsonl(stream: IO[str], schema: RecordSchema, *, kind: str,
               version_key: str, version: int, label: str
               ) -> Tuple[dict, List[Any]]:
    """Parse and strictly check a trace; returns ``(meta, records)``.

    Raises ``ValueError``, prefixed with ``label`` and the line number, on
    a missing or mismatched meta line, an unknown ``kind``, or any record
    line that fails :meth:`RecordSchema.check`.
    """
    meta: Optional[dict] = None
    records: List[Any] = []
    for line_no, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except ValueError as error:
            raise ValueError(f"{label} line {line_no}: not JSON ({error})")
        got = payload.get("kind") if isinstance(payload, dict) else None
        if meta is None:
            if got != "meta":
                raise ValueError(
                    f"{label} line {line_no}: expected a meta header line, "
                    f"got kind={got!r}")
            if payload.get(version_key) != version:
                raise ValueError(
                    f"{label} schema version {payload.get(version_key)!r} "
                    f"does not match expected {version}")
            meta = payload
            continue
        if got != kind:
            raise ValueError(f"{label} line {line_no}: unknown kind {got!r}")
        del payload["kind"]
        try:
            schema.check(payload)
        except ValueError as error:
            raise ValueError(f"{label} line {line_no}: {error}")
        records.append(schema.from_dict(payload))
    if meta is None:
        raise ValueError(f"{label} is empty: no meta header line")
    return meta, records
