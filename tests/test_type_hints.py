"""Every class and method annotation in the package must resolve.

Most modules use ``from __future__ import annotations``, which keeps
annotations as strings: a name used only in an annotation and never
imported goes unnoticed until something evaluates it —
``typing.get_type_hints``, dataclass tooling, a documentation build.
"""

import importlib
import inspect
import pkgutil
import typing

import repro


def _annotated_targets():
    """``(dotted name, object)`` for every class a ``repro`` module defines
    and every function defined in such a class."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for name, cls in sorted(vars(module).items()):
            if not inspect.isclass(cls) or cls.__module__ != module.__name__:
                continue
            yield f"{module.__name__}.{name}", cls
            for attr, member in sorted(vars(cls).items()):
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                if inspect.isfunction(member):
                    yield f"{module.__name__}.{name}.{attr}", member


def test_every_class_and_method_annotation_resolves():
    unresolved = []
    for label, target in _annotated_targets():
        try:
            typing.get_type_hints(target)
        except NameError as error:
            unresolved.append(f"{label}: {error}")
    assert unresolved == []
