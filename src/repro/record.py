"""Immutable records the simulator builds per request, segment and
connection.

:func:`record` declares a class a ``dataclass(frozen=True,
slots=True)`` whose ``__init__`` stores each field through its slot
descriptor.  The ``__init__`` a frozen dataclass generates makes one
generic ``object.__setattr__`` call per field (its own ``__setattr__``
raises), and building the records took about a fifth of a
collection's CPU time; a slot descriptor's ``__set__`` stores the
value directly.

Everything else is the dataclass's: the fields and their defaults,
``__post_init__`` validation (run last, as the generated ``__init__``
runs it), ``__eq__``, ``__hash__``, ``__repr__``,
``dataclasses.replace`` and ``asdict``, pickling and copying.
Assignment and deletion raise ``FrozenInstanceError``, as a frozen
dataclass's do.  An instance has no ``__dict__``.

Only fields the initializer can store as passed are accepted: a field
with a ``default_factory``, ``init=False`` or ``kw_only``, or an
``InitVar``, raises ``TypeError`` at class creation.
"""

from __future__ import annotations

import dataclasses
import inspect

__all__ = ["record"]


def record(cls: type) -> type:
    """Declare ``cls`` a frozen, slotted dataclass with a direct
    ``__init__`` (the module docstring says what that keeps)."""
    cls = dataclasses.dataclass(frozen=True, slots=True)(cls)
    fields = dataclasses.fields(cls)
    for f in fields:
        where = f"{cls.__name__}.{f.name}"
        if f.default_factory is not dataclasses.MISSING:
            raise TypeError(f"{where}: a record field cannot have a default_factory")
        if not f.init:
            raise TypeError(f"{where}: a record field must be set by __init__")
        if f.kw_only:
            raise TypeError(f"{where}: a record field cannot be keyword-only")
    names = [f.name for f in fields]
    # An InitVar is an ``__init__`` parameter that is not a field.
    params = list(inspect.signature(cls.__init__).parameters)[1:]
    if params != names:
        extra = ", ".join(p for p in params if p not in names)
        raise TypeError(f"{cls.__name__}: a record cannot take InitVar parameters ({extra})")

    namespace = {}
    args, body = ["self"], []
    for f in fields:
        namespace[f"_set_{f.name}"] = cls.__dict__[f.name].__set__
        if f.default is dataclasses.MISSING:
            args.append(f.name)
        else:
            namespace[f"_default_{f.name}"] = f.default
            args.append(f"{f.name}=_default_{f.name}")
        body.append(f"    _set_{f.name}(self, {f.name})")
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    exec(f"def __init__({', '.join(args)}):\n" + "\n".join(body), namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    cls.__init__ = init
    # The dataclass's frozen ``__setattr__`` and ``__delattr__`` compare
    # ``type(self)`` with the class ``slots=True`` replaced, so for a
    # name that is not a field they raised ``TypeError``.
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    return cls


def _frozen_setattr(self, name, value):
    raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")
