"""Record classes: frozen containers built from their annotated fields.

:func:`record` reads a class's annotations and defaults once, into the
field list ``__record_fields__`` that the codecs and rule checks are built
from, and gives the class the methods and ``__match_args__`` that
``dataclass(frozen=True)`` writes.  Only ``__init__`` is compiled, on the
first construction; ``dataclasses.fields``, ``replace``, ``asdict`` and
``is_dataclass`` work through a ``__dataclass_fields__`` built on first access.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable

MISSING: Any = object()  # the default of a field without one


class FrozenInstanceError(AttributeError):
    """A record's field was assigned or deleted."""


class Field:
    """A record field; in a class body, it declares the field's default and metadata."""

    def __init__(self, default: Any = MISSING, metadata: dict | None = None) -> None:
        self.name = self.type = ""  # the type is the annotation as written
        self.default, self.metadata = default, metadata or {}


def _compiled(name: str, lines: list[str], namespace: dict) -> Callable:
    """The function ``name`` that ``lines`` define, compiled with ``namespace`` as its globals."""
    exec(compile("\n".join(lines), f"<stride {name}>", "exec"), namespace)
    return namespace[name]


class _DataclassFields:
    """A record class's ``__dataclass_fields__``, those of a stdlib twin built on first access."""

    def __get__(self, obj: object, cls: type) -> dict:
        from dataclasses import MISSING as absent, field, make_dataclass

        specs = [  # a default is read as the stdlib reads it, from the class
            (f.name, f.type, field(default=getattr(cls, f.name, absent), metadata=f.metadata))
            for f in cls.__record_fields__
        ]
        cls.__dataclass_fields__ = make_dataclass(cls.__name__, specs, frozen=True).__dataclass_fields__
        return cls.__dataclass_fields__


def record(cls: type) -> type:
    """Make ``cls`` a frozen record class of its annotated fields, as ``dataclass(frozen=True)`` would."""
    fields = []
    for name, annotation in cls.__dict__.get("__annotations__", {}).items():
        spec = cls.__dict__.get(name, MISSING)
        if not isinstance(spec, Field):
            spec = Field(spec)
        elif spec.default is MISSING:  # the class keeps a field's default only, as a dataclass does
            delattr(cls, name)
        else:
            setattr(cls, name, spec.default)
        spec.name, spec.type = name, annotation
        fields.append(spec)
    names = cls.__match_args__ = tuple(f.name for f in fields)
    cls.__record_fields__ = tuple(fields)
    get = attrgetter(*names)
    values = get if len(names) > 1 else lambda self: (get(self),)

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        # Compiles the stdlib's __init__: a parameter per field, each set through object.__setattr__.
        namespace = {"__set": object.__setattr__, **{f"__default_{f.name}": f.default for f in fields}}
        params = [f.name if f.default is MISSING else f"{f.name}=__default_{f.name}" for f in fields]
        lines = [f"def __init__(self, {', '.join(params)}):", *(f" __set(self, {f.name!r}, {f.name})" for f in fields)]
        init = cls.__init__ = _compiled("__init__", lines, namespace)
        init.__annotations__ = {**{f.name: f.type for f in fields}, "return": None}
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        init(self, *args, **kwargs)

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, values(self)))
        return f"{self.__class__.__qualname__}({shown})"

    def __eq__(self, other: object) -> bool:
        return values(self) == values(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(values(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    for method in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__dataclass_fields__ = _DataclassFields()
    return cls
