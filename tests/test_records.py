"""Record classes against the stdlib ``dataclass(frozen=True)`` twins of their declarations.

Each of the package's 29 record classes is compared with a frozen
dataclass built here from the same annotations, defaults and field
metadata: ``repr``, ``==``, ``hash``, ``__match_args__``, the signature
once an instance has been built, the ``TypeError`` of a bad call, and the
refusal to assign or delete.  The helpers of :mod:`dataclasses` work on
each record class, and an instance survives ``copy`` and ``pickle``.
"""

from __future__ import annotations

import copy
import dataclasses
import importlib
import inspect
import pickle

import pytest

from stride._records import FrozenInstanceError

MODULES = ("model", "delta", "sampling", "scoring", "runstore")


def _record_classes() -> list[type]:
    found = []
    for name in MODULES:
        module = importlib.import_module(f"stride.{name}")
        found += [
            value
            for value in vars(module).values()
            if isinstance(value, type) and value.__module__ == module.__name__ and "__record_fields__" in vars(value)
        ]
    return found


CLASSES = _record_classes()


def _twin(cls: type) -> type:
    """``cls`` declared anew as a frozen dataclass: its annotations, its defaults and its fields' metadata."""
    namespace = {"__annotations__": dict(vars(cls)["__annotations__"]), "__qualname__": cls.__qualname__}
    for spec in cls.__record_fields__:
        default = vars(cls).get(spec.name, dataclasses.MISSING)
        namespace[spec.name] = dataclasses.field(default=default, metadata=spec.metadata or None)
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), namespace))


def _sample(cls: type) -> tuple[type, list[str], list[tuple]]:
    """``cls``'s twin, its field names, and a value per field, each hashable and distinct."""
    names = [spec.name for spec in cls.__record_fields__]
    return _twin(cls), names, [("value", n) for n in range(len(names))]


def _error(call, *args, **kwargs) -> tuple[type, str]:
    with pytest.raises(Exception) as caught:
        call(*args, **kwargs)
    return type(caught.value), str(caught.value)


def test_every_record_class_is_found():
    assert len(CLASSES) == 29
    assert sum(cls.__module__ == "stride.model" for cls in CLASSES) == 14


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_record_class_behaves_as_its_dataclass_twin(cls):
    twin, names, values = _sample(cls)
    ours, theirs = cls(*values), twin(*values)

    assert repr(ours) == repr(theirs)
    assert cls.__match_args__ == twin.__match_args__ == tuple(names)
    assert inspect.signature(cls) == inspect.signature(twin)
    assert str(inspect.signature(cls)) == str(inspect.signature(twin))
    assert cls(**dict(zip(names, values))) == ours
    assert ours == cls(*values) and not ours != cls(*values)
    assert ours != cls(*values[:-1], ("other",))
    assert ours.__eq__(theirs) is NotImplemented
    assert hash(ours) == hash(theirs) == hash(cls(*values))

    # A missing, an unexpected and a repeated argument.
    assert _error(cls) == _error(twin)
    assert _error(cls, *values, surplus=1) == _error(twin, *values, surplus=1)
    assert _error(cls, *values, **{names[0]: 1}) == _error(twin, *values, **{names[0]: 1})
    assert _error(cls, *values, 1) == _error(twin, *values, 1)

    assert issubclass(FrozenInstanceError, AttributeError)
    for name in (names[0], "not_a_field"):
        assert _error(setattr, ours, name, 1) == (FrozenInstanceError, _error(setattr, theirs, name, 1)[1])
        assert _error(delattr, ours, name) == (FrozenInstanceError, _error(delattr, theirs, name)[1])
    assert getattr(ours, names[0]) == values[0]

    assert copy.copy(ours) == ours and copy.deepcopy(ours) == ours
    assert pickle.loads(pickle.dumps(ours)) == ours


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_dataclasses_helpers_work_on_record_classes(cls):
    twin, names, values = _sample(cls)
    ours = cls(*values)

    assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(ours)
    shown = [(f.name, f.type, f.default, dict(f.metadata)) for f in dataclasses.fields(cls)]
    assert shown == [(f.name, f.type, f.default, dict(f.metadata)) for f in dataclasses.fields(twin)]
    assert dataclasses.fields(ours) == dataclasses.fields(cls)
    assert dataclasses.asdict(ours) == dataclasses.asdict(twin(*values)) == dict(zip(names, values))
    changed = dataclasses.replace(ours, **{names[-1]: "changed"})
    assert type(changed) is cls and changed == cls(*values[:-1], "changed")


def test_rule_metadata_reaches_the_dataclasses_fields():
    from stride.model import CoverageProfile, StrideReport

    coverage = {f.name: f for f in dataclasses.fields(CoverageProfile)}
    assert coverage["countries_covered"].metadata["at_most"] == "countries_total"
    assert coverage["standard_layers_total"].default == 5
    assert coverage["countries_total"].default is dataclasses.MISSING
    assert {f.name: f for f in dataclasses.fields(StrideReport)}["config_snapshot"].metadata["key"] == "config"

