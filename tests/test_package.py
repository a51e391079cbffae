import collections.abc
import dataclasses
import importlib
import inspect
import pkgutil
import typing

import numpy as np

import lportho
from lportho.toeplitz_preconditioning import CirculantMatrix, ToeplitzOperator, ToeplitzSymbol


def package_dataclasses():
    """Every dataclass defined in an lportho module."""
    for info in pkgutil.iter_modules(lportho.__path__):
        module = importlib.import_module(f"lportho.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__:
                yield cls


def test_no_dataclass_takes_a_private_field_as_an_argument():
    # A field that construction computes (a cached spectrum, a kernel) is
    # init=False: a caller cannot pass one that disagrees with the data,
    # and dataclasses.replace computes it again for the new data.
    classes = set(package_dataclasses())
    assert {CirculantMatrix, ToeplitzOperator} <= classes
    private = sorted(
        f"{cls.__name__}.{f.name}" for cls in classes for f in dataclasses.fields(cls) if f.name.startswith("_") and f.init
    )
    assert private == []


def holds_an_array_or_mapping(hint) -> bool:
    """The type hint names np.ndarray or a mapping, itself or in a dataclass
    it names."""
    if hint is np.ndarray or hint is dict or typing.get_origin(hint) in (dict, collections.abc.Mapping):
        return True
    if dataclasses.is_dataclass(hint):
        return any(map(holds_an_array_or_mapping, typing.get_type_hints(hint).values()))
    return any(map(holds_an_array_or_mapping, typing.get_args(hint)))


def test_no_array_takes_part_in_equality():
    # == on an array is elementwise, so a generated __eq__ that compares one
    # raises ("truth value ... is ambiguous") and its __hash__ raises
    # TypeError; a generated __hash__ over a mapping raises TypeError too. A
    # frozen dataclass that holds an array or a mapping, itself or in a
    # dataclass field, is eq=False: == and hash() are identity.
    compared = sorted(
        f"{cls.__name__}.{f.name}"
        for cls in package_dataclasses()
        if cls.__dataclass_params__.eq
        for f in dataclasses.fields(cls)
        if f.compare and holds_an_array_or_mapping(typing.get_type_hints(cls)[f.name])
    )
    assert compared == []
    C = CirculantMatrix(np.array([2.0, 1.0, 1.0]))
    assert C == C and C != CirculantMatrix(C.first_column) and {C: 1}[C] == 1
    for x, twin in (
        (ToeplitzSymbol({0: 1.0}), ToeplitzSymbol({0: 1.0})),
        (ToeplitzOperator(4, {0: 1.0}), ToeplitzOperator(4, {0: 1.0})),
    ):
        assert x == x and x != twin and {x: 1}[x] == 1


def test_the_field_scan_flags_arrays_and_mappings():
    assert holds_an_array_or_mapping(np.ndarray) and holds_an_array_or_mapping(typing.Optional[np.ndarray])
    assert holds_an_array_or_mapping(dict) and holds_an_array_or_mapping(dict[int, float])
    assert holds_an_array_or_mapping(typing.Mapping[int, float]) and holds_an_array_or_mapping(CirculantMatrix)
    assert not any(map(holds_an_array_or_mapping, (int, float, tuple[int, ...], typing.Optional[float])))
