import dataclasses
import importlib
import inspect
import pkgutil

import lportho
from lportho.toeplitz_preconditioning import CirculantMatrix, ToeplitzOperator


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
