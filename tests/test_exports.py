"""Every exported name resolves, so a deletion cannot leave a dangling export."""

import importlib
import pkgutil

import fltaudit


def test_every_all_entry_is_an_attribute():
    modules = [fltaudit] + [
        importlib.import_module(f"fltaudit.{info.name}")
        for info in pkgutil.iter_modules(fltaudit.__path__)
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert not missing
    assert {"fltaudit", "fltaudit.poly", "fltaudit.search"} <= {
        module.__name__ for module in modules if hasattr(module, "__all__")
    }
