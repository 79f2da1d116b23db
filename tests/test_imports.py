"""Import hygiene: a subcommand loads only its own modules, exports load lazily."""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import fltaudit

SRC = str(Path(fltaudit.__file__).resolve().parent.parent)
CLI = {"fltaudit", "fltaudit.checkpoint", "fltaudit.cli", "fltaudit.version"}
LIST_LOADED = (
    "\nimport json, sys"
    "\nprint(json.dumps([m for m in sys.modules if m.split('.')[0] == 'fltaudit']))"
)


def loaded_after(code: str) -> set[str]:
    """The fltaudit modules a fresh interpreter holds after running ``code``."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC if not path else f"{SRC}{os.pathsep}{path}")
    proc = subprocess.run(
        [sys.executable, "-c", code + LIST_LOADED],
        capture_output=True, text=True, env=env, check=True,
    )
    return set(json.loads(proc.stdout.splitlines()[-1]))


@pytest.mark.parametrize(
    "code, expected",
    [
        ("import fltaudit", {"fltaudit", "fltaudit.version"}),
        ("import fltaudit; fltaudit.Polynomial", {"fltaudit", "fltaudit.version", "fltaudit.poly"}),
        ("import fltaudit.cli", CLI),
        (
            "import fltaudit.search",
            {"fltaudit", "fltaudit.version", "fltaudit.search", "fltaudit.checkpoint",
             "fltaudit.ints"},
        ),
        (
            "from fltaudit import cli; cli.main(['scan-flt', '--base-max', '20'])",
            CLI | {"fltaudit.fermat", "fltaudit.ints"},
        ),
        (
            "from fltaudit import cli; cli.main(['represent', '3', '4', '5'])",
            CLI | {"fltaudit.pythagoras", "fltaudit.ints"},
        ),
        (
            "from fltaudit import cli; cli.main(['verify-identity', '--n-max', '4', '--points', '5'])",
            CLI | {"fltaudit.lemma", "fltaudit.poly", "fltaudit.ints"},
        ),
        (
            "from fltaudit import cli; cli.main(['audit', '--box-bound', '3', '--search-bound', '2'])",
            CLI | {"fltaudit.audit", "fltaudit.conditions", "fltaudit.fermat", "fltaudit.ints",
                   "fltaudit.lemma", "fltaudit.poly", "fltaudit.pythagoras", "fltaudit.search"},
        ),
    ],
)
def test_loads_only_the_modules_it_runs(code, expected):
    assert loaded_after(code) == expected


class TestLazyExports:
    def test_star_import_binds_every_export(self):
        namespace: dict = {}
        exec("from fltaudit import *", namespace)
        assert set(fltaudit.__all__) <= set(namespace)

    def test_each_export_is_the_defining_modules_object(self):
        for name, module in fltaudit._EXPORTS.items():
            assert getattr(fltaudit, name) is getattr(import_module(f"fltaudit.{module}"), name)

    def test_unknown_name_is_an_attribute_error_naming_the_module(self):
        with pytest.raises(AttributeError, match="'fltaudit' has no attribute 'no_such_name'"):
            fltaudit.no_such_name  # noqa: B018
        assert not hasattr(fltaudit, "no_such_name")

    def test_dir_lists_every_export(self):
        assert set(fltaudit.__all__) <= set(dir(fltaudit))
