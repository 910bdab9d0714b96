"""The package itself: each module imports on its own, and `moribound`
re-exports nothing, so every public name has one home, its module."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import moribound

MODULES = sorted(info.name for info in pkgutil.iter_modules(moribound.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_each_module_imports_on_its_own(tmp_path, name):
    """A fresh interpreter imports `moribound.<name>` alone.  The package
    imports no module of its own, so no fixed order hides a cycle."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import moribound.{name}"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(Path(moribound.__file__).parents[1])),
    )
    assert (proc.returncode, proc.stderr) == (0, "")


def test_the_package_binds_only_dunders_and_modules():
    modules = {name: importlib.import_module(f"moribound.{name}") for name in MODULES}
    assert len(modules) == 8
    stray = sorted(key for key, value in vars(moribound).items()
                   if not (key.startswith("__") and key.endswith("__"))
                   and modules.get(key) is not value)
    assert stray == []
