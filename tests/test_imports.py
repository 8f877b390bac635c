"""Every top-level ``repro`` module imports cleanly as the first import.

An import cycle between two subpackages only fails when one particular
side is imported first, and a test session imports everything long
before it gets here.  So each module is imported alone, in a fresh
interpreter.
"""

import os
import pkgutil
import subprocess
import sys

import pytest

import repro

TOP_LEVEL = sorted(info.name for info in pkgutil.iter_modules(repro.__path__))


@pytest.mark.parametrize("module", TOP_LEVEL)
def test_imports_first(module):
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    proc = subprocess.run(
        [sys.executable, "-c", f"import repro.{module}"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_every_subpackage_is_covered():
    assert {"core", "kernels", "backends", "serve", "stream"} <= set(TOP_LEVEL)
