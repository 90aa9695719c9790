"""The package namespace and its imports."""

import os
import subprocess
import sys
from pathlib import Path

import ihg


def test_every_export_resolves():
    missing = [name for name in ihg.__all__ if not hasattr(ihg, name)]
    assert missing == []


def test_import_loads_no_sympy():
    # sympy is a test oracle only: a fresh interpreter importing the package
    # loads no module of it
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import ihg, sys; print(sorted(m for m in sys.modules"
            " if m == 'sympy' or m.startswith('sympy.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"
