"""Each module is importable first, in a fresh interpreter.

The package root imports nothing, so an import cycle between two modules
shows when one of them is the first module a program imports.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(p.stem for p in (SRC / "icevision_kit").glob("*.py") if p.stem != "__init__")


def run_python(code: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    result = run_python(f"import icevision_kit.{module}")
    assert result.returncode == 0, result.stderr


def test_package_root_exports_nothing():
    result = run_python("import icevision_kit as kit\n"
                        "print(sorted(n for n in vars(kit) if not n.startswith('__')))")
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
