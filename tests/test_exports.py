"""Every exported name resolves, and the package namespace imports no submodule."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import retail_profiler
from retail_profiler import metrics


@pytest.mark.parametrize("module", [metrics], ids=lambda module: module.__name__)
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_importing_one_submodule_loads_no_other():
    """``retail_profiler/__init__.py`` binds ``__version__`` only, so a submodule comes alone."""
    src = Path(retail_profiler.__file__).resolve().parents[1]
    code = "import sys, retail_profiler.kernels; print(sorted(m for m in sys.modules if m.startswith('retail_profiler')))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['retail_profiler', 'retail_profiler.kernels']\n"
