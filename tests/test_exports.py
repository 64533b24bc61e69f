"""Every exported name resolves, so a deleted function cannot stay exported."""

import pytest

import retail_profiler
from retail_profiler import metrics


@pytest.mark.parametrize("module", [retail_profiler, metrics], ids=lambda module: module.__name__)
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
