"""Run the executable examples embedded in module docstrings."""

import doctest

import pytest

import repro
import repro.core.buffer
import repro.sim.kernel
import repro.sim.process

MODULES = [
    repro.sim.kernel,
    repro.sim.process,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    failures, tested = doctest.testmod(module, verbose=False).failed, doctest.testmod(module).attempted
    assert tested > 0, f"{module.__name__} has no doctests"
    assert failures == 0


def test_package_quickstart_docstring():
    """The package docstring's quickstart must actually run."""
    result = doctest.testmod(repro, verbose=False)
    assert result.attempted > 0
    assert result.failed == 0
