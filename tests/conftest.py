"""Shared fixtures."""

import pytest

import planar_mhd.operators as operators


@pytest.fixture
def each_path(monkeypatch):
    """Run a check on each solver path in turn.

    Iterating each_path() yields "compiled" (only where the kernel is
    loaded) and then "numpy", with operators._KERNEL, the one switch
    between the compiled step and solve and the numpy step and Python
    loop, set for that path while the loop body runs."""
    kernel = operators._KERNEL

    def paths():
        for name, value in (("compiled", kernel), ("numpy", None)):
            if name == "compiled" and kernel is None:
                continue
            monkeypatch.setattr(operators, "_KERNEL", value)
            yield name
        monkeypatch.setattr(operators, "_KERNEL", kernel)

    return paths
