"""Fixtures shared by the test modules."""

import pytest

from riskeig import eigensolve


class _CountingSpla:
    """Stands in for scipy.sparse.linalg inside eigensolve, counting ``splu`` calls."""

    def __init__(self, real):
        self._real = real
        self.splu_calls = 0

    def splu(self, *args, **kwargs):
        self.splu_calls += 1
        return self._real.splu(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._real, name)


@pytest.fixture
def counting_spla(monkeypatch):
    """eigensolve's sparse linear algebra for one test, with its factorizations counted.

    Setting an attribute on the returned object (``eigs``, say) replaces that
    function for the eigensolver only.
    """
    proxy = _CountingSpla(eigensolve.spla)
    monkeypatch.setattr(eigensolve, "spla", proxy)
    return proxy
