"""The package's public surface."""

import riskeig


def test_every_export_resolves():
    """A name left in __all__ after its definition is gone fails here, not at import *."""
    missing = [name for name in riskeig.__all__ if not hasattr(riskeig, name)]
    assert not missing
