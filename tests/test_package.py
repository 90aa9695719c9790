"""The package namespace."""

import ihg


def test_every_export_resolves():
    missing = [name for name in ihg.__all__ if not hasattr(ihg, name)]
    assert missing == []
