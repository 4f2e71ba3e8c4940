"""The package's export list."""

import moransar


def test_every_exported_name_resolves():
    missing = [name for name in moransar.__all__ if not hasattr(moransar, name)]
    assert missing == []


def test_no_name_is_exported_twice():
    assert len(moransar.__all__) == len(set(moransar.__all__))
