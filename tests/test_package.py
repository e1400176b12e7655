"""The package's public names."""

import partlab


def test_every_exported_name_resolves():
    missing = [name for name in partlab.__all__ if not hasattr(partlab, name)]
    assert missing == []
    assert len(set(partlab.__all__)) == len(partlab.__all__)
