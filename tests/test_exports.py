"""The package's public names."""

import clsibound


def test_every_exported_name_resolves():
    assert len(set(clsibound.__all__)) == len(clsibound.__all__)
    missing = [name for name in clsibound.__all__ if not hasattr(clsibound, name)]
    assert missing == []
