"""The public surface of the package."""

import gapinterp


def test_every_exported_name_resolves():
    missing = [name for name in gapinterp.__all__ if not hasattr(gapinterp, name)]
    assert missing == []
    assert len(set(gapinterp.__all__)) == len(gapinterp.__all__)
