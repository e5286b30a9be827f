"""Package surface: every exported name resolves."""

import isingbp


def test_all_names_resolve():
    # a stale entry in __all__ fails only on `from isingbp import *`
    missing = [name for name in isingbp.__all__ if not hasattr(isingbp, name)]
    assert missing == []
    assert len(set(isingbp.__all__)) == len(isingbp.__all__)
