"""The package surface: every exported name exists."""

import ccm


def test_all_names_resolve():
    missing = [name for name in ccm.__all__ if not hasattr(ccm, name)]
    assert missing == []
    assert len(set(ccm.__all__)) == len(ccm.__all__)
