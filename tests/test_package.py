"""The package's export list: every name resolves, none twice, no removed name."""

import quandles


def test_every_exported_name_resolves():
    missing = [name for name in quandles.__all__ if not hasattr(quandles, name)]
    assert missing == []


def test_no_name_is_exported_twice():
    assert len(quandles.__all__) == len(set(quandles.__all__))


def test_removed_names_are_gone():
    for name in ("core_inner_model", "verify_core_inner"):
        assert name not in quandles.__all__
        assert not hasattr(quandles, name)
