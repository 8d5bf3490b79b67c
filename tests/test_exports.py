"""The package's lazy export table names only attributes that exist."""

import ehrgen


def test_every_exported_name_resolves():
    """``dir(ehrgen)`` lists ``__all__``; a name left in the export table
    after its definition is deleted would fail here, not on first use."""
    missing = []
    for name in dir(ehrgen):
        try:
            getattr(ehrgen, name)
        except AttributeError:
            missing.append(name)
    assert missing == []
