"""Package export list."""

import arraytol


def test_every_exported_name_resolves_once():
    names = arraytol.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert getattr(arraytol, name) is not None
