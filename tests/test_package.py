"""The package's public surface."""

import types

import presmat


def test_all_lists_every_public_name():
    bound = {name for name, value in vars(presmat).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(presmat.__all__) == len(set(presmat.__all__))
    assert set(presmat.__all__) == bound
