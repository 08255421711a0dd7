"""The package's public names."""

import types

import fparea


def test_all_lists_every_public_name():
    # every public name bound in the package, modules aside, and nothing else
    public = {
        name
        for name, value in vars(fparea).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(fparea.__all__)
