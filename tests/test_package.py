"""The package's public names."""

import bellsteer


def test_star_import_resolves_every_public_name():
    namespace: dict = {}
    exec("from bellsteer import *", namespace)
    assert [name for name in bellsteer.__all__ if name not in namespace] == []
    assert all(getattr(bellsteer, name) is namespace[name] for name in bellsteer.__all__)
