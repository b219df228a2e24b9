"""The package's export list names only what the package defines."""

import solitonlab


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from solitonlab import *", namespace)
    missing = [name for name in solitonlab.__all__ if name not in namespace]
    assert missing == []
    assert len(set(solitonlab.__all__)) == len(solitonlab.__all__)
