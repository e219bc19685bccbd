"""Every pinned output equals what its producer in ``goldens.py`` computes
now.  After a change that moves an output on purpose, rewrite the files with
``PYTHONPATH=src python tests/goldens.py``."""
import pytest

from goldens import FAMILIES, dump

STORED = {name: family.stored() for name, family in FAMILIES.items()}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_file_holds_every_case(name):
    stored = STORED[name]
    assert sorted(stored) == sorted(FAMILIES[name].cases)
    assert FAMILIES[name].path.read_text(encoding="utf-8") == dump(stored)


@pytest.mark.parametrize("name,key", [(name, key) for name in sorted(FAMILIES) for key in sorted(FAMILIES[name].cases)])
def test_case(name, key):
    assert FAMILIES[name].value(key) == STORED[name].get(key)
