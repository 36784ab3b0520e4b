"""The allow-list of tests/tools/unreached.py cannot go stale.

The script prints the functions in src/smashtwist that no command reaches,
minus an allow-list; CI runs it.  Each allow-list entry must name exactly one
function or method that exists, so an entry outlives neither a deletion nor
a rename.
"""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "unreached", Path(__file__).resolve().parent / "tools" / "unreached.py")
unreached = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(unreached)

DEFINED = list(unreached.defined_functions().values())


@pytest.mark.parametrize("entry", sorted(unreached.ALLOWED))
def test_allowed_entry_names_exactly_one_function(entry):
    assert DEFINED.count(entry) == 1
    assert unreached.ALLOWED[entry]  # and says why it stays
