"""``tests/lines.py``'s ``UNRUN`` table names lines that exist."""

import pytest

from lines import UNRUN, listed


@pytest.mark.parametrize("key", sorted(UNRUN), ids=lambda key: f"{key[0]}: {key[1]}")
def test_every_unrun_entry_names_exactly_one_executable_line(key):
    # a stale entry, whose line moved into another form or is gone, would excuse nothing
    assert len(listed()[key]) == 1
