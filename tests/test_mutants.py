"""``tests/mutants.py`` finds every mutant of every module it may be pointed at."""

from pathlib import Path

import pytest

from mutants import EQUIVALENT, ROOT, equivalent_at, mutants, swapped


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "twtsim").glob("*.py")),
                         ids=lambda path: path.name)
def test_every_module_enumerates_its_mutants(path: Path):
    source = path.read_text()
    found, unmutated = mutants(source)
    for line, col, old, new, _, _ in found:
        swapped(source, line, col, old, new)  # asserts that the token it swaps is there
    for _, _, old, _, _, expression in unmutated:
        assert f" {old} " in expression


def test_an_operator_inside_an_f_string_is_listed_as_not_mutated():
    # Python 3.11 tokenizes the f-string as one string: its `or` has no token
    source = 'def f(exc, n):\n    return f"{exc.strerror or exc}" if n < 2 else ""\n'
    found, unmutated = mutants(source)
    assert found == [(2, 41, "<", "<=", "f", "n < 2")]
    assert unmutated == [(2, 14, "or", "and", "f", "exc.strerror or exc")]


@pytest.mark.parametrize("key", sorted(EQUIVALENT), ids=lambda key: f"{key[0]}:{key[2]}")
def test_every_equivalent_entry_names_exactly_one_mutant(key):
    # a stale entry, whose expression moved or is gone, would excuse nothing
    found, _ = mutants((ROOT / key[0]).read_text())
    assert len(equivalent_at(key, found)) == 1
