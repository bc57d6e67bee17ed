"""``tests/mutants.py`` finds every mutant of every module it may be pointed at."""

import re
from pathlib import Path

import pytest

from mutants import EQUIVALENT, ROOT, SWEEPS, equivalent_at, mutants, swapped

MODULES = sorted((ROOT / "src" / "twtsim").glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
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


def test_every_module_with_a_mutant_has_a_sweep():
    swept = {path.relative_to(ROOT).as_posix() for path in MODULES if mutants(path.read_text())[0]}
    assert set(SWEEPS) == swept
    for tests in SWEEPS.values():
        assert tests and all((ROOT / test).is_file() for test in tests), tests


def test_ci_sweeps_exactly_the_table_in_one_step():
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    (matrix,) = re.findall(r"^ +module: \[(.*)\]$", ci, flags=re.M)
    assert sorted(f"src/twtsim/{module.strip()}.py" for module in matrix.split(",")) \
        == sorted(SWEEPS)
    assert ci.count("python tests/mutants.py") == 1
