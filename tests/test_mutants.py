"""The mutant table of `tests/mutants.py` still fits the source.

Running the table takes about a minute, and CI runs it; this only checks
that each mutant's source text occurs exactly once in its file, so a
refactor that moves a line fails here first.
"""

from mutants import MUTANTS, count_matches


def test_each_mutant_pattern_matches_its_file_exactly_once():
    assert {m: count_matches(m) for m in MUTANTS} == {m: 1 for m in MUTANTS}
