"""The standing mutant list of ``tests/mutants.py`` still matches the code and the tests it names.

A mutant whose edit no longer applies, or whose test is gone, fails here at
once instead of only in the slow ``python tests/mutants.py`` run.
"""

from mutants import MUTANTS, stale


def test_each_mutant_edits_one_place_and_names_tests_that_exist():
    assert {m.name: reason for m in MUTANTS if (reason := stale(m))} == {}
