"""Hypothesis profiles for the test suite.

``mutants`` skips the shrink phase, so a property test that a mutant breaks
fails at its first counterexample instead of minimizing it; ``tests/mutants.py``
runs its tests under it.  A plain ``pytest`` run keeps hypothesis's default profile.
"""

from hypothesis import Phase, settings

settings.register_profile("mutants", phases=[phase for phase in Phase if phase is not Phase.shrink])
