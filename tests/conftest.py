"""Hypothesis profiles for the test suite.

``litt43`` (loaded by default) runs 40 examples per property; every
``@given`` test outside ``test_symmetries.py`` sets its own
``max_examples``, so only the symmetry properties follow the profile.
``symmetry-deep`` runs them at 400:

    pytest -q tests/test_symmetries.py --hypothesis-profile=symmetry-deep
"""

from hypothesis import settings

settings.register_profile("litt43", max_examples=40)
settings.register_profile("symmetry-deep", max_examples=400)
settings.load_profile("litt43")
