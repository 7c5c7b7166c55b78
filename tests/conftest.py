"""Hypothesis profiles for the test suite.

``HYPOTHESIS_PROFILE=ci`` selects the derandomized profile that CI runs:
every property test draws the same examples on every run, so a CI failure
reproduces locally under the same variable.  Without the variable,
Hypothesis keeps its own choice of profile.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None, print_blob=True)
if "HYPOTHESIS_PROFILE" in os.environ:
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])
