"""Hypothesis profiles.

With the CI environment variable set (GitHub Actions sets it), the `ci`
profile derandomizes every property test, so a run draws the same
examples each time and a failure reproduces.  Local runs keep random
examples and the example database.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
