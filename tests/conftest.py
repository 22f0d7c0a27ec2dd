"""Hypothesis profiles for the test suite.

``ci`` derandomizes every property test (the examples derive from each
test's source, so a CI failure reproduces on any machine) and lifts the
per-example deadline that shared runners miss by chance.  It is loaded
when the ``CI`` environment variable is set; local runs keep
hypothesis's randomized default.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")
