"""Hypothesis profiles for the test suite.

``default`` is Hypothesis' own bound of 100 examples per property; a test
may ask for more in its ``@settings``.  ``ci`` runs at least 1,000
examples, with no per-example deadline, for the properties that take
their count from the profile.  ``HYPOTHESIS_PROFILE`` picks one.
"""

import os

from hypothesis import settings

settings.register_profile("default", max_examples=100)
settings.register_profile("ci", max_examples=1000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
