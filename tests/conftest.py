"""Hypothesis profiles for the suite.

``long`` is for the non-gating ``oracle-long`` CI job (``pytest
--hypothesis-profile long``): 1 000 examples per property, no deadline.
An explicit ``max_examples`` on a test overrides any profile, so the
oracle suites size themselves with :func:`tests.oracle.examples`, which
gives way to the profile when one is selected; tier-1 runs the default
profile and each test's own count.
"""

from hypothesis import settings

settings.register_profile("long", max_examples=1000, deadline=None)
