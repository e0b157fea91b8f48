"""Shared test settings.

Property tests run under a deterministic Hypothesis profile: the examples
are derived from each test's own definition (derandomize), nothing is read
from or written to an example database, and no per-example deadline applies,
since one example can be a full solve.  Every run draws the same examples.
"""
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")
