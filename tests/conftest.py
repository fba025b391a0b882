"""Settings shared by every property test."""

from hypothesis import settings

# Each test draws a fixed example sequence (seeded from its own source), keeps
# no example database, and has no per-example deadline; a test sets only its
# own example count.
settings.register_profile("trunca", derandomize=True, deadline=None, database=None)
settings.load_profile("trunca")
