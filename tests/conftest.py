"""Shared test configuration.

Property tests run under one `hypothesis` profile that draws the same
examples on every run and keeps no example database, so two runs of the
suite on two trees test the same inputs.
"""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
