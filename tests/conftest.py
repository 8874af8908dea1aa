"""Hypothesis runs derandomized and without an example database, so a pass
depends neither on the draw nor on examples replayed from earlier runs."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
