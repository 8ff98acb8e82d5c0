"""Hypothesis profiles for the suite.

The default, `derandomized`, draws the same examples on every run and keeps
no example database, so a run's result depends on the tree alone; a
failure prints the blob that `@reproduce_failure` replays. The `random`
profile draws fresh examples under `--hypothesis-seed`, for the CI job
that looks for new failing draws: pin one as an `@example`.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None,
                          print_blob=True)
settings.register_profile("random", database=None, print_blob=True)
settings.load_profile("derandomized")
