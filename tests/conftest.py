"""Shared test configuration.

Hypothesis runs derandomized, without deadlines and without an example
database, so the suite draws the same examples on every run.  Its other
cache, the constants it collects from the package source, goes to a
temporary directory removed at exit, so a run writes no .hypothesis/
directory into the checkout.
"""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("overlatt", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("overlatt")

_hypothesis_home = tempfile.TemporaryDirectory(prefix="overlatt-hypothesis-")
set_hypothesis_home_dir(_hypothesis_home.name)
