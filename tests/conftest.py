"""Hypothesis settings shared by the suite.

One profile, loaded for every run: examples are drawn from a fixed seed
(``derandomize``), no example database is kept, and no per-example deadline
applies, so every run draws the same inputs.  Hypothesis still caches the
constants it reads from the package source; that cache goes to a temporary
directory removed at exit, so a run writes no ``.hypothesis/`` directory.
"""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")

_storage = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_storage.name)
