import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# Derandomized and without an example database, so the suite draws the
# same examples on every run.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")

_HYPOTHESIS_HOME = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    """Hypothesis caches the constants it reads from the package source
    while pytest collects; keep that cache out of the working tree."""
    config.stash[_HYPOTHESIS_HOME] = home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    set_hypothesis_home_dir(home.name)


def pytest_unconfigure(config):
    config.stash[_HYPOTHESIS_HOME].cleanup()
