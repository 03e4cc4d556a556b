import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# Property tests draw the same examples on every run and keep no example
# database, so the suite cannot flake.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")

# Hypothesis still caches the constants it finds in local modules, from
# collection on; keep that cache in a temporary directory, not .hypothesis/.
_HYPOTHESIS_HOME = tempfile.mkdtemp(prefix="meanspec-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME)


def pytest_unconfigure(config):
    shutil.rmtree(_HYPOTHESIS_HOME, ignore_errors=True)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
