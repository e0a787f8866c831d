import numpy as np
import pytest
from hypothesis import settings

# Every property draws the same examples on every run: derandomized from its
# source, with no deadline and no example database.  A second draw of them, on
# examples they were not written against, runs with
# ``--hypothesis-profile=second-draw --hypothesis-seed=N``.
settings.register_profile("default", deadline=None, derandomize=True, database=None)
settings.register_profile("second-draw", settings.get_profile("default"), derandomize=False)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
