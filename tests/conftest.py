import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from wreduce.series import SummationConfig

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # no deadlines and a fixed example stream: slow shared hosts must not
    # turn a property test into a flaky one
    settings.register_profile("wreduce", deadline=None, derandomize=True)
    settings.load_profile("wreduce")


@pytest.fixture(scope="session")
def cfg6():
    return SummationConfig(tolerance=1e-6)


@pytest.fixture(scope="session")
def cfg8():
    return SummationConfig(tolerance=1e-8)
