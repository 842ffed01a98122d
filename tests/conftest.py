import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

_SWEEP_FIXTURES = {"experiment1", "experiment2", "experiment3"}


def pytest_collection_modifyitems(items):
    """Mark every test that needs an acceptance sweep fixture as slow.

    ``pytest -m "not slow"`` then skips the three trend sweeps, which take
    most of the suite's time; a plain ``pytest`` still runs everything.
    """
    for item in items:
        if _SWEEP_FIXTURES & set(getattr(item, "fixturenames", ())):
            item.add_marker(pytest.mark.slow)
