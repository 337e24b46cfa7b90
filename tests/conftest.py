"""Shared fixtures."""

import pytest

from repro.obs.trace import RECORDER


@pytest.fixture
def recorder():
    """The process-wide span recorder, recording from empty for one
    test and switched off and emptied afterwards."""
    RECORDER.clear()
    RECORDER.start()
    try:
        yield RECORDER
    finally:
        RECORDER.stop()
        RECORDER.clear()
