"""Suite-wide checks that every test passes through."""

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fail a test after which a child process of this one still runs, as the benchmark
    refuses a run that leaves one. The leftovers are killed so that the next test starts
    without them."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.kill()
        child.join()
    assert left == [], f"processes left running: {left}"
