import signal
from contextlib import contextmanager

import pytest
from hypothesis import settings

from bgwkem import GTElement, make_mock_group

# The curve differential tests call oracles that take tens of milliseconds
# per example at 160 bits, so a wall-clock deadline would make them flaky on
# a loaded machine. The example count is pinned so every run does the same work.
settings.register_profile("bgwkem", deadline=None, max_examples=100)
settings.load_profile("bgwkem")


class ScriptedRng:
    """Feeds a fixed sequence of values to code expecting random.Random.

    Each randrange call pops the next scripted value and asserts it lies in
    the requested range, so a test fails loudly if the code under test
    consumes randomness in an unexpected order.
    """

    def __init__(self, values, byte_values=()):
        self.values = list(values)
        self.byte_values = list(byte_values)

    def randrange(self, start, stop=None):
        if stop is None:
            start, stop = 0, start
        value = self.values.pop(0)
        assert start <= value < stop, (start, value, stop)
        return value

    def randbytes(self, n):
        data = self.byte_values.pop(0)
        assert len(data) == n
        return data


def gt_element(group, trace):
    """The mock GT element with the given trace; handy for exhaustive sweeps."""
    return GTElement(group, trace % group.order)


@contextmanager
def time_limit(seconds):
    """Fail with TimeoutError if the block runs longer than `seconds` (POSIX only)."""

    def expire(signum, frame):
        raise TimeoutError(f"took longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def scripted():
    return ScriptedRng


@pytest.fixture
def mock101():
    return make_mock_group(101)
