"""Shared fixtures."""

import contextlib
import signal

import pytest


@pytest.fixture
def time_limit():
    """`with time_limit(s):` fails the test with TimeoutError when the block
    runs longer than s seconds, instead of letting it hang."""

    @contextlib.contextmanager
    def limit(seconds: int):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    return limit
