"""Fixtures shared by the test modules."""

import signal

import pytest

# seconds a test that asks for `time_limit` may run: a synthesis search whose
# per-draw budget check is gone never ends
TIME_LIMIT_S = 10


class TimeLimitExceeded(BaseException):
    """Not an Exception, so that no `except Exception` in the package, such as
    the CLI's mapping of runtime failures to exit 3, turns it into a result."""


@pytest.fixture
def time_limit():
    """Raise TimeLimitExceeded inside the test once it has run TIME_LIMIT_S
    seconds, so a hung search fails the test; faulthandler_timeout only prints
    the stacks. The alarm repeats every second: one that lands in a
    garbage-collector callback (hypothesis installs one) has its exception
    ignored."""

    def expire(signum, frame):
        raise TimeLimitExceeded(f"the test ran past its {TIME_LIMIT_S} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S, 1)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)
