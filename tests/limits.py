"""The tests' one wall-clock limit: a `TimeoutError` in place of a hang."""

import signal
from contextlib import contextmanager


@contextmanager
def time_limit(seconds):
    """Raise `TimeoutError` in the body once `seconds` (an int) have passed, by SIGALRM."""

    def on_alarm(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    old = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
