"""The tests' one wall-clock limit, a `TimeoutError` in place of a hang, and their spies."""

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


def spy(monkeypatch, owner, name, record=len):
    """Wrap `owner.name`; the list it returns gets record(first argument) of each call."""
    calls, real = [], getattr(owner, name)

    def tracked(*args):
        calls.append(record(args[0]))
        return real(*args)

    monkeypatch.setattr(owner, name, tracked)
    return calls


def forbid(monkeypatch, message, *targets):
    """Make each (owner, name) of targets raise AssertionError(message) when called."""

    def forbidden(*args, **kwargs):
        raise AssertionError(message)

    for owner, name in targets:
        monkeypatch.setattr(owner, name, forbidden)
