"""A wall-clock bound for tests of inputs that once made the program hang."""

from __future__ import annotations

import signal


class _Expired(Exception):
    pass


def within(seconds: int, fn):
    """Run fn, raising TimeoutError if it is still running after seconds."""

    def expire(signum, frame):
        raise _Expired

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        return fn()
    except _Expired:
        # raised afresh so that the report does not walk the interrupted frames
        raise TimeoutError(f"still running after {seconds} s") from None
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
