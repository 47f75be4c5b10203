"""The per-test timeout guard of ``tests/conftest.py``."""

import signal
import threading

import pytest


def test_a_blocked_main_thread_is_interrupted():
    """Re-arm the guard's timer short: the alarm must unwind a wait the
    test would otherwise sit in (here 30 s; a hung fleet, forever)."""
    signal.setitimer(signal.ITIMER_REAL, 0.05)
    with pytest.raises(TimeoutError, match="hung"):
        threading.Event().wait(30)
