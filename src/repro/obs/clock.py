"""The one clock: every time the library reads is a :func:`now` reading.

Callers read it as ``clock.now()`` — the module attribute, looked up at
call time — so every timing shares one time base and a test replaces
the clock in one place.
"""

from time import perf_counter as now
