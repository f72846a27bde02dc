"""Host-clock fixture: one suppressed wall-clock read, one flagged.

``drive_clean`` feeds the simulated clock a model value and stays
clean.
"""

import time


def _host_elapsed(t0):
    return time.time() - t0  # repro: lint-ok[wall-clock]


def drive_clean(clock, cost_model):
    clock.advance(cost_model(4096))


def log_wall_seconds(sink):
    # TRUE POSITIVE for the per-file wall-clock rule (unsuppressed).
    t = time.time()
    sink.write(str(t))
