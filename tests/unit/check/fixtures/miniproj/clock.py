"""Simulated clock: one mutable-default hazard."""


class SimClock:
    def __init__(self):
        self.now_usec = 0.0

    def advance(self, dt_usec):
        self.now_usec += dt_usec

    def advance_to(self, t_usec):
        self.now_usec = max(self.now_usec, t_usec)

    def advance_all(self, deltas=[]):
        # TRUE POSITIVE for the per-file mutable-default rule.
        for dt_usec in deltas:
            self.advance(dt_usec)
