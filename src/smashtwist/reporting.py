"""Residual bookkeeping shared by the verification sweeps."""

from __future__ import annotations

import time
from contextlib import contextmanager


class ResidualReport:
    """Outcome of one identity sweep: how many cases ran, which failed.

    Each failure keeps the witness label and the offending residual element
    so a nonzero result can be traced to a concrete input and h-order.
    ``wall_ms`` is the time spent in the sections run under ``timed()``.
    """

    def __init__(self, name: str):
        self.name = name
        self.checked = 0
        self.failures: list = []
        self.wall_ms = 0.0

    def record(self, label: str, failed: bool, residual=None):
        self.checked += 1
        if failed:
            self.failures.append((label, residual))

    def check(self, label, residual):
        """Record a case that fails iff ``residual`` is nonzero.  ``label`` is
        a string, or a callable of no arguments that makes it and is called
        only for a failing case: a passing case keeps no label, so it is
        recorded as ""."""
        failed = not residual.is_zero()
        if callable(label):
            label = label() if failed else ""
        self.record(label, failed, residual)

    def merge(self, other: "ResidualReport"):
        self.checked += other.checked
        self.failures.extend(other.failures)
        self.wall_ms += other.wall_ms

    @contextmanager
    def timed(self):
        """Charge the wall time of the enclosed block to this report."""
        t0 = time.perf_counter()
        try:
            yield self
        finally:
            self.wall_ms += (time.perf_counter() - t0) * 1000.0

    def ok(self) -> bool:
        return not self.failures

    def witness(self):
        return self.failures[0] if self.failures else None

    def __repr__(self):
        status = "ok" if self.ok() else f"{len(self.failures)} failing"
        return f"<ResidualReport {self.name}: {self.checked} checked, {status}>"
