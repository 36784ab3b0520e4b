"""Laws and the one evaluator that runs them.

A law is an identity checked over a named domain.  Its cases are
``(label, residual)`` pairs, and a case fails iff its residual is nonzero.
Every law of the package runs through ``evaluate``; its outcome is a
``ResidualReport``, which the command report enters under the law's record
name and identity.
"""

from __future__ import annotations

import time


class ResidualReport:
    """Outcome of one law: its domain, how many cases ran, which failed.

    Each failure keeps the witness label and the offending residual element
    so a nonzero result can be traced to a concrete input and h-order.
    ``wall_ms`` is the time ``evaluate`` spent making and judging the cases.
    """

    def __init__(self, domain: str):
        self.domain = domain
        self.checked = 0
        self.failures: list = []
        self.wall_ms = 0.0

    def record(self, label: str, failed: bool, residual):
        self.checked += 1
        if failed:
            self.failures.append((label, residual))

    def ok(self) -> bool:
        return not self.failures

    def witness(self):
        return self.failures[0] if self.failures else None

    def summary(self) -> str:
        """"0", or the first witness as ``label: residual``, or as the bare
        residual for an unlabelled case."""
        if self.ok():
            return "0"
        label, residual = self.failures[0]
        return f"{label}: {residual!r}" if label else repr(residual)

    def __repr__(self):
        status = "ok" if self.ok() else f"{len(self.failures)} failing"
        return f"<ResidualReport {self.domain}: {self.checked} checked, {status}>"


def evaluate(domain: str, cases) -> ResidualReport:
    """Run a law and return its outcome, charged the time its cases took.

    ``cases()`` returns the law's ``(label, residual)`` pairs, typically a
    generator, whose lazy work is then charged here.  Each case is drawn only
    after the one before is recorded, so a law stops by ending its cases.
    A label is a string, or a callable of no arguments called only for a
    failing case: a passing case keeps no label, so it is recorded as "".
    """
    out = ResidualReport(domain)
    t0 = time.perf_counter()
    for label, residual in cases():
        failed = not residual.is_zero()
        if callable(label):
            label = label() if failed else ""
        out.record(label, failed, residual)
    out.wall_ms = (time.perf_counter() - t0) * 1000.0
    return out
