"""Laws and the one evaluator that runs them.

A law is an identity checked over a named domain.  Its cases are
``(label, residual)`` pairs, and a case fails iff its residual is nonzero.
Every law of the package runs through ``evaluate``; its outcome is a
``ResidualReport``, which the command report enters under the law's record
name and identity.

A law declares its kind, and its kind alone sets the status of its record:
an ``identity`` passes or fails; a ``witness`` shows a value and always reads
"witness"; a ``search`` reads "witness" when a case differs and "pass" when
none does; a ``construction`` has one case, its build, which passes or fails.
"""

from __future__ import annotations

import time


class Refusal(str):
    """Why a residual could not be formed, or a construction was refused: a
    case that always fails."""

    def is_zero(self) -> bool:
        return False


class ResidualReport:
    """Outcome of one law: its kind and domain, how many cases ran, which failed.

    Each failure keeps the witness label and the offending residual element
    so a nonzero result can be traced to a concrete input and h-order.
    ``wall_ms`` is the time ``evaluate`` spent making and judging the cases;
    ``built`` is what a construction built.
    """

    def __init__(self, domain: str, kind: str = "identity"):
        self.domain = domain
        self.kind = kind
        self.checked = 0
        self.failures: list = []
        self.wall_ms = 0.0
        self.built = None

    def record(self, label: str, failed: bool, residual):
        self.checked += 1
        if failed:
            self.failures.append((label, residual))

    def ok(self) -> bool:
        return not self.failures

    def status(self) -> str:
        if self.kind == "witness" or (self.kind == "search" and self.failures):
            return "witness"
        return "pass" if self.ok() else "fail"

    def summary(self) -> str:
        """"0", or the first witness as ``label: residual``, or as the bare
        residual for an unlabelled case; a refusal reads as its message, and
        a search names the case that differs."""
        if self.kind == "search":
            return (f"differs on {self.failures[0][0]}" if self.failures
                    else "no witness: difference vanishes")
        if self.ok():
            return "0"
        label, residual = self.failures[0]
        if label:
            return f"{label}: {residual!r}"
        return str(residual) if self.kind == "construction" else repr(residual)

    def __repr__(self):
        status = "ok" if self.ok() else f"{len(self.failures)} failing"
        return f"<ResidualReport {self.domain}: {self.checked} checked, {status}>"


def evaluate(domain: str, cases, kind: str = "identity") -> ResidualReport:
    """Run a law of ``kind`` and return its outcome, charged the time its
    cases took.

    ``cases()`` returns the law's ``(label, residual)`` pairs, typically a
    generator, whose lazy work is then charged here.  Each case is drawn only
    after the one before is recorded, so a law stops by ending its cases.
    A label is a string, or a callable of no arguments called only for a
    failing case: a passing case keeps no label, so it is recorded as "".
    A construction's ``cases()`` is its build: it returns what it built,
    kept as ``built``, and a ValueError it raises fails the one case with the
    refusal's message.
    """
    out = ResidualReport(domain, kind)
    t0 = time.perf_counter()
    if kind == "construction":
        try:
            out.built = cases()
        except ValueError as exc:
            out.record("", True, Refusal(exc))
        else:
            out.record("", False, None)
    else:
        for label, residual in cases():
            failed = not residual.is_zero()
            if callable(label):
                label = label() if failed else ""
            out.record(label, failed, residual)
    out.wall_ms = (time.perf_counter() - t0) * 1000.0
    return out
