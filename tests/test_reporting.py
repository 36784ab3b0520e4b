"""The law evaluator: what it counts, keeps, charges and where it stops."""

import pytest

from smashtwist import reporting
from smashtwist.reporting import ResidualReport, evaluate


class Residual:
    """A stand-in residual: zero iff ``value`` is 0."""

    def __init__(self, value):
        self.value = value

    def is_zero(self):
        return self.value == 0

    def __repr__(self):
        return f"r{self.value}"


def test_a_law_failing_only_at_its_last_case_fails_with_that_witness():
    cases = [(f"case {k}", Residual(0)) for k in range(4)] + [("last", Residual(7))]
    law = evaluate("five cases", lambda: cases)
    assert (law.checked, law.ok(), law.failures[0]) == (5, False, ("last", cases[-1][1]))
    assert law.summary() == "last: r7"
    assert law.domain == "five cases"


def test_a_callable_label_is_called_only_for_a_failing_case(monkeypatch):
    made, recorded = [], []
    record = ResidualReport.record
    monkeypatch.setattr(ResidualReport, "record",
                        lambda self, *args: recorded.append(args) or record(self, *args))

    def label(text):
        return lambda: made.append(text) or text

    law = evaluate("three cases", lambda: [(label("a"), Residual(0)), (label("b"), Residual(1)),
                                           (label("c"), Residual(0))])
    assert made == ["b"]
    assert [args[:2] for args in recorded] == [("", False), ("b", True), ("", False)]
    assert law.failures == [("b", recorded[1][2])]


def test_a_law_records_nothing_after_its_stop():
    drawn = []

    def cases():
        # the law's stop rule: end the sweep at the first failing case
        for k, value in enumerate((0, 0, 3, 4, 0)):
            drawn.append(k)
            yield f"case {k}", Residual(value)
            if value:
                return

    law = evaluate("stops at its witness", cases)
    assert drawn == [0, 1, 2]
    assert law.checked == 3
    assert [label for label, _ in law.failures] == ["case 2"]


def test_each_case_is_drawn_after_the_one_before_is_recorded(monkeypatch):
    recorded = []
    record = ResidualReport.record
    monkeypatch.setattr(ResidualReport, "record",
                        lambda self, *args: recorded.append(args[0]) or record(self, *args))

    def cases():
        for k in range(3):
            # a label made late would read the loop's later values
            assert recorded == [f"case {j}" for j in range(k)]
            yield f"case {k}", Residual(0)

    assert evaluate("three cases", cases).checked == 3


def test_the_law_is_charged_the_time_its_cases_take(monkeypatch):
    clock = [10.0]
    monkeypatch.setattr(reporting.time, "perf_counter", lambda: clock[0])

    def cases():
        clock[0] += 0.25  # the lazy work of a case
        yield "a", Residual(0)

    assert evaluate("one case", cases).wall_ms == pytest.approx(250.0)


@pytest.mark.parametrize("cases, summary", [
    ([], "0"),
    ([("a", Residual(0))], "0"),
    ([("", Residual(2)), ("b", Residual(3))], "r2"),
])
def test_summary_is_zero_or_the_first_witness(cases, summary):
    assert evaluate("some cases", lambda: cases).summary() == summary


# -- the kinds of law ----------------------------------------------------------


def test_a_witness_reads_witness_even_when_its_value_is_zero():
    law = evaluate("one value", lambda: [("", Residual(0))], "witness")
    assert (law.status(), law.summary(), law.checked) == ("witness", "0", 1)


@pytest.mark.parametrize("cases, status, summary", [
    ([("", Residual(0))], "pass", "no witness: difference vanishes"),
    ([("x0", Residual(5))], "witness", "differs on x0"),
], ids=["no-difference", "difference"])
def test_a_search_passes_unless_a_case_differs(cases, status, summary):
    law = evaluate("first difference", lambda: cases, "search")
    assert (law.status(), law.summary(), law.checked) == (status, summary, 1)


def test_a_refused_construction_fails_with_its_message_and_its_time(monkeypatch):
    clock = [10.0]
    monkeypatch.setattr(reporting.time, "perf_counter", lambda: clock[0])

    def build():
        clock[0] += 0.5  # the build's work before it refuses
        raise ValueError("base is not braided commutative; construction refused")

    law = evaluate("the build", build, "construction")
    assert (law.status(), law.summary(), law.checked) == (
        "fail", "base is not braided commutative; construction refused", 1)
    assert law.wall_ms == pytest.approx(500.0)
    assert law.built is None


def test_a_construction_that_builds_passes_and_keeps_what_it_built():
    built = object()
    law = evaluate("the build", lambda: built, "construction")
    assert (law.status(), law.summary(), law.checked) == ("pass", "0", 1)
    assert law.built is built


def test_a_construction_lets_an_error_that_is_no_refusal_through():
    with pytest.raises(ZeroDivisionError):
        evaluate("the build", lambda: 1 / 0, "construction")


def test_the_kind_alone_sets_the_status_a_report_enters():
    from smashtwist.cli import Report

    report = Report("test", "test", 1, 1, fail_fast=True)
    for kind, value in (("witness", 3), ("search", 4), ("identity", 0)):
        report.add_law(kind, kind, evaluate("one case", lambda: [("a", Residual(value))], kind))
    assert [r["status"] for r in report.records] == ["witness", "witness", "pass"]
    # a nonzero witness fails nothing: the fail-fast report went on
    assert report.ok
