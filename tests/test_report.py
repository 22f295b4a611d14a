"""VerificationReport.summarize, the one way a check folds in a sub-report."""

from diraclab.report import FAIL, HYPOTHESIS_VIOLATED, PASS, VerificationReport


def test_a_passing_sub_report_adds_one_pass_record():
    sub = VerificationReport("sub")
    sub.add("a", True)
    sub.add("b", True)
    rep = VerificationReport("outer")
    assert rep.summarize("outer.sub", sub, detail="the sub-checks hold") is True
    assert [(r.check_id, r.status, r.detail, r.witness) for r in rep.records] == \
        [("outer.sub", PASS, "the sub-checks hold", None)]


def test_a_failing_sub_report_adds_its_failure_counts_then_its_records():
    sub = VerificationReport("sub")
    sub.add("a", False)
    sub.add("b", True)
    sub.add("a", False)
    sub.add_hypothesis_violation("c")
    rep = VerificationReport("outer")
    rep.add("first", True)
    assert rep.summarize("outer.sub", sub, detail="the sub-checks hold") is False
    summary = rep.records[1]
    assert (summary.check_id, summary.status) == ("outer.sub", FAIL)
    assert summary.witness == {"failing": {"a": 2, "c": 1}}
    assert rep.records[2:] == sub.records
    assert sub.records[-1].status == HYPOTHESIS_VIOLATED
