"""Failure-path rows of the reproduce criteria that count failing cases.

Criteria 2, 5, 6 and 7 are made to fail by handing them family summaries
changed with ``dataclasses.replace``; criterion 8 by patching its oracles.
Each test pins the row's full text: the failure count and, where the row
names one, the first failing case.  The passing rows are pinned by sha256
in ``test_acceptance.py``.
"""

from __future__ import annotations

import dataclasses

import pytest

from layerlens import reproduce as rep


@pytest.fixture(scope="module")
def summaries() -> dict[str, rep.FamilySummary]:
    """The real family summaries, keyed by label."""
    return {s.label: s for s in rep._family_summaries()}


def _row(rows: list[rep.CheckRow], case: str) -> tuple[str, str, bool]:
    (row,) = [r for r in rows if r.case.startswith(case)]
    return row.expected, row.actual, row.passed


def test_criterion_2_failure_labels_in_order(summaries):
    s = summaries
    doctored = [
        s["opt2planar(1)"],
        dataclasses.replace(s["opt2planar(2)"], brute_max_per_edge=3),
        dataclasses.replace(s["planar3(3)"], n=0, mutually_crossing=3),
        dataclasses.replace(s["planar3(4)"], mutually_crossing=3),
    ]
    (row,) = rep.check_families(doctored)
    assert (row.expected, row.actual, row.passed) == (
        "4 instances, 0 failures",
        "4 instances, 4 failures (cap: opt2planar(2))",
        False,
    )
    # within one instance the closed form comes first, then the cap, then
    # the quasiplanarity of planar3
    bad = dataclasses.replace(s["planar3(3)"], m=0, brute_max_per_edge=9, mutually_crossing=3)
    assert rep.check_families([bad])[0].actual == "1 instances, 3 failures (counts: planar3(3))"
    assert rep.check_families([dataclasses.replace(bad, m=s["planar3(3)"].m)])[0].actual == (
        "1 instances, 2 failures (cap: planar3(3))"
    )
    # the brute-force cap, when there is one, overrides the fast profile's
    fast_only = dataclasses.replace(s["opt2planar(3)"], max_per_edge=9)
    assert rep.check_families([fast_only])[0].passed
    slow_missing = dataclasses.replace(fast_only, brute_max_per_edge=None)
    assert rep.check_families([slow_missing])[0].actual == "1 instances, 1 failures (cap: opt2planar(3))"


def test_criterion_5_failure_rows(summaries):
    s = summaries
    doctored = [
        s["general_k(p=16, k=18)"],
        dataclasses.replace(s["general_k(p=17, k=18)"], total=0, special_s=True),
        dataclasses.replace(s["general_k(p=18, k=18)"], total=0, special_s=False),
        dataclasses.replace(s["general_k(p=19, k=18)"], special_s=False),
    ]
    rows = rep.check_crossing_bounds(doctored)
    assert [r.case for r in rows] == [
        "cubic crossing bound on 504 dense drawings",
        "clamped linear crossing bound on 504 dense drawings",
    ]
    assert _row(rows, "cubic") == ("0 violations", "2 violations (first: general_k(p=17, k=18))", False)
    assert _row(rows, "clamped") == (
        "0 violations outside exceptional sub-drawings",
        "2 violations, 1 exceptional-graph misses reported",
        False,
    )
    # a linear miss inside an exceptional sub-drawing is reported, not failed
    rows = rep.check_crossing_bounds([dataclasses.replace(s["general_k(p=16, k=18)"], special_s=True)])
    assert _row(rows, "clamped") == (
        "0 violations outside exceptional sub-drawings",
        "0 violations, 1 exceptional-graph misses reported",
        True,
    )


def test_criterion_6_failure_row(summaries):
    s = summaries
    doctored = [
        s["opt2planar(1)"],
        dataclasses.replace(s["opt2planar(2)"], pathwidth_ok=False),
        dataclasses.replace(s["opt2planar(3)"], pathwidth_ok=None),  # larger than criterion 6 decomposes
        dataclasses.replace(s["planar3(3)"], pathwidth_ok=False),
    ]
    rows = rep.check_pathwidth(doctored)
    assert rows[0].case == "path decompositions on 503 drawings (P.1-P.4, width <= k+1)"
    assert _row(rows, "path decompositions") == ("0 failures", "2 failures (first: opt2planar(2))", False)


def test_criterion_7_failure_row(summaries):
    s = summaries
    doctored = [
        dataclasses.replace(s["opt2planar(1)"], mutually_crossing=9),
        dataclasses.replace(s["opt2planar(2)"], connected=False, mutually_crossing=9),
        dataclasses.replace(s["opt2planar(3)"], max_per_edge=1, mutually_crossing=9),  # k < 2: not checked
        dataclasses.replace(s["planar3(3)"], mutually_crossing=9),
    ]
    (row,) = rep.check_relationship(doctored)
    assert (row.case, row.expected, row.actual, row.passed) == (
        "quasiplanarity threshold on 503 connected drawings",
        "0 violations",
        "2 violations (first: opt2planar(1))",
        False,
    )


def test_criterion_8_failure_rows(monkeypatch):
    profile, mcn = rep.brute_force_profile, rep.brute_force_mutually_crossing

    def odd_profile(d):
        slow = profile(d)
        return dataclasses.replace(slow, total=slow.total + 1) if d.m % 2 else slow

    monkeypatch.setattr(rep, "brute_force_profile", odd_profile)
    monkeypatch.setattr(rep, "brute_force_mutually_crossing", lambda d: mcn(d) + (d.m % 3 == 0))
    rows = rep.check_oracle_equivalence()
    assert _row(rows, "crossing profile") == ("0 mismatches", "448 mismatches", False)
    assert _row(rows, "mutually crossing number") == ("0 mismatches", "324 mismatches", False)


def test_run_all_calls_each_check_through_the_module(monkeypatch):
    # perfbench traces a criterion by replacing its module attribute, so
    # run_all must look every check_* up there when it runs
    calls: dict[str, int] = {}
    names = [name for name in dir(rep) if name.startswith("check_")]
    assert len(names) == 8
    for name in names:

        def counting(*args, _name=name, _check=getattr(rep, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _check(*args)

        monkeypatch.setattr(rep, name, counting)
    rep.run_all()
    assert calls == dict.fromkeys(names, 1)
