"""Acceptance gate: every headline criterion at its stated tolerance.

One test per criterion; each prints its PASS/FAIL line so a plain pytest
run doubles as the acceptance report (`pytest -s tests/test_acceptance.py`).
The criteria run on two workers, as `twophase all --jobs 2` would.
"""

import sys

import pytest

from twophase import acceptance


@pytest.mark.parametrize("name,fn", acceptance.CRITERIA,
                         ids=[name for name, _ in acceptance.CRITERIA])
def test_criterion(name, fn):
    import time
    t0 = time.perf_counter()
    record = fn(jobs=2)
    record.runtime = time.perf_counter() - t0
    print(record.line(), flush=True)
    assert record.passed, record.line()


#: the criteria that read the shared WKB engines and their projection slot,
#: with mean-curvature-extraction, which shares their surface catalog
SHARED_STATE = ["wkb-identities", "near-boundary-law",
                "mean-curvature-extraction", "barrier-sandwich",
                "higher-order-coefficient"]


def test_overlapped_criteria_report_what_one_worker_reports():
    def report(jobs):
        return [(r.name, r.passed, r.measured)
                for r in acceptance.run_all(jobs, names=SHARED_STATE)]

    serial = report(1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = report(4)
    finally:
        sys.setswitchinterval(interval)
    assert [name for name, *_ in serial] == SHARED_STATE
    assert pooled == serial
