"""Acceptance gate: every headline criterion at its stated tolerance.

One test per criterion; each prints its PASS/FAIL line so a plain pytest
run doubles as the acceptance report (`pytest -s tests/test_acceptance.py`).
The criteria run on two workers, as `twophase all --jobs 2` would.
"""

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
