"""Acceptance gate: every headline criterion at its stated bounds.

One test per criterion, run as `twophase all` runs it, on two workers as
`--jobs 2` would; each prints its PASS/FAIL line so a plain pytest run
doubles as the acceptance report (`pytest -s tests/test_acceptance.py`).
Each also holds the line and the `acceptance.json` entry to the checks the
criterion compared.
"""

import contextlib
import io
import json
import sys

import pytest

from twophase import acceptance
from twophase.cli import main
from twophase.errors import Check


@pytest.mark.parametrize("name", [name for name, _ in acceptance.CRITERIA],
                         ids=[name for name, _ in acceptance.CRITERIA])
def test_criterion(name, tmp_path, monkeypatch):
    run_all, runs = acceptance.run_all, []

    def spy(jobs, names):
        runs.append(run_all(jobs, names=names))
        return runs[-1]

    monkeypatch.setattr(acceptance, "run_all", spy)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"criteria": [name]}))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(["all", "--config", str(cfg), "--jobs", "2",
                     "--out", str(tmp_path)])
    [line] = out.getvalue().splitlines()
    print(line, flush=True)
    [[record]] = runs
    assert record.passed and code == 0, line

    labels = [c.label for c in record.checks]
    assert labels and len(set(labels)) == len(labels)
    # the line shows each check as "label value sense bound", the bound in
    # full, between "name: " and " (runtime)"
    head, printed = line.split(": ", 1)
    assert head == f"PASS  {name}"
    printed = printed.rsplit(" (", 1)[0].split("; ")
    [entry] = json.loads((tmp_path / "acceptance.json").read_text())
    assert entry == {"name": name, "pass": True, "checks": entry["checks"],
                     "details": entry["details"]}
    for check, shown, written in zip(record.checks, printed, entry["checks"],
                                     strict=True):
        label, _, sense, bound = shown.rsplit(" ", 3)
        assert (label, sense, float(bound)) == (check.label, check.sense,
                                                check.bound)
        assert written == {"label": check.label, "value": check.value,
                           "bound": check.bound, "sense": check.sense,
                           "pass": True}


@pytest.mark.parametrize("sense, passes", [
    ("<", [True, False, False]), ("<=", [True, True, False]),
    (">", [False, False, True]), (">=", [False, True, True]),
    ("==", [False, True, False])])
def test_a_check_compares_its_value_with_its_bound(sense, passes):
    assert [Check("x", value, 1.0, sense).passed
            for value in (0.5, 1.0, 2.0)] == passes
    assert not Check("x", float("nan"), 1.0, sense).passed


def test_a_failed_check_fails_its_criterion_and_is_marked(monkeypatch):
    monkeypatch.setattr(acceptance, "CRITERIA", [(
        "toy", lambda jobs: ([Check("kept", 1.0, 2.0, "<"),
                             Check("broken", 3.0, 2.0, "<")], {}))])
    [record] = acceptance.run_all(1)
    assert not record.passed
    assert record.line().startswith(
        "FAIL  toy: kept 1 < 2.0; broken 3 !< 2.0 (")


#: the criteria that read the shared WKB engines and their projection slot,
#: with mean-curvature-extraction, which shares their surface catalog
SHARED_STATE = ["wkb-identities", "near-boundary-law",
                "mean-curvature-extraction", "barrier-sandwich",
                "higher-order-coefficient"]


def test_overlapped_criteria_report_what_one_worker_reports():
    def report(jobs):
        return [(r.name, r.passed, [(c.label, c.value, c.bound, c.passed)
                                    for c in r.checks])
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
