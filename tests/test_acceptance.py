"""Full-scale acceptance gate.

Each criterion runs at its official scale with its pinned seed and prints
one PASS/FAIL line; run with ``pytest tests/test_acceptance.py -v -s`` to
see them stream.  The same checks back ``counterwalk verify all``.
"""

import pytest

from counterwalk.acceptance import ACCEPTANCE_CRITERIA, DEFAULT_SEED, run_criterion

CRITERIA_IDS = [cid for cid, _, _ in ACCEPTANCE_CRITERIA]
TITLES = {cid: title for cid, title, _ in ACCEPTANCE_CRITERIA}


@pytest.mark.parametrize("cid", CRITERIA_IDS)
def test_criterion(cid):
    reports = run_criterion(cid, seed=DEFAULT_SEED, fast=False)
    assert reports, f"criterion {cid} produced no reports"
    ok = all(report.passed for report in reports)
    worst = max(reports, key=lambda r: r.margin)
    status = "PASS" if ok else "FAIL"
    print(
        f"{status} {cid} {TITLES[cid]}: {len(reports)} check(s), "
        f"worst {worst.name} value={worst.value:.6g} threshold={worst.threshold:.6g}"
    )
    failing = [report.name for report in reports if not report.passed]
    assert ok, f"{cid} failed checks: {failing}"
