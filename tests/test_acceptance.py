"""Full-scale acceptance gate.

Each criterion runs at its official scale with its pinned seed and prints
one PASS/FAIL line; run with ``pytest tests/test_acceptance.py -v -s`` to
see them stream.  The same checks back ``counterwalk verify all``.
"""

import math
from fractions import Fraction

import pytest

from counterwalk import asymptotics
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
    assert all(math.isfinite(report.threshold) for report in reports)


def test_c12_detects_a_small_component_error(monkeypatch):
    exact = asymptotics.sigma_sq_k

    def off(k, p, m1, m2):
        return exact(k, p, m1, m2) * (1 + Fraction(1, 10**9) if k >= 3 else 1)

    monkeypatch.setattr(asymptotics, "sigma_sq_k", off)
    reports = run_criterion("c12", seed=DEFAULT_SEED, fast=True)
    assert [r.passed for r in reports] == [False, False]


def test_c14_identity_detects_a_parity_moment_error(monkeypatch):
    exact = asymptotics.delta_moment

    def off(n, r):
        return exact(n, r) * (1 + Fraction(1, 10**12) if (n, r) == (5, 2) else 1)

    monkeypatch.setattr(asymptotics, "delta_moment", off)
    reports = run_criterion("c14", seed=DEFAULT_SEED, fast=True)
    assert not next(r for r in reports if r.name == "c14_shape_series_identity").passed
