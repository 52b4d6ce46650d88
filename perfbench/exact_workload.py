"""The ``exact`` workload: one cold process through the exact-arithmetic layers.

Usage::

    python3 perfbench/exact_workload.py --seed S --out-dir DIR [--fast]

Runs Eulerian rows past the memo cap, the odd-count and parity-difference
laws, exact parity moments, the exhaustive walk oracle, the float series and
the shape series, then the ``table eulerian`` and ``exact delta-pmf``
commands writing to files.  Every result is checked against an identity that
holds for any correct implementation.  The seed only picks which entries of
the large row are cross-checked by the alternating-sum route.  The last line
of standard output is ``{"attempted": A, "failed": F, "failures": [...]}``.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

from counterwalk import asymptotics as asym
from counterwalk import cli
from counterwalk.eulerian import (
    ROW_MEMO_CAP,
    delta_moment,
    delta_pmf,
    eulerian_number_by_sum,
    eulerian_row,
    odd_count_pmf,
)
from counterwalk.verify import brute_force_walk_pmf
from counterwalk.walk_engine import StepLaw

# sizes: (row past the memo cap, cross-checked entries, pmf sizes,
#         largest moment size, delta-pmf command size)
SIZES = {
    False: (800, 24, (300, 600), 150, 500),
    True: (ROW_MEMO_CAP + 20, 4, (40, 60), 20, 50),
}
SERIES_TERMS = 10_000
ORACLE_N = 7
ORACLE_PS = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))
MOMENT_PAIRS = ((Fraction(1), Fraction(1)), (Fraction(0), Fraction(1)), (Fraction(1), Fraction(2)))
SERIES_TOLERANCE = 1e-3
HALF = Fraction(1, 2)


class Checks:
    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _csv_rows(path: Path) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.split(",") for line in lines[2:]]


def run(seed: int, out_dir: Path, fast: bool) -> Checks:
    row_n, samples, pmf_ns, moment_n, dpmf_n = SIZES[fast]
    checks = Checks()

    row = eulerian_row(row_n)
    checks.expect(sum(row.values) == math.factorial(row_n), f"row {row_n} sum")
    for k in sorted(random.Random(seed).sample(range(row_n), samples)):
        checks.expect(row.values[k] == eulerian_number_by_sum(row_n, k), f"<{row_n},{k}> routes")

    for n in pmf_ns:
        checks.expect(sum(odd_count_pmf(n).probs) == 1, f"odd-count pmf {n} mass")
        law = delta_pmf(n)
        checks.expect(sum(law.probs) == 1, f"delta pmf {n} mass")
        checks.expect(law.mean() == 0, f"delta pmf {n} mean")
    for n in range(3, moment_n + 1):
        checks.expect(delta_moment(n, 2) == Fraction(n, 3), f"delta second moment {n}")

    for law in (StepLaw.dirac(1), StepLaw.rademacher()):
        for p in ORACLE_PS:
            pmf = brute_force_walk_pmf(ORACLE_N, p, law)
            what = f"oracle n={ORACLE_N} p={p} mu={law.spec_string()}"
            checks.expect(sum(pmf.probs) == 1, f"{what} mass")
            checks.expect(pmf.mean() == asym.exact_mean(ORACLE_N, p, law.m1), f"{what} mean")

    for m1, m2 in MOMENT_PAIRS:
        s = asym.sigma_sq_series(HALF, m1, m2, kmax=SERIES_TERMS)
        rel_total = abs(s["sigma_total"] - s["clt_variance"]) / s["clt_variance"]
        rel_closing = abs(s["closing_lhs"] - s["closing_rhs"]) / s["closing_rhs"]
        checks.expect(rel_total <= SERIES_TOLERANCE, f"sigma resummation m1={m1} m2={m2}")
        checks.expect(rel_closing <= SERIES_TOLERANCE, f"closing identity m1={m1} m2={m2}")
    ys = asym.yule_simon_series(HALF, kmax=SERIES_TERMS)
    checks.expect(abs(ys["mass"] + ys["mass_tail"] - 1) <= SERIES_TOLERANCE, "yule-simon mass")
    checks.expect(abs(ys["mean"] + ys["mean_tail"] - 1 / HALF) * HALF <= SERIES_TOLERANCE,
                  "yule-simon mean")
    sws = asym.shape_weighted_sum(HALF, size_cap=9)
    checks.expect(sws.total == sws.truncated + sws.tail and sws.truncated > 0, "shape series")

    table = out_dir / "eulerian.csv"
    checks.expect(cli.main(["table", "eulerian", "--n", str(row_n), "--out", str(table)]) == 0,
                  "table eulerian exit code")
    values = tuple(int(v) for _, v in _csv_rows(table))
    checks.expect(values == row.values, f"table eulerian --n {row_n} matches the row")

    pmf_file = out_dir / "delta_pmf.csv"
    checks.expect(cli.main(["exact", "delta-pmf", "--n", str(dpmf_n), "--out", str(pmf_file)]) == 0,
                  "exact delta-pmf exit code")
    rows = [(int(v), int(num), int(den)) for v, num, den in _csv_rows(pmf_file)]
    checks.expect(len({den for _, _, den in rows}) == 1
                  and sum(num for _, num, _ in rows) == rows[0][2], f"delta-pmf {dpmf_n} mass")
    by_value = {v: num for v, num, _ in rows}
    checks.expect(all(by_value.get(-v) == num for v, num in by_value.items()),
                  f"delta-pmf {dpmf_n} symmetry")
    return checks


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--fast", action="store_true", help="small sizes for the self-check")
    args = parser.parse_args(argv)
    checks = run(args.seed, args.out_dir, args.fast)
    print(json.dumps({"attempted": checks.attempted, "failed": len(checks.failures),
                      "failures": checks.failures[:10]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
