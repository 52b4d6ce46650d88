"""Profile the Gaussian limit of the centered, sqrt(n)-scaled walk.

Emits CSV with the empirical quantiles of the standardized final positions
next to the Gaussian quantiles predicted by the closed-form variance, plus
a summary comment line with the sample variance.

Usage:
    python scripts/clt_profile.py [--n 10000] [--reps 4000] [--p 1/2]
                                  [--mu dirac:1] [--seed 11] [--out clt.csv]
"""

from __future__ import annotations

import argparse
import math
import sys
from statistics import NormalDist

import numpy as np

from counterwalk.asymptotics import clt_variance, velocity
from counterwalk.cli import OutputError, _emit, _seed
from counterwalk.walk_engine import parse_mu_spec, simulate_batch

QUANTILES = [0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=10_000)
    parser.add_argument("--reps", type=int, default=4_000)
    parser.add_argument("--p", default="1/2")
    parser.add_argument("--mu", default="dirac:1")
    parser.add_argument("--seed", type=_seed, default=11)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    try:
        law = parse_mu_spec(args.mu)
        if law.m1 is None or law.m2 is None:
            parser.error("the chosen step law needs two finite moments")
        # refuses a p that is not a rational number in (0, 1]: the diffusive limit needs p > 0
        target_var = float(clt_variance(args.p, law.m1, law.m2))
    except ValueError as exc:
        parser.error(str(exc))
    drift = float(velocity(args.p, law.m1))
    finals = simulate_batch(args.n, args.p, law, args.reps, args.seed)
    y = (finals - drift * args.n) / math.sqrt(args.n)

    lines = ["quantile,empirical,gaussian"]
    lines.append(
        f"# sample_variance={float(y.var(ddof=1))!r} target_variance={target_var!r} reps={args.reps} n={args.n}"
    )
    gauss = NormalDist(0.0, math.sqrt(target_var))
    for q in QUANTILES:
        emp = float(np.quantile(y, q))
        lines.append(f"{q},{emp!r},{gauss.inv_cdf(q)!r}")

    try:
        _emit(lines, args.out)
    except OutputError as exc:  # a full disk or a closed pipe: one line, as the CLI does
        parser.exit(exc.exit_code, f"{parser.prog}: error: {exc}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
