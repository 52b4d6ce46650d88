"""Sweep the innovation rate and compare empirical speed to the closed form.

Emits CSV: p, mean of S_check(n)/n over the replicas, Monte Carlo sd of
that mean, and the predicted velocity p*m1/(2-p).

Usage:
    python scripts/velocity_sweep.py [--n 20000] [--reps 64] [--mu dirac:1]
                                     [--seed 7] [--out velocity_sweep.csv]
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction

from counterwalk.asymptotics import velocity
from counterwalk.cli import OutputError, _emit
from counterwalk.replication import child_seed
from counterwalk.walk_engine import parse_mu_spec, simulate_batch

P_GRID = [Fraction(k, 10) for k in range(0, 11)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=20_000)
    parser.add_argument("--reps", type=int, default=64)
    parser.add_argument("--mu", default="dirac:1")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    try:
        law = parse_mu_spec(args.mu)
    except ValueError as exc:
        parser.error(str(exc))
    if law.m1 is None:
        parser.error("the chosen step law has no mean; velocity is undefined")

    lines = ["p,mean_speed,mc_sd,predicted"]
    for i, p in enumerate(P_GRID):
        speeds = simulate_batch(args.n, p, law, args.reps, child_seed(args.seed, i)) / args.n
        mean = float(speeds.mean())
        sd = float(speeds.std(ddof=1)) / math.sqrt(args.reps)
        lines.append(f"{float(p)!r},{mean!r},{sd!r},{float(velocity(p, law.m1))!r}")

    try:
        _emit(lines, args.out)
    except OutputError as exc:  # a full disk or a closed pipe: one line, as the CLI does
        parser.exit(exc.exit_code, f"{parser.prog}: error: {exc}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
