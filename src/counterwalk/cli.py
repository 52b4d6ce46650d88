"""Command-line entry point.

Subcommands::

    simulate --n N --p P --mu SPEC --reps M --seed S [--traj-every T] [--out FILE]
    exact odd-pmf --n N
    exact delta-pmf --n N
    exact walk-oracle --n N --p P --mu SPEC
    table eulerian --n N
    sample rrt --n N --reps M --seed S [--out FILE]
    limits --p P --mu SPEC [--kmax K]
    limits stable --alpha A --p P --theta T [--kmax K] [--phi1 F]
    verify all [--seed S] [--fast]

Exact quantities are emitted as ``numerator/denominator`` strings, never
floats; floats appear only in simulation summaries.  Every CSV output
starts with a column header followed by a comment line carrying the
package version, the seed, and a hash of the canonical configuration, so
reruns are byte-identical and self-describing.

Exit codes: 0 success, 1 failed verification checks, 2 usage or grammar
errors, 3 cap violations, 4 output I/O errors.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

from . import __version__
from . import asymptotics as asym
from .acceptance import DEFAULT_SEED, run_all
from .eulerian import ExactPmf, delta_pmf, eulerian_row, odd_count_pmf
from .recursive_tree import parity_profile, sample_rrt
from .replication import replica_seeds, run_replicas
from .verify import BRUTE_FORCE_MAX_N, brute_force_walk_pmf
from .walk_engine import StepLaw, forest_census, parse_mu_spec, simulate_seeded


class CliError(Exception):
    exit_code = 2


class CapError(CliError):
    exit_code = 3


class OutputError(CliError):
    exit_code = 4


@dataclass(frozen=True)
class ExperimentConfig:
    """Canonical, hashable description of one CLI invocation."""

    command: str
    options: tuple[tuple[str, str], ...] = field(default=())

    def canonical(self) -> str:
        body = ",".join(f"{k}={v}" for k, v in sorted(self.options))
        return f"{self.command}[{body}]"

    def digest(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:12]


def _config(command: str, **options) -> ExperimentConfig:
    opts = tuple((k, str(v)) for k, v in options.items() if v is not None)
    return ExperimentConfig(command, opts)


def _comment_line(config: ExperimentConfig, seed: int | None) -> str:
    seed_part = f" seed={seed}" if seed is not None else ""
    return f"# counterwalk={__version__}{seed_part} config={config.digest()}"


def _emit(lines: list[str], out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OutputError(f"cannot write {out!r}: {exc}") from exc


def _parse_fraction(text: str, name: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise CliError(f"{name} must be a rational number like 1/2 or 0.25, got {text!r}") from None


def _parse_prob(text: str, name: str = "--p") -> Fraction:
    p = _parse_fraction(text, name)
    if not 0 <= p <= 1:
        raise CliError(f"{name} must lie in [0, 1], got {text}")
    return p


def _parse_law(text: str) -> StepLaw:
    try:
        return parse_mu_spec(text)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _pmf_rows(pmf: ExactPmf) -> list[tuple[str, int, int]]:
    denom = math.lcm(*(p.denominator for p in pmf.probs))
    return [(str(v), p.numerator * (denom // p.denominator), denom) for v, p in pmf.items()]


# ---------------------------------------------------------------- simulate


def _replica(n: int, p: Fraction, law: StepLaw, traj_every: int, task: tuple[int, int]):
    rep, seed = task
    run = simulate_seeded(n, p, law, seed)
    nu1 = forest_census(run, shape_cap=1).nu.get(1, 0)
    summary = (rep, n, run.innovations, float(run.final_check), float(run.final_hat), nu1)
    traj = []
    if traj_every > 0:
        at = slice(traj_every - 1, None, traj_every)
        steps = range(traj_every, n + 1, traj_every)
        s_check = run.as_float(run.s_check[at]).tolist()
        s_hat = run.as_float(run.s_hat[at]).tolist()
        traj = [(rep, step, c, h) for step, c, h in zip(steps, s_check, s_hat)]
    return summary, traj


def _cmd_simulate(args) -> int:
    p = _parse_prob(args.p)
    law = _parse_law(args.mu)
    if args.n < 1:
        raise CliError("--n must be >= 1")
    if args.reps < 1:
        raise CliError("--reps must be >= 1")
    if args.traj_every < 0:
        raise CliError("--traj-every must be >= 0")
    config = _config(
        "simulate", n=args.n, p=p, mu=law.spec_string(), reps=args.reps,
        seed=args.seed, traj_every=args.traj_every,
    )
    replica = partial(_replica, args.n, p, law, args.traj_every)
    results = run_replicas(replica, list(enumerate(replica_seeds(args.seed, args.reps))))

    lines = ["rep,n,i_n,S_check,S_hat,nu1", _comment_line(config, args.seed)]
    for summary, _ in results:
        rep, n, i_n, s_check, s_hat, nu1 = summary
        lines.append(f"{rep},{n},{i_n},{s_check!r},{s_hat!r},{nu1}")
    if args.traj_every > 0:
        lines.append("# trajectory: rep,step,S_check,S_hat")
        for _, traj in results:
            for rep, step, s_check, s_hat in traj:
                lines.append(f"{rep},{step},{s_check!r},{s_hat!r}")
    _emit(lines, args.out)
    return 0


# ---------------------------------------------------------------- exact


def _cmd_exact(args) -> int:
    if args.n < 1:
        raise CliError("--n must be >= 1")
    if args.exact_mode == "odd-pmf":
        config = _config("exact-odd-pmf", n=args.n)
        rows = _pmf_rows(odd_count_pmf(args.n))
        lines = ["ell,numerator,denominator", _comment_line(config, None)]
    elif args.exact_mode == "delta-pmf":
        config = _config("exact-delta-pmf", n=args.n)
        rows = _pmf_rows(delta_pmf(args.n))
        lines = ["delta,numerator,denominator", _comment_line(config, None)]
    else:  # walk-oracle
        p = _parse_prob(args.p)
        law = _parse_law(args.mu)
        if args.n > BRUTE_FORCE_MAX_N:
            raise CapError(f"--n is capped at {BRUTE_FORCE_MAX_N} for the exhaustive oracle")
        if law.discrete_support is None or len(law.discrete_support) > 2:
            raise CapError("the exhaustive oracle needs a discrete step law with at most 2 values")
        config = _config("exact-walk-oracle", n=args.n, p=p, mu=law.spec_string())
        rows = _pmf_rows(brute_force_walk_pmf(args.n, p, law))
        lines = ["value,numerator,denominator", _comment_line(config, None)]
    lines.extend(f"{v},{num},{den}" for v, num, den in rows)
    _emit(lines, args.out)
    return 0


# ---------------------------------------------------------------- table


def _cmd_table(args) -> int:
    if args.n < 0:
        raise CliError("--n must be >= 0")
    config = _config("table-eulerian", n=args.n)
    row = eulerian_row(args.n)
    lines = ["k,value", _comment_line(config, None)]
    if args.n == 0:
        lines.append("-1,1")
    else:
        lines.extend(f"{k},{value}" for k, value in enumerate(row.values))
    _emit(lines, args.out)
    return 0


# ---------------------------------------------------------------- sample


def _cmd_sample(args) -> int:
    if args.n < 1:
        raise CliError("--n must be >= 1")
    if args.reps < 1:
        raise CliError("--reps must be >= 1")
    import random

    config = _config("sample-rrt", n=args.n, reps=args.reps, seed=args.seed)
    lines = ["rep,even,odd,delta", _comment_line(config, args.seed)]
    for rep, seed in enumerate(replica_seeds(args.seed, args.reps)):
        tree = sample_rrt(args.n, random.Random(seed))
        even, odd, delta = parity_profile(tree)
        lines.append(f"{rep},{even},{odd},{delta}")
    _emit(lines, args.out)
    return 0


# ---------------------------------------------------------------- limits


def _cmd_limits(args) -> int:
    if args.limits_mode == "stable":
        return _cmd_limits_stable(args)
    if args.p is None or args.mu is None:
        raise CliError("limits needs --p and --mu")
    p = _parse_prob(args.p)
    if p == 0:
        raise CliError("limit constants are undefined at p = 0; use the exact parity laws instead")
    law = _parse_law(args.mu)
    if args.kmax < 1:
        raise CliError("--kmax must be >= 1")
    constants = asym.limit_constants(p, law.m1, law.m2, kmax=args.kmax)
    config = _config("limits", p=p, mu=law.spec_string(), kmax=args.kmax)
    lines = ["quantity,exact,decimal", _comment_line(config, None)]

    def add(name: str, value: Fraction | None) -> None:
        if value is not None:
            lines.append(f"{name},{value},{float(value)!r}")

    add("velocity", constants.velocity)
    add("clt_variance", constants.clt_variance)
    add("nu1_clt_variance", constants.nu1_variance)
    add("rho", constants.rho)
    if constants.sigma_sq is not None:
        for k in sorted(constants.sigma_sq):
            add(f"sigma_sq_{k}", constants.sigma_sq[k])
    if constants.yule_simon is not None:
        for k in sorted(constants.yule_simon):
            add(f"yule_simon_{k}", constants.yule_simon[k])
    _emit(lines, args.out)
    return 0


def _cmd_limits_stable(args) -> int:
    p = _parse_prob(args.p)
    if p == 0 or p == 1:
        raise CliError("the stable exponent needs p strictly inside (0, 1)")
    if not 0 < args.alpha < 2:
        raise CliError("--alpha must lie in (0, 2)")
    if args.kmax < 1:
        raise CliError("--kmax must be >= 1")
    spec = asym.StableSpec(args.alpha, args.phi1)
    value, tail = asym.stable_check_exponent(args.theta, p, spec, kmax=args.kmax)
    config = _config(
        "limits-stable", alpha=args.alpha, p=p, theta=args.theta,
        kmax=args.kmax, phi1=args.phi1,
    )
    lines = [
        "quantity,value",
        _comment_line(config, None),
        f"value,{value!r}",
        f"tail_estimate,{tail!r}",
    ]
    _emit(lines, args.out)
    return 0


# ---------------------------------------------------------------- verify


def _cmd_verify(args) -> int:
    failures = 0

    def emit(report) -> None:
        nonlocal failures
        if not report.passed:
            failures += 1
        sys.stdout.write(report.to_json() + "\n")
        sys.stdout.flush()

    run_all(seed=args.seed, fast=args.fast, emit=emit)
    return 1 if failures else 0


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="counterwalk",
        description="Simulation and exact verification of random walks with counterbalanced steps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run replicated walk simulations")
    sim.add_argument("--n", type=int, required=True, help="horizon (number of steps)")
    sim.add_argument("--p", required=True, help="innovation probability (rational, e.g. 1/2)")
    sim.add_argument("--mu", required=True, help="step law: rademacher | dirac:C | uniform | gauss:M,V | pareto:A")
    sim.add_argument("--reps", type=int, default=1)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--traj-every", type=int, default=0, dest="traj_every",
                     help="also emit trajectory rows every T steps")
    sim.add_argument("--out", default=None, help="output CSV path (default: stdout)")
    sim.set_defaults(fn=_cmd_simulate)

    exact = sub.add_parser("exact", help="exact finite-size laws")
    exact_sub = exact.add_subparsers(dest="exact_mode", required=True)
    for mode, needs_walk in (("odd-pmf", False), ("delta-pmf", False), ("walk-oracle", True)):
        ep = exact_sub.add_parser(mode)
        ep.add_argument("--n", type=int, required=True)
        if needs_walk:
            ep.add_argument("--p", required=True)
            ep.add_argument("--mu", required=True)
        ep.add_argument("--out", default=None)
        ep.set_defaults(fn=_cmd_exact)

    table = sub.add_parser("table", help="exact integer tables")
    table_sub = table.add_subparsers(dest="table_mode", required=True)
    te = table_sub.add_parser("eulerian")
    te.add_argument("--n", type=int, required=True)
    te.add_argument("--out", default=None)
    te.set_defaults(fn=_cmd_table)

    sample = sub.add_parser("sample", help="sample random recursive trees")
    sample_sub = sample.add_subparsers(dest="sample_mode", required=True)
    sr = sample_sub.add_parser("rrt")
    sr.add_argument("--n", type=int, required=True)
    sr.add_argument("--reps", type=int, default=1)
    sr.add_argument("--seed", type=int, default=0)
    sr.add_argument("--out", default=None)
    sr.set_defaults(fn=_cmd_sample)

    limits = sub.add_parser("limits", help="closed-form limit constants")
    limits_sub = limits.add_subparsers(dest="limits_mode")
    limits.add_argument("--p", default=None)
    limits.add_argument("--mu", default=None)
    limits.add_argument("--kmax", type=int, default=8)
    limits.add_argument("--out", default=None)
    limits.set_defaults(fn=_cmd_limits, limits_mode=None)
    ls = limits_sub.add_parser("stable")
    ls.add_argument("--alpha", type=float, required=True)
    ls.add_argument("--p", required=True)
    ls.add_argument("--theta", type=float, required=True)
    ls.add_argument("--kmax", type=int, default=50)
    ls.add_argument("--phi1", type=float, default=1.0,
                    help="unit value of the input characteristic exponent")
    ls.add_argument("--out", default=None)
    ls.set_defaults(fn=_cmd_limits, limits_mode="stable")

    verify = sub.add_parser("verify", help="run the acceptance suite")
    verify_sub = verify.add_subparsers(dest="verify_mode", required=True)
    va = verify_sub.add_parser("all")
    va.add_argument("--seed", type=int, default=DEFAULT_SEED)
    va.add_argument("--fast", action="store_true",
                    help="10x smaller replica counts/horizons with widened bands (smoke mode)")
    va.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
