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
        (--p, --kmax and --out may also come before `stable`)
    verify all [--seed S] [--fast]    (per-criterion times and margins on stderr)

Exact quantities are emitted as ``numerator/denominator`` strings, never
floats; floats appear only in simulation summaries.  Every CSV output
starts with a column header followed by a comment line carrying the
package version, the seed, and a hash of the canonical configuration, so
reruns are byte-identical and self-describing.

Exit codes: 0 success, 1 failed verification checks, 2 usage or grammar
errors, 3 cap violations (a result beyond the float range among them), 4
output I/O errors.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager

from . import __version__

# Start-up loads only this dispatcher (`site` has loaded `contextlib`
# already); `build_parser` adds `argparse`, and every handler imports its
# own layers and stdlib modules when called.  So `--help` and usage errors
# load no layer, `exact`, `table` and `limits` (stable too) never load
# numpy, and `simulate`, which adds `replication` and `walk_engine`, never
# loads the acceptance suite, the verifier or the asymptotics.


class CliError(Exception):
    exit_code = 2


class CapError(CliError):
    exit_code = 3


class OutputError(CliError):
    exit_code = 4


def _comment_line(seed: int | None, command: str, /, **options) -> str:
    """The comment line of a CSV output: package version, seed, and a hash
    of the canonical ``command[k=v,...]`` (options sorted, ``None`` dropped).
    ``seed`` is positional-only so that it can also be hashed as an option."""
    import hashlib

    body = ",".join(f"{k}={v}" for k, v in sorted(options.items()) if v is not None)
    digest = hashlib.sha256(f"{command}[{body}]".encode()).hexdigest()[:12]
    seed_part = f" seed={seed}" if seed is not None else ""
    return f"# counterwalk={__version__}{seed_part} config={digest}"


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
    from fractions import Fraction

    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise CliError(f"{name} must be a rational number like 1/2 or 0.25, got {text!r}") from None


def _parse_prob(text: str, name: str = "--p") -> Fraction:
    p = _parse_fraction(text, name)
    if not 0 <= p <= 1:
        raise CliError(f"{name} must lie in [0, 1], got {text}")
    return p


def _parse_law(text: str):
    from .walk_engine import parse_mu_spec

    try:
        return parse_mu_spec(text)
    except ValueError as exc:
        raise CliError(str(exc)) from None


@contextmanager
def _float_range(quantity: str):
    """Report a float result past the float range as a cap error naming ``quantity``."""
    try:
        yield
    except OverflowError:
        raise CapError(f"result beyond the float range: {quantity}") from None


# ---------------------------------------------------------------- simulate


def _cmd_simulate(args) -> int:
    from .replication import child_seed
    from .walk_engine import forest_census, simulate

    p = _parse_prob(args.p)
    law = _parse_law(args.mu)
    if args.n < 1:
        raise CliError("--n must be >= 1")
    if args.reps < 1:
        raise CliError("--reps must be >= 1")
    if args.traj_every < 0:
        raise CliError("--traj-every must be >= 0")
    comment = _comment_line(
        args.seed, "simulate", n=args.n, p=p, mu=law.spec_string(), reps=args.reps,
        seed=args.seed, traj_every=args.traj_every,
    )
    lines = ["rep,n,i_n,S_check,S_hat,nu1", comment]
    every = args.traj_every
    traj = ["# trajectory: rep,step,S_check,S_hat"] if every > 0 else []
    for rep in range(args.reps):
        run = simulate(args.n, p, law, child_seed(args.seed, rep))
        nu1 = forest_census(run).get(1, 0)
        # trajectories never overflow first: float-law partial sums are floats
        # already, rademacher positions stay within n, and under dirac:C the
        # final reinforced position n*C bounds every earlier position
        with _float_range(f"the final position of replica {rep}"):
            final_check, final_hat = float(run.final_check), float(run.final_hat)
        lines.append(f"{rep},{args.n},{run.innovations},{final_check!r},{final_hat!r},{nu1}")
        if every > 0:
            at = slice(every - 1, None, every)
            steps = range(every, args.n + 1, every)
            s_check = run.as_float(run.s_check[at]).tolist()
            s_hat = run.as_float(run.s_hat[at]).tolist()
            traj.extend(f"{rep},{step},{c!r},{h!r}" for step, c, h in zip(steps, s_check, s_hat))
    _emit(lines + traj, args.out)
    return 0


# ---------------------------------------------------------------- exact


def _cmd_exact(args) -> int:
    from .eulerian import delta_pmf, odd_count_pmf

    if args.n < 1:
        raise CliError("--n must be >= 1")
    if args.exact_mode == "odd-pmf":
        pmf = odd_count_pmf(args.n)
        lines = ["ell,numerator,denominator", _comment_line(None, "exact-odd-pmf", n=args.n)]
    elif args.exact_mode == "delta-pmf":
        pmf = delta_pmf(args.n)
        lines = ["delta,numerator,denominator", _comment_line(None, "exact-delta-pmf", n=args.n)]
    else:  # walk-oracle
        from .verify import brute_force_walk_pmf

        p = _parse_prob(args.p)
        law = _parse_law(args.mu)
        try:
            pmf = brute_force_walk_pmf(args.n, p, law)
        except ValueError as exc:  # horizon cap or a law off {+c, -c}
            raise CapError(str(exc)) from None
        comment = _comment_line(None, "exact-walk-oracle", n=args.n, p=p, mu=law.spec_string())
        lines = ["value,numerator,denominator", comment]
    den = str(pmf.denom)  # one shared denominator: format it once per table
    lines.extend(f"{v},{num},{den}" for v, num in zip(pmf.values, pmf.weights))
    _emit(lines, args.out)
    return 0


# ---------------------------------------------------------------- table


def _cmd_table(args) -> int:
    from .eulerian import eulerian_row

    if args.n < 0:
        raise CliError("--n must be >= 0")
    row = eulerian_row(args.n)
    lines = ["k,value", _comment_line(None, "table-eulerian", n=args.n)]
    if args.n == 0:
        lines.append("-1,1")
    else:
        # the row is symmetric: format its first half, and give each later
        # entry the digits of its twin <n, n-1-k>, which is line n + 1 - k
        half = (args.n + 1) // 2
        lines.extend(f"{k},{value}" for k, value in enumerate(row.values[:half]))
        for k in range(half, args.n):
            lines.append(f"{k},{lines[args.n + 1 - k].partition(',')[2]}")
    _emit(lines, args.out)
    return 0


# ---------------------------------------------------------------- sample


def _cmd_sample(args) -> int:
    from .recursive_tree import sample_odd_counts

    if args.n < 1:
        raise CliError("--n must be >= 1")
    if args.reps < 1:
        raise CliError("--reps must be >= 1")
    comment = _comment_line(args.seed, "sample-rrt", n=args.n, reps=args.reps, seed=args.seed)
    lines = ["rep,even,odd,delta", comment]
    for rep, odd in enumerate(sample_odd_counts(args.n, args.reps, args.seed).tolist()):
        even = args.n - odd
        lines.append(f"{rep},{even},{odd},{even - odd}")
    _emit(lines, args.out)
    return 0


# ---------------------------------------------------------------- limits


def _cmd_limits(args) -> int:
    from . import asymptotics as asym

    if args.p is None or args.mu is None:
        raise CliError("limits needs --p and --mu")
    p = _parse_prob(args.p)
    if p == 0:
        raise CliError("limit constants are undefined at p = 0; use the exact parity laws instead")
    law = _parse_law(args.mu)
    kmax = 8 if args.kmax is None else args.kmax
    if kmax < 1:
        raise CliError("--kmax must be >= 1")
    comment = _comment_line(None, "limits", p=p, mu=law.spec_string(), kmax=kmax)
    lines = ["quantity,exact,decimal", comment]
    for name, value in asym.limit_constants(p, law.m1, law.m2, kmax=kmax).items():
        with _float_range(f"the constant {name}"):
            lines.append(f"{name},{value},{float(value)!r}")
    _emit(lines, args.out)
    return 0


def _cmd_limits_stable(args) -> int:
    from . import asymptotics as asym

    if args.mu is not None:
        raise CliError("--mu does not apply to limits stable")
    if args.p is None:
        raise CliError("limits stable needs --p")
    p = _parse_prob(args.p)
    if p == 0 or p == 1:
        raise CliError("the stable exponent needs p strictly inside (0, 1)")
    if not 0 < args.alpha < 2:
        raise CliError("--alpha must lie in (0, 2)")
    if not 0 < args.phi1 < float("inf"):
        raise CliError("--phi1 must be finite and > 0")
    kmax = 50 if args.kmax is None else args.kmax
    if kmax < 1:
        raise CliError("--kmax must be >= 1")
    spec = asym.StableSpec(args.alpha, args.phi1)
    with _float_range(f"the exponent at --theta {args.theta!r}"):
        value, tail = asym.stable_check_exponent(args.theta, p, spec, kmax=kmax)
    lines = [
        "quantity,value",
        _comment_line(None, "limits-stable", alpha=args.alpha, p=p, theta=args.theta,
                      kmax=kmax, phi1=args.phi1),
        f"value,{value!r}",
        f"tail_estimate,{tail!r}",
    ]
    _emit(lines, args.out)
    return 0


# ---------------------------------------------------------------- verify


def _cmd_verify(args) -> int:
    """Reports go to stdout, one JSON line each, byte-identical run over run;
    per-criterion wall time and worst margin go to stderr."""
    from .acceptance import DEFAULT_SEED, run_all

    failures = 0
    worst = None

    def done(cid, reports, seconds) -> None:
        nonlocal failures, worst
        failures += sum(not r.passed for r in reports)
        sys.stdout.write("".join(r.to_json() + "\n" for r in reports))
        sys.stdout.flush()
        top = max(reports, key=lambda r: r.margin)
        if worst is None or top.margin > worst.margin:
            worst = top
        sys.stderr.write(f"{cid} {seconds:.3f} s, worst margin {top.margin:.4f} {top.name}\n")

    seed = DEFAULT_SEED if args.seed is None else args.seed
    run_all(seed=seed, fast=args.fast, done=done)
    if worst is not None:
        sys.stderr.write(f"worst margin {worst.margin:.4f} {worst.name}, {failures} failed, "
                         f"peak RSS {_peak_rss_mb():.1f} MB\n")
    return 1 if failures else 0


def _peak_rss_mb() -> float:
    """This process's peak resident set size in MB: Linux's ``VmHWM`` where
    it exists, because ``ru_maxrss`` also counts the process this one was
    started from; else ``ru_maxrss`` (bytes on macOS, KiB elsewhere)."""
    try:
        with open("/proc/self/status") as status:
            return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024
    except (OSError, StopIteration):
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    import argparse

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
    limits.add_argument("--kmax", type=int, default=None)  # the handlers: 8, stable 50
    limits.add_argument("--out", default=None)
    limits.set_defaults(fn=_cmd_limits)
    # a subparser's defaults overwrite what `limits` parsed before `stable`,
    # so the options both accept get none here and the handler fills them in
    ls = limits_sub.add_parser("stable")
    ls.add_argument("--alpha", type=float, required=True)
    ls.add_argument("--p", default=argparse.SUPPRESS)
    ls.add_argument("--theta", type=float, required=True)
    ls.add_argument("--kmax", type=int, default=argparse.SUPPRESS)
    ls.add_argument("--phi1", type=float, default=1.0,
                    help="unit value of the input characteristic exponent (finite, > 0)")
    ls.add_argument("--out", default=argparse.SUPPRESS)
    ls.set_defaults(fn=_cmd_limits_stable)

    verify = sub.add_parser("verify", help="run the acceptance suite")
    verify_sub = verify.add_subparsers(dest="verify_mode", required=True)
    va = verify_sub.add_parser("all")
    va.add_argument("--seed", type=int, default=None)  # None: the suite's pinned seed
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
    except OverflowError as exc:  # a result beyond the float range is never clipped
        sys.stderr.write(f"error: result beyond the float range: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
