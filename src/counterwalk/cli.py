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

Exit codes: 0 success, 1 failed verification checks (a criterion that
raises included), 2 usage or grammar errors, 3 cap violations (a result
beyond the float range among them), 4 output I/O errors (a stdout that
fails, such as a closed pipe or a full disk, and a `simulate` row spool
that cannot be written, too).
"""

from __future__ import annotations

import itertools
import sys
from collections.abc import Iterable, Iterator
from contextlib import contextmanager, suppress

from . import __version__

# Start-up loads only this dispatcher (`site` has loaded `contextlib` and
# `collections` already); `build_parser` adds `argparse`, and every handler
# imports its own layers and stdlib modules when called.  So `--help` and
# usage errors load no layer (a `--seed` loads `replication`, whose
# `child_seed` checks it), `exact`, `table` and `limits` (stable too) load
# neither numpy nor OpenSSL, and `simulate`, which adds `walk_engine` and
# `replication`, reads every row from a `WalkRun` and spools the rows to
# `tempfile`'s unnamed files (numpy has loaded `tempfile` already), never
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
    body = ",".join(f"{k}={v}" for k, v in sorted(options.items()) if v is not None)
    digest = _sha256()(f"{command}[{body}]".encode()).hexdigest()[:12]
    seed_part = f" seed={seed}" if seed is not None else ""
    return f"# counterwalk={__version__}{seed_part} config={digest}"


def _sha256():
    """CPython's built-in SHA-256, which gives `hashlib`'s bytes without
    mapping OpenSSL's libcrypto, which the exact commands need nothing else
    from; `hashlib` only on an interpreter built without it."""
    for name in ("_sha2", "_sha256"):  # 3.12+, 3.10-3.11
        try:
            return __import__(name).sha256
        except ImportError:
            pass
    import hashlib

    return hashlib.sha256


def _emit(lines: Iterable[str], out: str | None) -> None:
    """Write ``lines``, each ended by a newline, to the file ``out`` or to
    stdout through the file's own buffer.  ``lines`` may be a generator, so
    a table is never held whole; its exact integers may have any number of
    digits, since the int-to-str digit limit (Python 3.10.7+) is lifted
    until the last write and then restored."""
    if out is None:
        with _stdout_errors():
            _write_lines(lines, sys.stdout)
            sys.stdout.flush()
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            _write_lines(lines, fh)
    except OSError as exc:
        raise OutputError(f"cannot write {out!r}: {exc}") from exc


@contextmanager
def _stdout_errors():
    """Report a failed stdout write (a closed pipe, a full disk) as an
    output error."""
    try:
        yield
    except OSError as exc:
        import os

        # stdout's descriptor goes to the null device, so the interpreter's
        # closing flush of what is still buffered fails no more
        with open(os.devnull, "wb") as null, suppress(AttributeError, OSError, ValueError):
            os.dup2(null.fileno(), sys.stdout.fileno())
        raise OutputError(f"cannot write to stdout: {exc}") from None


def _write_lines(lines: Iterable[str], fh) -> None:
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        fh.writelines(f"{line}\n" for line in lines)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _parse_prob(text: str) -> Fraction:
    from .eulerian import _probability, _rational

    try:
        p = _rational(text, "--p")
    except ValueError:
        raise CliError(f"--p must be a rational number like 1/2 or 0.25, got {text!r}") from None
    try:
        return _probability(p)
    except ValueError:
        raise CliError(f"--p must lie in [0, 1], got {text}") from None


def _parse_law(text: str):
    from .walk_engine import parse_mu_spec

    try:
        return parse_mu_spec(text)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _seed(text: str) -> int:
    """The type of every ``--seed``: an integer that `replication.child_seed`
    takes as a master seed, so that a seed it refuses is a usage error."""
    import argparse

    from .replication import child_seed

    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    try:
        child_seed(seed, 0)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return seed


@contextmanager
def _float_range(quantity: str):
    """Report a float result past the float range as a cap error naming ``quantity``."""
    try:
        yield
    except OverflowError:
        raise CapError(f"result beyond the float range: {quantity}") from None


# ---------------------------------------------------------------- simulate


def _cmd_simulate(args) -> int:
    import tempfile

    from .replication import child_seed
    from .walk_engine import simulate_runs

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
    every = args.traj_every
    steps = range(every, args.n + 1, every) if every > 0 else ()
    runs = simulate_runs(args.n, p, law, (child_seed(args.seed, r) for r in range(args.reps)))
    # each replica's summary and trajectory rows go to two unnamed temporary
    # files as soon as they are formatted, so memory does not grow with
    # --reps; every replica runs before the first write to the output, so a
    # failing one writes nothing
    with (_spool_errors(), tempfile.TemporaryFile("w+", encoding="utf-8") as rows,
          tempfile.TemporaryFile("w+", encoding="utf-8") as traj):
        for rep in range(args.reps):
            run = next(runs)
            # the finals are rounded before the trajectory, and trajectories
            # never overflow first: float-law partial sums are floats already,
            # rademacher positions stay within n, and under dirac:C the final
            # reinforced position n*C bounds every earlier position
            with _float_range(f"the final position of replica {rep}"):
                final_check, final_hat = float(run.final_check), float(run.final_hat)
                if every > 0:
                    s_check = run.as_float(run.s_check[every - 1::every]).tolist()
                    s_hat = run.as_float(run.s_hat[every - 1::every]).tolist()
                    traj.writelines(f"{rep},{step},{c!r},{h!r}\n"
                                    for step, c, h in zip(steps, s_check, s_hat))
            nu1 = int((run.trees[0] == 1).sum())
            rows.write(f"{rep},{args.n},{run.innovations},{final_check!r},{final_hat!r},{nu1}\n")
            # the run and its cached step arrays go before the next is drawn
            # (`enumerate(runs)` would hold each run until the next was drawn)
            del run
        # seeking flushes a spool, so a full disk is found before the output is opened
        rows.seek(0)
        traj.seek(0)
        _emit(itertools.chain(["rep,n,i_n,S_check,S_hat,nu1", comment], (line[:-1] for line in rows),
                              ["# trajectory: rep,step,S_check,S_hat"] if every > 0 else [],
                              (line[:-1] for line in traj)), args.out)
    return 0


@contextmanager
def _spool_errors():
    """Report a temporary file that cannot be made or written as an output error."""
    try:
        yield
    except OSError as exc:
        raise OutputError(f"cannot spool rows to a temporary file: {exc}") from None


# ---------------------------------------------------------------- exact


def _cmd_exact(args) -> int:
    from .eulerian import delta_pmf, odd_count_pmf

    if args.n < 1:
        raise CliError("--n must be >= 1")
    if args.exact_mode == "odd-pmf":
        pmf = odd_count_pmf(args.n)
        header = ["ell,numerator,denominator", _comment_line(None, "exact-odd-pmf", n=args.n)]
    elif args.exact_mode == "delta-pmf":
        pmf = delta_pmf(args.n)
        header = ["delta,numerator,denominator", _comment_line(None, "exact-delta-pmf", n=args.n)]
    else:  # walk-oracle
        from .verify import brute_force_walk_pmf

        p = _parse_prob(args.p)
        law = _parse_law(args.mu)
        try:
            pmf = brute_force_walk_pmf(args.n, p, law)
        except ValueError as exc:  # horizon cap or a law off {+c, -c}
            raise CapError(str(exc)) from None
        comment = _comment_line(None, "exact-walk-oracle", n=args.n, p=p, mu=law.spec_string())
        header = ["value,numerator,denominator", comment]
    _emit(itertools.chain(header, _pmf_rows(pmf)), args.out)
    return 0


def _pmf_rows(pmf) -> Iterator[str]:
    den = str(pmf.denom)  # one shared denominator: format it once per table
    for v, num in zip(pmf.values, pmf.weights):
        yield f"{v},{num},{den}"


# ---------------------------------------------------------------- table


def _cmd_table(args) -> int:
    from .eulerian import eulerian_row

    if args.n < 0:
        raise CliError("--n must be >= 0")
    row = eulerian_row(args.n)
    header = ["k,value", _comment_line(None, "table-eulerian", n=args.n)]
    _emit(itertools.chain(header, _eulerian_rows(row)), args.out)
    return 0


def _eulerian_rows(row) -> Iterator[str]:
    n = row.n
    if n == 0:
        yield "-1,1"
        return
    # the row is symmetric: format its first half, and give each later
    # entry <n, k> the digits of its twin <n, n-1-k>
    digits = []
    for k in range((n + 1) // 2):
        digits.append(str(row.values[k]))
        yield f"{k},{digits[k]}"
    for k in range(len(digits), n):
        yield f"{k},{digits[n - 1 - k]}"


# ---------------------------------------------------------------- sample


def _cmd_sample(args) -> int:
    from .recursive_tree import sample_odd_counts

    if args.n < 1:
        raise CliError("--n must be >= 1")
    if args.reps < 1:
        raise CliError("--reps must be >= 1")
    comment = _comment_line(args.seed, "sample-rrt", n=args.n, reps=args.reps, seed=args.seed)
    odds = sample_odd_counts(args.n, args.reps, args.seed)
    _emit(itertools.chain(["rep,even,odd,delta", comment], _rrt_rows(args.n, odds)), args.out)
    return 0


def _rrt_rows(n: int, odds) -> Iterator[str]:
    # the counts become Python ints a chunk at a time, so only the int64
    # array grows with --reps
    chunk = 4096
    for start in range(0, len(odds), chunk):
        for rep, odd in enumerate(odds[start:start + chunk].tolist(), start):
            yield f"{rep},{n - odd},{odd},{n - 2 * odd}"


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
    try:
        constants = asym.limit_constants(p, law.m1, law.m2, kmax=kmax)
    except ValueError as exc:
        raise CliError(f"--kmax {kmax}: {exc}") from None
    comment = _comment_line(None, "limits", p=p, mu=law.spec_string(), kmax=kmax)
    lines = ["quantity,exact,decimal", comment]
    for name, value in constants.items():
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
    try:
        p = asym._open01(_parse_prob(args.p))
    except ValueError as exc:
        raise CliError(f"--p {args.p}: {exc}") from None
    try:
        spec = asym.StableSpec(args.alpha, args.phi1)
    except ValueError as exc:
        raise CliError(f"--alpha {args.alpha!r} --phi1 {args.phi1!r}: {exc}") from None
    kmax = 50 if args.kmax is None else args.kmax
    with _float_range(f"the exponent at --theta {args.theta!r}"):
        try:
            value, tail = asym.stable_check_exponent(args.theta, p, spec, kmax=kmax)
        except ValueError as exc:
            raise CliError(f"--kmax {kmax} --theta {args.theta!r}: {exc}") from None
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
    per-criterion wall time and worst margin go to stderr.  A criterion that
    raises a `ValueError` or `ArithmeticError` (a broken layer refusing its
    own output) fails the gate, after the reports of those before it."""
    import time

    from .acceptance import ACCEPTANCE_CRITERIA, DEFAULT_SEED, run_criterion

    seed = DEFAULT_SEED if args.seed is None else args.seed
    failures, worst = 0, None
    for cid, _, _ in ACCEPTANCE_CRITERIA:
        start = time.perf_counter()
        try:
            reports = run_criterion(cid, seed, args.fast)
        except (ValueError, ArithmeticError) as exc:
            sys.stderr.write(f"error: {cid} raised {type(exc).__name__}: {exc}\n")
            return 1
        seconds = time.perf_counter() - start
        failures += sum(not r.passed for r in reports)
        with _stdout_errors():
            sys.stdout.write("".join(r.to_json() + "\n" for r in reports))
            sys.stdout.flush()
        top = max(reports, key=lambda r: r.margin)
        if worst is None or top.margin > worst.margin:
            worst = top
        sys.stderr.write(f"{cid} {seconds:.3f} s, worst margin {top.margin:.4f} {top.name}\n")
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
    sim.add_argument("--seed", type=_seed, default=0)
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
    sr.add_argument("--seed", type=_seed, default=0)
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
    va.add_argument("--seed", type=_seed, default=None)  # None: the suite's pinned seed
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
