import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import counterwalk
import counterwalk.cli as cli
from counterwalk.cli import _comment_line, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExactCommands:
    def test_odd_pmf_rows(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "odd-pmf", "--n", "4")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "ell,numerator,denominator"
        assert lines[1].startswith("# counterwalk=")
        assert lines[2:] == ["1,1,6", "2,4,6", "3,1,6"]

    def test_delta_pmf_rows(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "delta-pmf", "--n", "3")
        assert code == 0
        assert out.strip().splitlines()[2:] == ["-1,1,2", "1,1,2"]

    def test_walk_oracle_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "walk-oracle", "--n", "2", "--p", "1/2", "--mu", "dirac:1"
        )
        assert code == 0
        assert out.strip().splitlines()[2:] == ["0,1,2", "2,1,2"]

    def test_walk_oracle_bytes_are_pinned(self, capsys):
        # captured from the exhaustive enumerator that the position chain replaced
        code, out, _ = run_cli(
            capsys, "exact", "walk-oracle", "--n", "7", "--p", "1/3", "--mu", "rademacher"
        )
        assert code == 0
        assert out == (
            "value,numerator,denominator\n"
            "# counterwalk=0.1.0 config=2d683bbbf9f9\n"
            "-7,9,839808\n"
            "-5,4935,839808\n"
            "-3,89413,839808\n"
            "-1,325547,839808\n"
            "1,325547,839808\n"
            "3,89413,839808\n"
            "5,4935,839808\n"
            "7,9,839808\n"
        )

    @pytest.mark.parametrize("argv,digest", [
        (("delta-pmf", "--n", "420"),
         "8c0eee40228efcde16748e967f901fdb9ef955dfabcdbc88d371010352ffa4be"),
        (("walk-oracle", "--n", "300", "--p", "1/3", "--mu", "rademacher"),
         "a761ad9e61924af99f19d846b9d46c39feed472def59c64c699113878f51cde8"),
    ])
    def test_large_table_bytes_are_pinned(self, capsys, argv, digest):
        # sha256 of stdout as printed when every probability was its own Fraction
        code, out, _ = run_cli(capsys, "exact", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_walk_oracle_cap_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "exact", "walk-oracle", "--n", "1001", "--p", "1/2", "--mu", "dirac:1"
        )
        assert code == 3
        assert "capped" in err

    def test_walk_oracle_far_horizon_rows_share_a_denominator(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "walk-oracle", "--n", "200", "--p", "1/3", "--mu", "rademacher"
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[2:]]
        assert len({den for _, _, den in rows}) == 1
        assert sum(int(num) for _, num, _ in rows) == int(rows[0][2])
        assert [int(v) for v, _, _ in rows] == list(range(-200, 201, 2))

    def test_walk_oracle_rejects_continuous_law(self, capsys):
        code, _, err = run_cli(
            capsys, "exact", "walk-oracle", "--n", "3", "--p", "1/2", "--mu", "gauss:0,1"
        )
        assert code == 3


class TestTableCommand:
    def test_row_four(self, capsys):
        code, out, _ = run_cli(capsys, "table", "eulerian", "--n", "4")
        assert code == 0
        assert out.strip().splitlines()[2:] == ["0,1", "1,11", "2,11", "3,1"]

    def test_row_zero_conventional_entry(self, capsys):
        code, out, _ = run_cli(capsys, "table", "eulerian", "--n", "0")
        assert code == 0
        assert out.strip().splitlines()[2:] == ["-1,1"]


class TestSampleCommand:
    def test_deterministic_rows(self, capsys):
        code, first, _ = run_cli(capsys, "sample", "rrt", "--n", "10", "--reps", "5", "--seed", "3")
        assert code == 0
        _, second, _ = run_cli(capsys, "sample", "rrt", "--n", "10", "--reps", "5", "--seed", "3")
        assert first == second
        lines = first.strip().splitlines()
        assert lines[0] == "rep,even,odd,delta"
        assert len(lines) == 2 + 5
        for rep, line in enumerate(lines[2:]):
            fields = line.split(",")
            assert int(fields[0]) == rep
            assert int(fields[1]) + int(fields[2]) == 10
            assert int(fields[1]) - int(fields[2]) == int(fields[3])

    def test_replica_prefix_is_stable(self, capsys):
        _, five, _ = run_cli(capsys, "sample", "rrt", "--n", "50", "--reps", "5", "--seed", "8")
        _, twenty, _ = run_cli(capsys, "sample", "rrt", "--n", "50", "--reps", "20", "--seed", "8")
        assert len(twenty.splitlines()) == 2 + 20
        assert twenty.splitlines()[2:7] == five.splitlines()[2:]


class TestSimulateCommand:
    def test_writes_idempotent_file(self, tmp_path, capsys):
        out_path = tmp_path / "runs.csv"
        argv = [
            "simulate", "--n", "40", "--p", "1/2", "--mu", "rademacher",
            "--reps", "3", "--seed", "11", "--out", str(out_path),
        ]
        assert main(argv) == 0
        first = out_path.read_bytes()
        assert main(argv) == 0
        assert out_path.read_bytes() == first
        lines = first.decode().splitlines()
        assert lines[0] == "rep,n,i_n,S_check,S_hat,nu1"
        assert lines[1].startswith("# counterwalk=")
        assert len(lines) == 2 + 3

    def test_trajectory_rows(self, tmp_path):
        out_path = tmp_path / "traj.csv"
        argv = [
            "simulate", "--n", "30", "--p", "1/2", "--mu", "dirac:1",
            "--reps", "2", "--seed", "5", "--traj-every", "10", "--out", str(out_path),
        ]
        assert main(argv) == 0
        lines = out_path.read_text().splitlines()
        marker = lines.index("# trajectory: rep,step,S_check,S_hat")
        traj = lines[marker + 1 :]
        assert len(traj) == 2 * 3  # steps 10, 20, 30 for each of 2 reps
        steps = [int(row.split(",")[1]) for row in traj]
        assert steps == [10, 20, 30, 10, 20, 30]

    @pytest.mark.parametrize("c", [10**15, 10**20])
    def test_trajectory_of_a_large_step_is_exact(self, capsys, c):
        # S_hat at step m is m * c; int64 products overflowed past 2**63
        code, out, _ = run_cli(
            capsys, "simulate", "--n", "20000", "--p", "1/2", "--mu", f"dirac:{c}",
            "--reps", "1", "--traj-every", "5000",
        )
        assert code == 0
        lines = out.splitlines()
        summary = lines[2].split(",")
        traj = [row.split(",") for row in lines[4:]]
        assert [float(row[3]) for row in traj] == [float(m * c) for m in (5000, 10000, 15000, 20000)]
        assert traj[-1][2:] == summary[3:5]

    def test_replica_prefix_is_stable(self, tmp_path):
        argv_base = [
            "simulate", "--n", "25", "--p", "1/3", "--mu", "gauss:0,1", "--seed", "9",
        ]
        out_short = tmp_path / "short.csv"
        out_long = tmp_path / "long.csv"
        assert main(argv_base + ["--reps", "10", "--out", str(out_short)]) == 0
        assert main(argv_base + ["--reps", "60", "--out", str(out_long)]) == 0
        short_rows = out_short.read_bytes().splitlines()[2:]
        long_rows = out_long.read_bytes().splitlines()[2:]
        assert len(short_rows) == 10 and len(long_rows) == 60
        assert long_rows[:10] == short_rows

    @pytest.mark.parametrize("argv, digest", [
        ("--n 1000 --p 1/2 --mu gauss:0,1 --reps 5 --traj-every 100",
         "a278285d063482cb55112bfa49a2972e3195be30c69957041603b737383ac7ce"),
        ("--n 500 --p 1/3 --mu dirac:1/3 --reps 4 --traj-every 50",
         "8f6d37516ddf9c28ff7d99bca0238f49029ce9bf96f9f3619b97455d665d1498"),
        ("--n 300 --p 1/4 --mu rademacher --reps 6",
         "a86990c96602360c7fe4dd52f1c7c1fc71fce9892574fade1e5ffe06df4ebdb0"),
        ("--n 300 --p 1/2 --mu pareto:3/2 --reps 6 --traj-every 30",
         "48078115c06a1ffa9714c97074624cde116b9ad0895ed93e1ab9d6a5b4e33ac4"),
        ("--n 200 --p 0 --mu uniform --reps 3 --traj-every 7",
         "bdbe04a15515863101964cef0b62e8ce40185037b72302038022830a99fbab42"),
    ], ids=["gauss", "dirac", "rademacher", "pareto", "uniform"])
    def test_bytes_are_pinned(self, capsys, argv, digest):
        # sha256 of stdout as printed when the replicas ran through a replica pool
        code, out, _ = run_cli(capsys, "simulate", *argv.split(), "--seed", "5")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_unwritable_output_exit_code(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--n", "5", "--p", "1/2", "--mu", "dirac:1",
            "--out", str(tmp_path),
        )
        assert code == 4
        assert "cannot write" in err

    def test_bad_mu_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--n", "5", "--p", "1/2", "--mu", "cauchy")
        assert code == 2
        assert "invalid step-law spec" in err

    @pytest.mark.parametrize("mu,message", [
        ("dirac:", "dirac needs one value, e.g. dirac:1"),
        ("dirac:x", "dirac needs one value, e.g. dirac:1"),
        ("dirac:1,2", "dirac needs one value, e.g. dirac:1"),
        ("gauss:1", "gauss needs mean and variance, e.g. gauss:0,1"),
        ("gauss:1,", "gauss needs mean and variance, e.g. gauss:0,1"),
        ("gauss:x,1", "gauss needs mean and variance, e.g. gauss:0,1"),
        ("pareto:", "pareto needs an exponent, e.g. pareto:1.5"),
        ("uniform:3", "uniform takes no parameters"),
        ("rademacher:1", "rademacher takes no parameters"),
        ("cauchy", "unknown kind 'cauchy' (expected one of rademacher, dirac, uniform, gauss, pareto)"),
        ("pareto:0", "pareto exponent must be > 0"),
        ("dirac:1e400", "dirac value is too large for a float"),
    ])
    def test_malformed_spec_message(self, capsys, mu, message):
        code, out, err = run_cli(capsys, "simulate", "--n", "5", "--p", "1/2", "--mu", mu)
        assert (code, out, err) == (2, "", f"error: invalid step-law spec {mu!r}: {message}\n")

    def test_bad_p_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--n", "5", "--p", "7/2", "--mu", "dirac:1")
        assert code == 2

    @pytest.mark.parametrize("mu", ["dirac:1e400", "gauss:0,1e700", "gauss:-1e400,1", "pareto:1e400"])
    def test_law_parameter_beyond_float_range_exit_code(self, capsys, mu):
        code, out, err = run_cli(capsys, "simulate", "--n", "20", "--p", "1/2", "--mu", mu, "--reps", "1")
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: invalid step-law spec '{mu}'") and "too large for a float" in err


# command -> the quantity its float-range error names
OVERFLOWING = {
    "simulate --n 20 --p 1/2 --mu dirac:1e308 --reps 1": "the final position of replica 0",
    "simulate --n 20 --p 1/2 --mu dirac:1e308 --reps 1 --traj-every 5": "the final position of replica 0",
    "simulate --n 20 --p 1/2 --mu gauss:1e308,0 --reps 1": "the final position of replica 0",
    "limits --p 1/2 --mu dirac:1e308": "the constant clt_variance",
    "limits stable --alpha 1.9 --p 1/2 --theta 1e200": "the exponent at --theta 1e+200",
}


@pytest.mark.parametrize("argv", list(OVERFLOWING))
def test_result_beyond_float_range_exit_code(capsys, argv):
    # parameters that fit a float can still drive a result past its range
    quantity = OVERFLOWING[argv]
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out, err) == (3, "", f"error: result beyond the float range: {quantity}\n")


class TestLimitsCommand:
    def test_known_constants(self, capsys):
        code, out, _ = run_cli(capsys, "limits", "--p", "1/2", "--mu", "dirac:1")
        assert code == 0
        rows = dict(
            line.split(",")[:2] for line in out.strip().splitlines()[2:]
        )
        assert rows["velocity"] == "1/3"
        assert rows["clt_variance"] == "4/9"
        assert rows["nu1_clt_variance"] == "5/18"
        assert rows["rho"] == "2"
        assert rows["sigma_sq_2"] == "0"
        assert rows["yule_simon_1"] == "2/3"

    def test_rejects_no_innovation(self, capsys):
        code, _, err = run_cli(capsys, "limits", "--p", "0", "--mu", "dirac:1")
        assert code == 2
        assert "p = 0" in err

    def test_pure_innovation_omits_forest_constants(self, capsys):
        code, out, _ = run_cli(capsys, "limits", "--p", "1", "--mu", "gauss:0,1")
        assert code == 0
        names = [line.split(",")[0] for line in out.strip().splitlines()[2:]]
        assert "velocity" in names and "clt_variance" in names
        assert not any(name.startswith("yule_simon") for name in names)

    def test_heavy_tail_omits_variance(self, capsys):
        code, out, _ = run_cli(capsys, "limits", "--p", "1/2", "--mu", "pareto:1.5")
        assert code == 0
        names = [line.split(",")[0] for line in out.strip().splitlines()[2:]]
        assert "velocity" in names
        assert "clt_variance" not in names

    def test_stable_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "limits", "stable", "--alpha", "1.5", "--p", "1/2",
            "--theta", "1.0", "--kmax", "40",
        )
        assert code == 0
        lines = out.strip().splitlines()
        values = dict(line.split(",") for line in lines[2:])
        assert float(values["value"]) > 0
        assert float(values["tail_estimate"]) >= 0

    def test_stable_rejects_bad_alpha(self, capsys):
        code, _, err = run_cli(
            capsys, "limits", "stable", "--alpha", "2.5", "--p", "1/2", "--theta", "1.0"
        )
        assert code == 2

    @pytest.mark.parametrize("flag,value", [
        ("--phi1", "0"), ("--phi1", "-1"), ("--phi1", "nan"), ("--phi1", "inf"), ("--theta", "nan"),
    ])
    def test_stable_rejects_bad_phi1_and_theta(self, capsys, flag, value):
        args = {"--alpha": "1.5", "--p": "1/2", "--theta": "1.0", flag: value}
        code, out, err = run_cli(capsys, "limits", "stable", *(x for kv in args.items() for x in kv))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        if flag == "--phi1":
            assert "--phi1" in err

    def test_long_table_matches_closed_form(self, capsys):
        from counterwalk.asymptotics import yule_simon_pmf

        code, out, _ = run_cli(capsys, "limits", "--p", "1/2", "--mu", "gauss:0,1", "--kmax", "800")
        assert code == 0
        rows = dict(line.split(",")[:2] for line in out.strip().splitlines()[2:])
        assert rows["yule_simon_800"] == str(yule_simon_pmf(800, "1/2"))

    @pytest.mark.parametrize("argv,digest", [
        (("--p", "1/2", "--mu", "gauss:0,1", "--kmax", "60"),
         "28b02da12dd8ccc96c06274172ae77b60059c347f95658ff7f4d0e97ca23e53a"),
        (("stable", "--alpha", "1.5", "--p", "1/2", "--theta", "0.7", "--kmax", "200"),
         "02919428e2001efe0581a21c27b2abee75dd53f10e3ef546db95055c84348207"),
    ])
    def test_table_bytes_are_pinned(self, capsys, argv, digest):
        # sha256 of stdout as printed when every constant had its own Beta
        # lookup and the stable exponent stepped its Beta weights by hand,
        # except the stable tail_estimate line, now the Jensen bound
        code, out, _ = run_cli(capsys, "limits", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

    @pytest.mark.parametrize("argv,digest", [
        ("--p 1/2 --mu dirac:1", "e5af0c51d3b34a5470843bbbe492cb164c065019d148b99b1592642ca674e8f4"),
        ("--p 1 --mu gauss:0,1", "1d05ba98be13fe5a0a1bf920eba80591d1f1ea42aa79e5ca51bcfbb140addb38"),
        ("--p 1/2 --mu pareto:1", "927a6fc488147520cf0e67adc51b698b72deb62201e106ac35fbb8bfc1423f92"),
        ("--p 1/3 --mu uniform --kmax 12",
         "86220e235c04824eb0e2859e045c4f25b2ceb47297959cdaa3decf8399905577"),
        ("--p 3/4 --mu pareto:3", "a5b2e4e341f32548343a2d7ed6620b7bb03e97bf136fae38dca3744785adde42"),
    ], ids=["dirac", "no-forest", "no-m1", "uniform-kmax", "pareto"])
    def test_constant_tables_are_pinned(self, capsys, argv, digest):
        # sha256 of stdout and stderr as printed when the table's names and
        # order were spelled out in the handler, one field at a time
        code, out, err = run_cli(capsys, "limits", *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        assert hashlib.sha256(err.encode()).hexdigest() == self.EMPTY

    STABLE = ("--alpha", "1.5", "--p", "1/2", "--theta", "1.0")

    def test_stable_honors_out_given_before_stable(self, capsys, tmp_path):
        before, after = tmp_path / "before.csv", tmp_path / "after.csv"
        code, out, _ = run_cli(capsys, "limits", "--out", str(before), "stable", *self.STABLE)
        assert (code, out) == (0, "")
        assert run_cli(capsys, "limits", "stable", *self.STABLE, "--out", str(after))[:2] == (0, "")
        assert before.read_text(encoding="utf-8") == after.read_text(encoding="utf-8")

    def test_stable_honors_kmax_and_p_given_before_stable(self, capsys):
        default = run_cli(capsys, "limits", "stable", *self.STABLE)
        after = run_cli(capsys, "limits", "stable", *self.STABLE, "--kmax", "3")
        before = run_cli(capsys, "limits", "--kmax", "3", "stable", *self.STABLE)
        assert before == after and before[0] == 0
        assert before[1].splitlines()[1] != default[1].splitlines()[1]  # config digest
        moved_p = run_cli(capsys, "limits", "--p", "1/2", "stable", "--alpha", "1.5", "--theta", "1.0")
        assert moved_p == default

    def test_stable_refuses_mu_and_needs_p(self, capsys):
        code, out, err = run_cli(capsys, "limits", "--mu", "dirac:1", "stable", *self.STABLE)
        assert (code, out, err) == (2, "", "error: --mu does not apply to limits stable\n")
        code, out, err = run_cli(capsys, "limits", "stable", "--alpha", "1.5", "--theta", "1.0")
        assert (code, out, err) == (2, "", "error: limits stable needs --p\n")


class TestVerifyCommand:
    def test_json_stream_and_exit_zero_on_tiny_subset(self, capsys, monkeypatch):
        # run only the exact criteria through the real CLI entry point by
        # monkeypatching the suite, which the handler imports when called:
        # full runs are exercised in the acceptance tests
        import counterwalk.acceptance as acceptance
        from counterwalk.acceptance import run_criterion

        def tiny_run_all(seed, fast, done):
            reports = []
            for cid in ("c01", "c04"):
                batch = run_criterion(cid, seed, fast)
                done(cid, batch, 0.25)
                reports += batch
            return reports

        monkeypatch.setattr(acceptance, "run_all", tiny_run_all)
        monkeypatch.setattr(cli, "_peak_rss_mb", lambda: 39.46)
        code, out, err = run_cli(capsys, "verify", "all", "--seed", "1", "--fast")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            payload = json.loads(line)
            assert payload["passed"] is True
        assert err.splitlines() == [
            "c01 0.250 s, worst margin 0.0000 c01_eulerian_exact",
            "c04 0.250 s, worst margin 0.0000 c04_parity_moments",
            "worst margin 0.0000 c01_eulerian_exact, 0 failed, peak RSS 39.5 MB",
        ]

    def test_stdout_is_reproducible_and_stderr_reports_margins(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_peak_rss_mb", lambda: 50.0)
        code, out, err = run_cli(capsys, "verify", "all", "--fast")
        assert code == 0
        again_code, again_out, _ = run_cli(capsys, "verify", "all", "--fast")
        assert again_code == 0 and again_out == out
        reports = [json.loads(line) for line in out.splitlines()]
        margins = {r["name"]: r["value"] / r["threshold"] if r["threshold"] > 0 else 0.0
                   for r in reports}
        *per_criterion, closing = err.splitlines()
        assert [line.split()[0] for line in per_criterion] == [f"c{i:02d}" for i in range(1, 15)]
        for line in per_criterion:
            cid, seconds, unit, _, _, margin, name = line.split()
            assert float(seconds) >= 0 and unit == "s,"
            assert name.startswith(cid + "_")
            assert float(margin) == pytest.approx(
                max(m for key, m in margins.items() if key.startswith(cid + "_")), abs=1e-4)
        worst = max(margins, key=margins.get)
        assert closing == f"worst margin {margins[worst]:.4f} {worst}, 0 failed, peak RSS 50.0 MB"


class TestExperimentConfig:
    def test_canonical_is_sorted_and_stable(self):
        line = _comment_line(None, "simulate", n=5, p=Fraction(1, 2))
        assert line == _comment_line(None, "simulate", p="1/2", n=5, mu=None)
        # the hash of "simulate[n=5,p=1/2]"
        assert line == f"# counterwalk={counterwalk.__version__} config=ed5aa3f626ae"

    def test_equivalent_spellings_hash_identically(self, capsys):
        _, out_a, _ = run_cli(capsys, "exact", "walk-oracle", "--n", "2", "--p", "0.5", "--mu", "dirac:1")
        _, out_b, _ = run_cli(capsys, "exact", "walk-oracle", "--n", "2", "--p", "1/2", "--mu", "dirac:1")
        assert out_a == out_b


SRC = os.path.dirname(os.path.dirname(counterwalk.__file__))


def run_python(*args, timeout=60):
    """A fresh interpreter on the package sources; returns the finished process."""
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=timeout)


def test_overflowing_step_draw_fails_with_one_line():
    # a pareto:1/100 magnitude (1-u)**-100 passes the float range for most
    # u near 1; the run stops before any sum sees an infinite draw, and no
    # numpy warning reaches stderr
    done = run_python("-m", "counterwalk", "simulate", "--n", "1000", "--p", "1/2",
                      "--mu", "pareto:0.01", "--reps", "3", "--seed", "0")
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == "error: result beyond the float range: a pareto:1/100 step draw\n"


def test_peak_rss_counts_this_process_only():
    # `ru_maxrss` of a process started by a larger one reports the larger
    # one's peak; the closing line of `verify all` must not
    if not os.path.exists("/proc/self/status"):
        pytest.skip("reads Linux's per-process status file")
    probe = "import counterwalk.cli as cli; print(cli._peak_rss_mb())"
    ballast = b"\x01" * (64 << 20)  # 64 MB, written, so resident while the probe starts
    peak = float(run_python("-c", probe).stdout)
    del ballast
    assert 1 < peak < 40


def test_cli_import_loads_neither_scipy_nor_a_process_pool():
    # start-up cost of every command: the dispatcher imports no layer and no
    # stdlib module a handler may not need, scipy is imported only by the
    # checks that need it, and replicas run in-process
    lazy = ("scipy", "concurrent.futures", "argparse", "hashlib", "fractions", "decimal",
            "dataclasses", "inspect", "numpy")
    probe = (f"import sys, counterwalk.cli; print(sorted(m for m in sys.modules if m in {lazy!r} "
             "or m.startswith('counterwalk.') and m != 'counterwalk.cli'))")
    assert run_python("-c", probe).stdout.strip() == "[]"


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0), (["exact", "bogus"], 2), (["simulate", "--n", "5"], 2),
], ids=["help", "bad-mode", "missing-option"])
def test_help_and_usage_errors_load_no_layer(argv, code):
    done = run_python("-X", "importtime", "-m", "counterwalk", *argv)
    assert done.returncode == code
    loaded = {line.rpartition("|")[2].strip() for line in done.stderr.splitlines()
              if line.startswith("import time:")}
    assert "argparse" in loaded
    assert sorted(m for m in loaded if m.startswith("counterwalk.") or m == "numpy") == ["counterwalk.cli"]


def _traced_run(tmp_path, *argv):
    spans_path = tmp_path / "spans.json"
    tracer = os.path.join(os.path.dirname(SRC), "perfbench", "tracer.py")
    done = run_python(tracer, str(spans_path), "-m", "counterwalk", *argv, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(spans_path.read_text())


def test_traced_runs_see_the_layers_handlers_import(tmp_path):
    # the benchmark's tracer wraps each layer in its own module before the
    # entry point runs, so handlers that import their layers when called
    # must still reach the wrappers
    n, reps = 300, 3
    trace = _traced_run(tmp_path, "simulate", "--n", str(n), "--p", "1/2", "--mu", "dirac:1",
                        "--reps", str(reps), "--traj-every", "100")
    assert trace["counts"]["walk_engine.simulate.steps"] == n * reps
    assert trace["counts"]["walk_engine.forest_census.vertices"] == n * reps
    trace = _traced_run(tmp_path, "exact", "delta-pmf", "--n", "12")
    assert "eulerian" in {s[0] for s in trace["spans"]}


def test_cli_import_and_exact_commands_load_no_numpy():
    # the exact commands, the tables, the limit constants and the stable
    # exponent never need numpy; the engine and the verifier import it only
    # in the functions that draw or reduce
    probe = "\n".join([
        "import contextlib, io, sys",
        "import counterwalk.cli, counterwalk.asymptotics, counterwalk.walk_engine, counterwalk.verify",
        "from counterwalk.walk_engine import _GRAMMAR, parse_mu_spec",
        "for kind, (_, count, _) in _GRAMMAR.items():  # one law of every kind, all parameters 1",
        "    assert parse_mu_spec(kind + (':' + ','.join(['1'] * count) if count else '')).kind == kind",
        "print('numpy' in sys.modules)",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    for argv in (['exact', 'odd-pmf', '--n', '30'], ['exact', 'delta-pmf', '--n', '30'],",
        "                 ['exact', 'walk-oracle', '--n', '30', '--p', '1/2', '--mu', 'rademacher'],",
        "                 ['table', 'eulerian', '--n', '30'],",
        "                 ['limits', '--p', '1/2', '--mu', 'gauss:0,1'],",
        "                 ['limits', 'stable', '--alpha', '1.5', '--p', '1/2', '--theta', '0.7']):",
        "        assert counterwalk.cli.main(argv) == 0",
        "print('numpy' in sys.modules)",
    ])
    assert run_python("-c", probe).stdout.split() == ["False", "False"]


def test_exact_layer_imports_without_numpy_and_package_loads_no_submodule():
    probe = ("import sys, counterwalk; loaded = sorted(m for m in sys.modules if m.startswith('counterwalk.')); "
             "import counterwalk.eulerian; print(loaded, 'numpy' in sys.modules)")
    assert run_python("-c", probe).stdout.strip() == "[] False"


@pytest.mark.parametrize("script, args, header", [
    ("velocity_sweep.py", ["--n", "200", "--reps", "4"], "p,mean_speed,mc_sd,predicted"),
    ("clt_profile.py", ["--n", "200", "--reps", "200"], "quantile,empirical,gaussian"),
])
def test_script_runs(script, args, header):
    out = run_python(os.path.join(os.path.dirname(SRC), "scripts", script), *args, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[0] == header


def test_ks_check_runs_without_scipy():
    # numpy is the only runtime dependency: the Gaussian cdf comes from math.erfc
    probe = ("import sys, numpy as np; from counterwalk.verify import ks_normal; "
             "r = ks_normal(np.random.default_rng(0).normal(size=500), 0.0, 1.0); "
             "print(r.passed, 'scipy' in sys.modules)")
    assert run_python("-c", probe).stdout.strip() == "True False"


LAZY_MODULES = ("counterwalk.acceptance", "counterwalk.verify", "counterwalk.asymptotics",
                "counterwalk.recursive_tree")


def test_simulate_loads_only_the_engine():
    # the acceptance suite, the verifier and the asymptotics are imported by
    # the handlers that use them, so a simulate process never pays for them
    probe = "\n".join([
        "import contextlib, io, sys",
        "from counterwalk import cli",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    code = cli.main(['simulate', '--n', '300', '--p', '1/2', '--mu', 'gauss:0,1', '--reps', '2',",
        "                     '--traj-every', '100'])",
        f"print(code, sorted(m for m in {LAZY_MODULES!r} if m in sys.modules))",
    ])
    assert run_python("-c", probe).stdout.strip() == "0 []"


@pytest.mark.parametrize("argv, digest", [
    (("verify", "all", "--fast"),
     "679298c719d9066750f5224f583dae71bd890d8dfcd7672911597caffdd3194d"),
    (("limits", "stable", "--alpha", "1.5", "--p", "1/2", "--theta", "0.7"),
     "45af2aed0f08cc670703207127d0a08fd5fe92f7a1744a9676f1225d69ca7faa"),
    (("limits", "--p", "1/2", "--mu", "gauss:0,1"),
     "4e052606a50704de5fc696f0562e05c0c35bdb6d90ee95cc5fdfa8cbdfda703c"),
    (("exact", "walk-oracle", "--n", "7", "--p", "1/3", "--mu", "rademacher"),
     "409ffcef2c2f49feed10a61fb25833043245cc8f5ff0a56fa6e3473e40dcd787"),
    (("sample", "rrt", "--n", "500", "--reps", "20", "--seed", "4"),
     "b152113037a523eed7b9203be96207c350b55f9901bdf0c7331c7accc451696e"),
])
def test_commands_that_import_their_own_layers(capsys, argv, digest):
    # a cold process, which loads each layer inside its handler, prints what
    # this process (every layer already loaded) prints; the digests are the
    # sha256 of stdout from when the CLI imported every layer at start-up,
    # and the first two from before `simulate_batch` lost its census
    fresh = run_python("-m", "counterwalk", *argv)
    assert fresh.returncode == 0, fresh.stderr
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and fresh.stdout == out
    if digest is not None:
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def readme_commands():
    """Every ``counterwalk ...`` line of README's bash blocks, as argv: line
    continuations joined, ``#`` comments cut, optional ``[ ]`` opened."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(path, encoding="utf-8") as fh:
        blocks = re.findall(r"```bash\n(.*?)```", fh.read(), re.S)
    commands = []
    for block in blocks:
        for line in block.replace("\\\n", " ").splitlines():
            words = line.partition("#")[0].replace("[", " ").replace("]", " ").split()
            if words[:1] == ["counterwalk"]:
                commands.append(words[1:])
    return commands


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_commands_parse(argv):
    args = cli.build_parser().parse_args(argv)
    assert callable(args.fn)


def test_readme_shows_every_subcommand():
    assert {argv[0] for argv in readme_commands()} == {
        "simulate", "exact", "table", "sample", "limits", "verify"}
