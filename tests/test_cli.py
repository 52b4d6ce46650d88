import json
import os
import subprocess
import sys

import pytest

from counterwalk.cli import ExperimentConfig, main


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

    def test_walk_oracle_cap_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "exact", "walk-oracle", "--n", "8", "--p", "1/2", "--mu", "dirac:1"
        )
        assert code == 3
        assert "capped" in err

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

    def test_bad_p_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--n", "5", "--p", "7/2", "--mu", "dirac:1")
        assert code == 2


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


class TestVerifyCommand:
    def test_json_stream_and_exit_zero_on_tiny_subset(self, capsys, monkeypatch):
        # run only the exact criteria through the real CLI entry point by
        # monkeypatching the suite: full runs are exercised in the
        # acceptance tests
        import counterwalk.cli as cli_mod
        from counterwalk.acceptance import run_criterion

        def tiny_run_all(seed, fast, emit):
            reports = run_criterion("c01", seed, fast) + run_criterion("c04", seed, fast)
            for report in reports:
                emit(report)
            return reports

        monkeypatch.setattr(cli_mod, "run_all", tiny_run_all)
        code, out, _ = run_cli(capsys, "verify", "all", "--seed", "1", "--fast")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            payload = json.loads(line)
            assert payload["passed"] is True


class TestExperimentConfig:
    def test_canonical_is_sorted_and_stable(self):
        cfg = ExperimentConfig("simulate", (("n", "5"), ("p", "1/2")))
        same = ExperimentConfig("simulate", (("p", "1/2"), ("n", "5")))
        assert cfg.canonical() == same.canonical()
        assert cfg.digest() == same.digest()
        assert cfg.canonical() == "simulate[n=5,p=1/2]"

    def test_equivalent_spellings_hash_identically(self, capsys):
        _, out_a, _ = run_cli(capsys, "exact", "walk-oracle", "--n", "2", "--p", "0.5", "--mu", "dirac:1")
        _, out_b, _ = run_cli(capsys, "exact", "walk-oracle", "--n", "2", "--p", "1/2", "--mu", "dirac:1")
        assert out_a == out_b


def test_cli_import_loads_neither_scipy_nor_a_process_pool():
    # start-up cost of every command: scipy is imported only by the checks
    # that need it, and replicas run in-process
    import counterwalk

    src = os.path.dirname(os.path.dirname(counterwalk.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, counterwalk.cli; print(sorted(m for m in ('scipy', 'concurrent.futures') if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         timeout=60, check=True)
    assert out.stdout.strip() == "[]"
