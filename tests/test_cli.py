import collections

import numpy as np
import pytest

import crossdiff as cd
from crossdiff import cli, scheme
from crossdiff.errors import NonConvergence


def _run_cli(args):
    return cli.main([str(a) for a in args])


class TestConfigParsing:
    def test_key_value_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("a = 2.0\nb=1.0  # comment\n# full comment line\nc = 1.0\n"
                       "d = 1.0\ncells = 48\n", encoding="utf-8")
        values = cli.parse_config_file(str(cfg))
        assert values == {"a": "2.0", "b": "1.0", "c": "1.0", "d": "1.0",
                          "cells": "48"}
        config = cli.build_config(values, {})
        assert config.cells == 48
        assert config.build_params().as_tuple() == (2.0, 1.0, 1.0, 1.0)

    def test_cli_overrides_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("cells = 48\ntau = 1e-3\n", encoding="utf-8")
        config = cli.build_config(cli.parse_config_file(str(cfg)), {"cells": "32"})
        assert config.cells == 32
        assert config.tau == 1e-3

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("cells 48\n", encoding="utf-8")
        with pytest.raises(cli.ConfigError, match="key = value"):
            cli.parse_config_file(str(cfg))

    def test_unknown_key(self):
        with pytest.raises(cli.ConfigError, match="unknown configuration key"):
            cli.build_config({"viscosity": "1"}, {})

    def test_bad_value(self):
        with pytest.raises(cli.ConfigError, match="bad value"):
            cli.build_config({"cells": "many"}, {})

    def test_muskat_conflicts_with_explicit(self):
        with pytest.raises(cli.ConfigError, match="not both"):
            cli.build_config({"a": "2", "b": "1", "c": "1", "d": "1",
                              "muskat_R": "1"}, {}).build_params()

    def test_partial_explicit_params(self):
        with pytest.raises(cli.ConfigError, match="all four"):
            cli.build_config({"a": "2"}, {}).build_params()

    def test_muskat_preset(self):
        config = cli.build_config({"muskat_R": "3", "muskat_mu": "0.5"}, {})
        assert config.build_params().as_tuple() == (4.0, 3.0, 1.5, 1.5)

    def test_regularization_needs_both(self):
        with pytest.raises(cli.ConfigError, match="both eps and rho"):
            cli.build_config({"eps": "0.1"}, {}).solver_options()


class TestInitialConditions:
    def test_cosine_bump_default_matches_reference(self):
        config = cli.build_config({}, {"cells": "64"})
        st = config.build_initial(config.build_grid())
        x = st.grid.centers()
        np.testing.assert_allclose(st.f, 1.0 + 0.5 * np.cos(np.pi * x), rtol=1e-15)
        np.testing.assert_array_equal(st.g, np.ones(64))

    def test_cosine_bump_clipped_at_zero(self):
        config = cli.build_config({}, {"ic_amp": "2.0", "cells": "32"})
        st = config.build_initial(config.build_grid())
        assert st.min_value() == 0.0
        assert st.f.min() == 0.0

    def test_step_preset(self):
        config = cli.build_config({}, {"ic": "step", "cells": "10"})
        st = config.build_initial(config.build_grid())
        np.testing.assert_array_equal(st.f[:5], np.full(5, 1.5))
        np.testing.assert_array_equal(st.f[5:], np.full(5, 0.5))
        np.testing.assert_array_equal(st.g[:5], np.full(5, 0.5))

    def test_random_smooth_is_seeded(self):
        base = {"ic": "random-smooth", "cells": "32", "ic_amp_g": "0.1"}
        c1 = cli.build_config({}, dict(base, seed="7"))
        c2 = cli.build_config({}, dict(base, seed="7"))
        c3 = cli.build_config({}, dict(base, seed="8"))
        s1 = c1.build_initial(c1.build_grid())
        s2 = c2.build_initial(c2.build_grid())
        s3 = c3.build_initial(c3.build_grid())
        np.testing.assert_array_equal(s1.f, s2.f)
        assert np.abs(s1.f - s3.f).max() > 0.0
        assert s1.min_value() >= 0.0

    def test_from_file_roundtrip(self, tmp_path):
        path = tmp_path / "ic.csv"
        rows = ["x,f,g"] + [f"{i * 0.1},{1.0 + 0.01 * i},{2.0 - 0.01 * i}"
                            for i in range(10)]
        path.write_text("\n".join(rows), encoding="utf-8")
        config = cli.build_config({}, {"ic": "from-file", "ic_file": str(path),
                                       "cells": "10"})
        st = config.build_initial(config.build_grid())
        np.testing.assert_allclose(st.f, 1.0 + 0.01 * np.arange(10), rtol=1e-14)
        np.testing.assert_allclose(st.g, 2.0 - 0.01 * np.arange(10), rtol=1e-14)

    def test_from_file_wrong_rows(self, tmp_path):
        path = tmp_path / "ic.csv"
        path.write_text("f,g\n1,1\n", encoding="utf-8")
        config = cli.build_config({}, {"ic": "from-file", "ic_file": str(path),
                                       "cells": "10"})
        with pytest.raises(cli.ConfigError, match="rows"):
            config.build_initial(config.build_grid())

    def test_unknown_preset(self):
        config = cli.build_config({}, {"ic": "vortex"})
        with pytest.raises(cli.ConfigError, match="unknown initial condition"):
            config.build_initial(config.build_grid())


class TestRunCommand:
    def test_one_step_run_has_two_rows(self, tmp_path):
        out = tmp_path / "o"
        code = _run_cli(["run", "--cells", 16, "--tau", "1e-3", "--t-final",
                         "1e-3", "--tol", "1e-12", "--out", out])
        assert code == 0
        rows = (out / "diagnostics.csv").read_text().strip().splitlines()
        assert len(rows) == 3  # header + initial + one step
        header = rows[0].split(",")
        assert header[:3] == ["time", "mass_f", "mass_g"]
        assert "E1" in header and "E6" in header
        assert header[-2:] == ["iterations", "residual"]

    def test_columns_have_at_least_15_significant_digits(self, tmp_path):
        out = tmp_path / "o"
        assert _run_cli(["run", "--cells", 16, "--t-final", "2e-3", "--tau",
                         "1e-3", "--tol", "1e-12", "--out", out]) == 0
        rows = (out / "diagnostics.csv").read_text().strip().splitlines()
        for row in rows[1:]:
            for col in row.split(","):
                if "e" in col:  # float columns in scientific notation
                    mantissa = col.split("e")[0].replace("-", "").replace(".", "")
                    assert len(mantissa.lstrip("0")) >= 15 or float(col) == 0.0
                    assert float(col) == float(repr(float(col)))  # exact round-trip

    def test_deterministic_output(self, tmp_path):
        args = ["run", "--cells", 24, "--t-final", "5e-3", "--tau", "1e-3",
                "--tol", "1e-12", "--ic", "random-smooth", "--seed", 3]
        assert _run_cli(args + ["--out", tmp_path / "r1"]) == 0
        assert _run_cli(args + ["--out", tmp_path / "r2"]) == 0
        b1 = (tmp_path / "r1" / "diagnostics.csv").read_bytes()
        b2 = (tmp_path / "r2" / "diagnostics.csv").read_bytes()
        assert b1 == b2

    def test_muskat_preset_bit_identical_to_explicit(self, tmp_path):
        common = ["--cells", 32, "--t-final", "4e-3", "--tau", "1e-3",
                  "--tol", "1e-12", "--seed", 5]
        assert _run_cli(["run", "--muskat-R", 1, "--muskat-mu", 1, *common,
                         "--out", tmp_path / "m"]) == 0
        assert _run_cli(["run", "--a", 2, "--b", 1, "--c", 1, "--d", 1, *common,
                         "--out", tmp_path / "e"]) == 0
        for name in ("diagnostics.csv", "state_000000.csv", "state_000004.csv"):
            assert (tmp_path / "m" / name).read_bytes() == \
                (tmp_path / "e" / name).read_bytes()

    def test_muskat_run_has_monotone_E2_column(self, tmp_path):
        out = tmp_path / "o"
        assert _run_cli(["run", "--muskat-R", 1, "--muskat-mu", 1, "--cells", 64,
                         "--tau", "1e-3", "--t-final", "0.02", "--tol", "1e-12",
                         "--out", out]) == 0
        rows = (out / "diagnostics.csv").read_text().strip().splitlines()
        e2_col = rows[0].split(",").index("E2")
        e2 = [float(r.split(",")[e2_col]) for r in rows[1:]]
        assert all(b <= a for a, b in zip(e2, e2[1:]))

    def test_summary_verdict_pass(self, tmp_path):
        out = tmp_path / "o"
        assert _run_cli(["run", "--cells", 16, "--t-final", "1e-2", "--tau",
                         "1e-3", "--tol", "1e-12", "--out", out]) == 0
        summary = (out / "summary.txt").read_text()
        assert "overall: PASS" in summary
        assert "dissipation inequality" in summary
        assert "sup-norm bound" in summary

    def test_rejects_degenerate_params(self, tmp_path, capsys):
        code = _run_cli(["run", "--a", 1, "--b", 2, "--c", 2, "--d", 1,
                         "--out", tmp_path / "o"])
        assert code == cli.EXIT_CONFIG
        assert "ad > bc" in capsys.readouterr().err

    def test_rejects_bad_grid(self, tmp_path, capsys):
        assert _run_cli(["run", "--cells", 1, "--out", tmp_path / "o"]) == \
            cli.EXIT_CONFIG
        assert "cells" in capsys.readouterr().err
        assert _run_cli(["run", "--dimension", 3, "--out", tmp_path / "o"]) == \
            cli.EXIT_CONFIG

    def test_nonconvergence_exit_code_and_partial_output(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = _run_cli(["run", "--cells", 16, "--tau", "5.0", "--t-final", "50",
                         "--max-iters", 2, "--tol", "1e-14", "--out", out])
        assert code == cli.EXIT_NONCONVERGENCE
        assert "nonconvergence" in capsys.readouterr().err
        # partial trajectory (just the initial row) still written
        rows = (out / "diagnostics.csv").read_text().strip().splitlines()
        assert len(rows) == 2

    def test_failure_message_names_step(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = _run_cli(["run", "--cells", 16, "--method", "newton",
                         "--max-iters", 1, "--tol", "1e-14", "--out", out])
        assert code == cli.EXIT_NONCONVERGENCE
        assert "did not converge at step 1:" in capsys.readouterr().err
        summary = (out / "summary.txt").read_text()
        assert "FAILED: nonlinear solve did not converge at step 1:" in summary

    def test_method_key_accepts_only_newton(self, tmp_path, capsys):
        # the key stays for existing configs; Newton is the only solver
        args = ["run", "--cells", 8, "--tau", "1e-3", "--t-final", "1e-3"]
        code = _run_cli(args + ["--method", "picard", "--out", tmp_path / "p"])
        assert code == cli.EXIT_CONFIG
        assert "Picard solver was removed" in capsys.readouterr().err
        assert not (tmp_path / "p").exists()
        assert _run_cli(args + ["--method", "newton", "--out", tmp_path / "n"]) == cli.EXIT_OK

    def test_rejects_t_final_not_a_multiple_of_tau(self, tmp_path, capsys):
        # ceil(t_final / tau) steps would silently end at t = 1.2
        code = _run_cli(["run", "--cells", 8, "--tau", "0.3", "--t-final", "1",
                         "--out", tmp_path / "o"])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "t_final=1.0" in err and "tau=0.3" in err
        assert not (tmp_path / "o").exists()

    def test_tau_retry_recovers(self, tmp_path):
        out = tmp_path / "o"
        code = _run_cli(["run", "--cells", 16, "--tau", "5.0", "--t-final", "5",
                         "--max-iters", 30, "--tol", "1e-10", "--tau-retries", 12,
                         "--out", out])
        assert code == 0

    def test_failing_retry_leaves_no_snapshot_of_abandoned_attempt(
            self, tmp_path, capsys, monkeypatch):
        # the Newton solve is made to fail with tau = 2e-2 at step 1, 1e-2 at
        # step 6, 5e-3 at step 8 (after the snapshot of step 6) and, on the
        # last retry, 2.5e-3 at step 5
        fail_at = {2e-2: 1, 1e-2: 6, 5e-3: 8, 2.5e-3: 5}
        solves = collections.Counter()
        newton = scheme._newton_sparse

        def failing(prev, tau, *args):
            solves[tau] += 1
            if solves[tau] == fail_at[tau]:
                raise NonConvergence(1, 1.0)
            return newton(prev, tau, *args)

        monkeypatch.setattr(scheme, "_newton_sparse", failing)
        out = tmp_path / "o"
        code = _run_cli(["run", "--cells", 16, "--tau", "2e-2", "--t-final", "0.4",
                         "--tau-retries", 3, "--snapshot-every", 3, "--out", out])
        assert code == cli.EXIT_NONCONVERGENCE
        assert capsys.readouterr().err.count("retrying with halved time step") == 3
        snaps = sorted(p.name for p in out.glob("state_*.csv"))
        assert snaps == ["state_000000.csv", "state_000003.csv", "state_000004.csv"]
        rows = (out / "diagnostics.csv").read_text().strip().splitlines()
        assert len(rows) == 6
        assert float(rows[-1].split(",")[0]) == pytest.approx(4 * 2.5e-3)
        assert "tau: 2.5" in (out / "summary.txt").read_text()

    def test_tight_budget_completes_with_carried_factors(self, tmp_path):
        # with a fresh Jacobian in every step, step 5 needed 15 updates and
        # the run failed; the factors carried from step 4 leave it within 12
        out = tmp_path / "o"
        code = _run_cli(["run", "--cells", 64, "--tau", "2e-2", "--t-final", "0.4",
                         "--tol", "1e-13", "--ic-amp", "1.0", "--max-iters", 12,
                         "--out", out])
        assert code == cli.EXIT_OK
        rows = (out / "diagnostics.csv").read_text().strip().splitlines()
        assert len(rows) == 22
        header = rows[0].split(",")
        factorizations = [int(r.split(",")[header.index("factorizations")])
                          for r in rows[1:]]
        iterations = [int(r.split(",")[header.index("iterations")]) for r in rows[1:]]
        assert factorizations[0] == iterations[0] == 0
        assert sum(factorizations) < sum(iterations)

    @pytest.mark.parametrize("extra, degree", [(["--ic-amp", "0.9", "--n-max", 700], 558),
                                               (["--n-max", 1000], 648)])
    def test_rejects_n_max_beyond_double_precision(self, tmp_path, capsys, extra, degree):
        # at n_max=700 the run used to write inf E columns and PASS; at 1000
        # the coefficient overflow ended it in a traceback
        out = tmp_path / "o"
        code = _run_cli(["run", "--cells", 16, "--tau", "1e-3", "--t-final", "2e-3",
                         *extra, "--out", out])
        assert code == cli.EXIT_CONFIG
        assert f"E_{degree} of the initial state is not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_initial_state_has_a_sup_norm_verdict(self, tmp_path):
        # the cap of ||f+g||_inf is 0 here; the slack used to divide by it
        out = tmp_path / "o"
        assert _run_cli(["run", "--ic", "constant", "--ic-f0", 0, "--ic-g0", 0,
                         "--cells", 8, "--t-final", "2e-3", "--out", out]) == 0
        summary = (out / "summary.txt").read_text()
        assert "sup-norm bound: measured slack 0.000e+00" in summary
        assert "overall: PASS" in summary

    def test_snapshots_written_at_interval(self, tmp_path):
        out = tmp_path / "o"
        assert _run_cli(["run", "--cells", 16, "--t-final", "4e-3", "--tau",
                         "1e-3", "--tol", "1e-12", "--snapshot-every", 2,
                         "--out", out]) == 0
        snaps = sorted(p.name for p in out.glob("state_*.csv"))
        assert snaps == ["state_000000.csv", "state_000002.csv",
                         "state_000004.csv"]

    def test_snapshot_names_unique_for_tiny_steps(self, tmp_path):
        # names derived from the time rounded to 6 decimals used to collide
        out = tmp_path / "o"
        assert _run_cli(["run", "--cells", 8, "--tau", "1e-7", "--t-final",
                         "5e-7", "--snapshot-every", 1, "--out", out]) == 0
        snaps = sorted(p.name for p in out.glob("state_*.csv"))
        assert snaps == [f"state_{i:06d}.csv" for i in range(6)]
        initial = (out / "state_000000.csv").read_text()
        final = (out / "state_000005.csv").read_text()
        assert initial != final

    def test_state_file_layout(self, tmp_path):
        out = tmp_path / "o"
        assert _run_cli(["run", "--cells", 8, "--t-final", "1e-3", "--tau",
                         "1e-3", "--tol", "1e-12", "--out", out]) == 0
        rows = (out / "state_000000.csv").read_text().strip().splitlines()
        assert rows[0] == "index,x,f,g"
        assert len(rows) == 9
        first = rows[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == pytest.approx(1 / 16)

    def test_state_file_text(self, tmp_path):
        # the exact text of a 3-cell 1D and a 2x2 2D state file: index, the
        # centre coordinates (x fastest in 2D), f and g, 17 significant digits
        path = tmp_path / "state.csv"
        grid = cd.Grid1D(3, 1.0)
        cli._write_state(path, cd.State(grid, np.array([0.0, 1 / 3, 2.5]),
                                        np.array([1e-300, 0.1, 7.0])))
        assert path.read_text() == (
            "index,x,f,g\n"
            "0,1.6666666666666666e-01,0.0000000000000000e+00,1.0000000000000000e-300\n"
            "1,5.0000000000000000e-01,3.3333333333333331e-01,1.0000000000000001e-01\n"
            "2,8.3333333333333326e-01,2.5000000000000000e+00,7.0000000000000000e+00\n")
        grid = cd.Grid2D(2, 2.0)
        cli._write_state(path, cd.State(grid, np.array([[0.0, 1 / 3], [2.5, 1e-300]]),
                                        np.array([[1.0, 0.1], [7.0, 1e5]])))
        assert path.read_text() == (
            "index,x,y,f,g\n"
            "0,5.0000000000000000e-01,5.0000000000000000e-01,"
            "0.0000000000000000e+00,1.0000000000000000e+00\n"
            "1,1.5000000000000000e+00,5.0000000000000000e-01,"
            "3.3333333333333331e-01,1.0000000000000001e-01\n"
            "2,5.0000000000000000e-01,1.5000000000000000e+00,"
            "2.5000000000000000e+00,7.0000000000000000e+00\n"
            "3,1.5000000000000000e+00,1.5000000000000000e+00,"
            "1.0000000000000000e-300,1.0000000000000000e+05\n")

    def test_two_dimensional_run(self, tmp_path):
        out = tmp_path / "o"
        code = _run_cli(["run", "--dimension", 2, "--cells", 10, "--t-final",
                         "2e-3", "--tau", "1e-3", "--tol", "1e-11", "--out", out])
        assert code == 0
        rows = (out / "diagnostics.csv").read_text().strip().splitlines()
        assert len(rows) == 4
        state_rows = (out / "state_000000.csv").read_text().strip().splitlines()
        assert state_rows[0] == "index,x,y,f,g"
        assert len(state_rows) == 101
        summary = (out / "summary.txt").read_text()
        assert "overall: PASS" in summary

    def test_regularized_run_via_flags(self, tmp_path):
        out = tmp_path / "o"
        code = _run_cli(["run", "--cells", 24, "--t-final", "3e-3", "--tau",
                         "1e-3", "--tol", "1e-12", "--eps", "1e-3", "--rho",
                         "1e3", "--out", out])
        assert code == 0
        rows = (out / "diagnostics.csv").read_text().strip().splitlines()
        assert len(rows) == 5


class TestVerifyCommand:
    def test_exit_zero_and_reports(self, capsys):
        assert _run_cli(["verify", "--n-max", 6, "--samples", 100,
                         "--seed", 7]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") >= 7
        assert "all property suites passed" in out

    def test_runs_without_any_pde_solve(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("verify must not solve the PDE")
        monkeypatch.setattr(scheme, "_newton_sparse", boom)
        monkeypatch.setattr(scheme, "run", boom)
        assert _run_cli(["verify", "--n-max", 4, "--samples", 50]) == 0


class TestLimitsCommand:
    def test_table_and_csv(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = _run_cli(["limits", "--cells", 32, "--tau", "1e-3", "--tol",
                         "1e-12", "--eps-list", "1e-2,1e-3,1e-4",
                         "--rho-list", "1e3", "--out", out])
        assert code == 0
        rows = (out / "limits.csv").read_text().strip().splitlines()
        assert rows[0].startswith("eps,rho,max_diff")
        assert len(rows) == 4
        diffs = [float(r.split(",")[2]) for r in rows[1:]]
        assert diffs[0] > diffs[1] > diffs[2]  # shrinks with eps

    def test_rejects_n_max_beyond_double_precision(self, tmp_path, capsys):
        # the increments used to print as nan and E_558.. to be written as
        # non-finite dE columns
        out = tmp_path / "o"
        code = _run_cli(["limits", "--cells", 16, "--ic-amp", "0.9", "--n-max", 700,
                         "--eps-list", "1e-2", "--out", out])
        assert code == cli.EXIT_CONFIG
        assert "E_558 of the initial state is not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_rejects_direct_regularization_flags(self, tmp_path, capsys):
        code = _run_cli(["limits", "--eps", "1e-2", "--rho", "100",
                         "--out", tmp_path / "o"])
        assert code == cli.EXIT_CONFIG

    @pytest.mark.parametrize("flag, value, bad", [
        ("--eps-list", "1e-2,abc", "'abc'"),
        ("--rho-list", "1e3,", "''"),
    ])
    def test_rejects_malformed_list(self, tmp_path, capsys, flag, value, bad):
        out = tmp_path / "o"
        code = _run_cli(["limits", "--cells", 16, flag, value, "--out", out])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert flag in err and f"{bad} is not a number" in err
        assert not out.exists()


class TestSweepCommand:
    def test_cartesian_product_runs(self, tmp_path):
        out = tmp_path / "sw"
        code = _run_cli(["sweep", "--cells", 12, "--t-final", "2e-3", "--tau",
                         "1e-3,2e-3", "--a", "2,3", "--b", 1, "--c", 1, "--d", 1,
                         "--tol", "1e-11", "--workers", 2, "--out", out])
        assert code == 0
        manifest = (out / "sweep_manifest.csv").read_text().strip().splitlines()
        assert manifest[0] == "directory,a,tau"
        assert len(manifest) == 5
        for i in range(4):
            assert (out / f"run_{i:03d}" / "diagnostics.csv").exists()

    def test_invalid_member_exits_like_run(self, tmp_path, capfd):
        # tau=0.3 does not divide t_final; tau=0.25 does and must still run
        out = tmp_path / "sw"
        code = _run_cli(["sweep", "--cells", 8, "--t-final", "1", "--tau",
                         "0.3,0.25", "--workers", 1, "--out", out])
        assert code == cli.EXIT_CONFIG
        assert "error [input] in" in capfd.readouterr().err
        assert not (out / "run_000").exists()
        rows = (out / "run_001" / "diagnostics.csv").read_text().strip().splitlines()
        assert len(rows) == 6                    # header, t = 0 and 4 steps
        assert "status: COMPLETED" in (out / "run_001" / "summary.txt").read_text()

    def test_rejects_zero_workers_before_writing(self, tmp_path, capsys):
        out = tmp_path / "sw"
        code = _run_cli(["sweep", "--cells", 8, "--tau", "1e-3,2e-3",
                         "--workers", 0, "--out", out])
        assert code == cli.EXIT_CONFIG
        assert "--workers must be at least 1" in capsys.readouterr().err
        assert not (out / "sweep_manifest.csv").exists()

    def test_sweep_without_lists_is_an_error(self, tmp_path, capsys):
        assert _run_cli(["sweep", "--cells", 12, "--out", tmp_path / "o"]) == \
            cli.EXIT_CONFIG
