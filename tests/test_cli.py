import hashlib
import importlib
import os
import pathlib
import re
import subprocess
import sys
import textwrap
import tracemalloc
from dataclasses import replace

import pytest

import cbolab
import cbolab.cli
from cbolab._files import write_text_atomic
from cbolab.cli import ConfigError, main, parse_config, trajectory_csv
from cbolab.dynamics import IntegrationError, simulate

SIM_LINEAR = """
    [objective]
    name = linear

    [sim]
    lambda = 1.0
    alpha = 10.0  # sharpness
    positions = 0.0, 1.0
"""

SWEEP_QUADRATIC = """
    [objective]
    name = quadratic

    [sim]
    lambda = 1.0
    positions = 0.0, 1.0

    [sweep-alpha]
    alphas = 10 100 1000 10000
"""

SWEEP_N = """
    [sweep-n]
    alpha = 5.0
    width = 1.0
    ns = 2, 4, 8
"""

CERTIFY_DOUBLE_WELL = """
    [objective]
    name = double-well

    [certify]
    alphas = 1e5, 2e5, 1e6
"""

VERIFY_RASTRIGIN = """
    [objective]
    name = rastrigin1d

    [sim]
    lambda = 2.0
    alpha = 3.0
    positions = -1.0, 0.5, 2.0
"""


def cfg_file(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


def lines_of(capsys):
    return capsys.readouterr().out.strip().split("\n")


def value_of(lines, key):
    for line in lines:
        if line.startswith(key + " = "):
            return line.split(" = ", 1)[1]
    raise AssertionError(f"no line for {key!r} in {lines}")


def trajectory_text(traj):
    """The CSV text that the CLI streams, for a recorded trajectory."""
    parts = []
    row = trajectory_csv(parts.append, len(traj.states[0]))
    for sample in zip(traj.times, traj.states, traj.consensus_values):
        row(*sample)
    return "".join(parts)


class TestParseConfig:
    def test_simulate_round_trip(self, tmp_path):
        cfg = parse_config(cfg_file(tmp_path, SIM_LINEAR), "simulate")
        assert cfg.objective.family == "linear"
        assert cfg.sim.lam == 1.0
        assert cfg.sim.alpha == 10.0  # the inline comment is stripped
        assert cfg.sim.initial_positions == (0.0, 1.0)

    def test_optional_sim_keys(self, tmp_path):
        text = """
            [objective]
            name = quadratic
            domain = -1 1

            [sim]
            lambda = 2.0
            alpha = 1.0
            positions = -0.5 0.5
            integrator = euler
            dt = 1e-2
            gap_tol = 1e-8
            t_max = 10.0
            sample_stride = 5
        """
        cfg = parse_config(cfg_file(tmp_path, text), "simulate")
        assert cfg.objective.domain_lo == -1.0
        assert cfg.sim.integrator == "euler"
        assert cfg.sim.dt == 1e-2
        assert cfg.sim.gap_tol == 1e-8
        assert cfg.sim.t_max == 10.0
        assert cfg.sim.sample_stride == 5

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            parse_config("/nonexistent/cfg.ini", "simulate")

    @pytest.mark.parametrize(
        "mutation,needle",
        [
            ("[sim]\nlambda = 1\npositions = 0 1\nalpha = 1", "missing .objective."),
            ("[objective]\nname = linear", "missing .sim."),
            ("[objective]\nname = linear\n[sim]\npositions = 0 1\nalpha = 1", "sim.lambda"),
            ("[objective]\nname = linear\n[sim]\nlambda = 1\nalpha = 1", "sim.positions"),
            ("[objective]\nname = linear\n[sim]\nlambda = 1\npositions = 0 1", "sim.alpha"),
        ],
    )
    def test_missing_pieces(self, tmp_path, mutation, needle):
        with pytest.raises(ConfigError, match=needle):
            parse_config(cfg_file(tmp_path, mutation), "simulate")

    def test_non_numeric_value(self, tmp_path):
        text = SIM_LINEAR.replace("lambda = 1.0", "lambda = abc")
        with pytest.raises(ConfigError, match="expected numbers"):
            parse_config(cfg_file(tmp_path, text), "simulate")

    def test_bad_sim_value_names_the_field(self, tmp_path):
        text = SIM_LINEAR + "    dt = -0.5\n"
        with pytest.raises(ConfigError, match="dt must be positive"):
            parse_config(cfg_file(tmp_path, text), "simulate")

    def test_fractional_stride_rejected(self, tmp_path):
        text = SIM_LINEAR + "    sample_stride = 2.5\n"
        with pytest.raises(ConfigError, match="sample_stride"):
            parse_config(cfg_file(tmp_path, text), "simulate")

    def test_table_objective(self, tmp_path):
        table = tmp_path / "table.csv"
        table.write_text("x,f\n0.0,1.0\n0.5,0.0\n1.0,1.0\n")
        text = f"""
            [objective]
            name = custom-table
            table = {table}

            [sim]
            lambda = 1.0
            alpha = 5.0
            positions = 0.5, 1.0
        """
        cfg = parse_config(cfg_file(tmp_path, text), "simulate")
        assert cfg.objective.family == "custom-table"
        assert cfg.objective.known_minimizer == 0.5

    def test_table_path_must_exist(self, tmp_path):
        text = """
            [objective]
            name = custom-table
            table = /nonexistent/table.csv

            [sim]
            lambda = 1.0
            alpha = 5.0
            positions = 0.5, 1.0
        """
        with pytest.raises(ConfigError, match="file not found"):
            parse_config(cfg_file(tmp_path, text), "simulate")

    def test_table_params_inline(self, tmp_path):
        text = """
            [objective]
            name = custom-table
            params = 0 1 0.5 0 1 1

            [sim]
            lambda = 1.0
            alpha = 5.0
            positions = 0.5, 1.0
        """
        cfg = parse_config(cfg_file(tmp_path, text), "simulate")
        assert cfg.objective.known_minimizer == 0.5

    def test_sweep_alpha_needs_its_grid(self, tmp_path):
        text = """
            [objective]
            name = quadratic

            [sim]
            lambda = 1.0
            positions = 0.0, 1.0
        """
        with pytest.raises(ConfigError, match="sweep-alpha.alphas"):
            parse_config(cfg_file(tmp_path, text), "sweep-alpha")

    def test_sweep_alpha_sim_needs_no_alpha(self, tmp_path):
        cfg = parse_config(cfg_file(tmp_path, SWEEP_QUADRATIC), "sweep-alpha")
        assert cfg.alphas == (10.0, 100.0, 1000.0, 10000.0)
        assert cfg.sim.alpha == 10.0  # seeded from the grid

    def test_sweep_n_keys(self, tmp_path):
        cfg = parse_config(cfg_file(tmp_path, SWEEP_N), "sweep-n")
        assert cfg.n_alpha == 5.0 and cfg.width == 1.0
        assert cfg.counts == (2, 4, 8)
        assert cfg.j == 1
        for key in ("alpha", "width", "ns"):
            broken = SWEEP_N.replace(key + " ", "ignored ", 1)
            with pytest.raises(ConfigError, match=f"sweep-n.{key}"):
                parse_config(cfg_file(tmp_path, broken, name=f"b_{key}.ini"), "sweep-n")

    def test_sweep_n_counts_must_be_integers(self, tmp_path):
        text = SWEEP_N.replace("ns = 2, 4, 8", "ns = 2.5, 4")
        with pytest.raises(ConfigError, match="integers"):
            parse_config(cfg_file(tmp_path, text), "sweep-n")

    def test_certify_defaults(self, tmp_path):
        cfg = parse_config(cfg_file(tmp_path, CERTIFY_DOUBLE_WELL), "certify")
        assert cfg.grid_n == 10_000
        assert cfg.certify_alphas == (1e5, 2e5, 1e6)

    def test_default_section_keys_are_not_unknown(self, tmp_path):
        text = "[DEFAULT]\nnote = every section inherits this\n" + textwrap.dedent(SIM_LINEAR)
        cfg = parse_config(cfg_file(tmp_path, text), "simulate")
        assert cfg.sim.alpha == 10.0


class TestSimulateCommand:
    def test_writes_trajectory_and_reports(self, tmp_path, capsys):
        cfg = cfg_file(tmp_path, SIM_LINEAR)
        rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 0
        lines = lines_of(capsys)
        assert float(value_of(lines, "x_inf_estimate")) == pytest.approx(
            0.069310178166072844477, abs=1e-6
        )
        assert value_of(lines, "stop_reason") == "gap_converged"
        traj = tmp_path / "out" / "trajectory.csv"
        assert traj.exists()
        content = traj.read_text()
        assert content.startswith("t,x_1,x_2,m,gap_max\n")
        # atomic write leaves no temp droppings behind
        assert list((tmp_path / "out").glob(".tmp-*")) == []

    def test_full_trajectory_flag_records_every_step(self, tmp_path, capsys):
        cfg = cfg_file(tmp_path, SIM_LINEAR)
        main(["simulate", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["simulate", "--config", cfg, "--out", str(tmp_path / "b"), "--trajectory"])
        capsys.readouterr()
        rows_default = len((tmp_path / "a" / "trajectory.csv").read_text().splitlines())
        rows_full = len((tmp_path / "b" / "trajectory.csv").read_text().splitlines())
        assert rows_full > 5 * rows_default  # stride 10 vs stride 1

    def test_runs_are_deterministic(self, tmp_path, capsys):
        cfg = cfg_file(tmp_path, SIM_LINEAR)
        main(["simulate", "--config", cfg, "--out", str(tmp_path / "r1")])
        main(["simulate", "--config", cfg, "--out", str(tmp_path / "r2")])
        capsys.readouterr()
        assert (tmp_path / "r1" / "trajectory.csv").read_bytes() == (
            tmp_path / "r2" / "trajectory.csv"
        ).read_bytes()

    def test_timeout_exits_2_but_still_writes(self, tmp_path, capsys):
        cfg = cfg_file(tmp_path, SIM_LINEAR + "    t_max = 1e-6\n")
        rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        lines = lines_of(capsys)
        assert value_of(lines, "stop_reason") == "t_max_reached"
        assert (tmp_path / "out" / "trajectory.csv").exists()

    def test_table_objective_end_to_end(self, tmp_path, capsys):
        table = tmp_path / "table.csv"
        table.write_text("x,f\n0.0,1.0\n0.5,0.0\n1.0,1.0\n")
        text = f"""
            [objective]
            name = custom-table
            table = {table}

            [sim]
            lambda = 1.0
            alpha = 20.0
            positions = 0.5, 1.0
        """
        rc = main(["simulate", "--config", cfg_file(tmp_path, text), "--out", str(tmp_path / "out")])
        assert rc == 0
        lines = lines_of(capsys)
        # the minimizer is at the kink; the consensus error is about ln2/(alpha*slope)
        assert float(value_of(lines, "error_to_minimizer")) < 0.05

    @pytest.mark.parametrize(
        "key, line", [("domain", "domain = 0 5"), ("params", "params = 1 2 3")], ids=["domain", "params"]
    )
    def test_table_rejects_domain_and_params(self, key, line, tmp_path, capsys):
        table = tmp_path / "table.csv"
        table.write_text("x,f\n0.0,1.0\n0.5,0.0\n1.0,1.0\n")
        text = f"""
            [objective]
            name = custom-table
            table = {table}
            {line}

            [sim]
            lambda = 1.0
            alpha = 20.0
            positions = 0.5, 1.0
        """
        rc = main(["simulate", "--config", cfg_file(tmp_path, text), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert f"objective.{key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("full", [False, True], ids=["default-stride", "stride-1"])
    def test_streamed_csv_equals_the_recorded_trajectory(self, full, tmp_path, capsys):
        path = cfg_file(tmp_path, VERIFY_RASTRIGIN)
        main(["simulate", "--config", path, "--out", str(tmp_path)] + ["--trajectory"] * full)
        capsys.readouterr()
        cfg = parse_config(path, "simulate")
        sim = replace(cfg.sim, sample_stride=1) if full else cfg.sim
        want = trajectory_text(simulate(cfg.objective, sim).trajectory)
        assert (tmp_path / "trajectory.csv").read_bytes() == want.encode()

    def test_memory_does_not_grow_with_rows(self, tmp_path, capsys):
        cfg = cfg_file(tmp_path, SIM_LINEAR)
        tracemalloc.start()
        try:
            main(["simulate", "--config", cfg, "--out", str(tmp_path), "--trajectory"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        size = (tmp_path / "trajectory.csv").stat().st_size
        assert size > 1_000_000
        assert peak < size / 4

    def test_a_run_that_fails_mid_stream_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        def failing(obj, cfg, **kwargs):
            hook = kwargs.pop("on_sample")
            seen = [0]

            def on_sample(t, xs, m):
                seen[0] += 1
                if seen[0] > 2000:  # past the first flushes of the file buffer
                    raise IntegrationError("injected failure")
                hook(t, xs, m)

            return simulate(obj, cfg, on_sample=on_sample, **kwargs)

        monkeypatch.setattr(cbolab.cli, "simulate", failing)
        cfg = cfg_file(tmp_path, SIM_LINEAR)
        out = tmp_path / "out"
        rc = main(["simulate", "--config", cfg, "--out", str(out), "--trajectory"])
        assert rc == 1
        assert "error: injected failure" in capsys.readouterr().err
        assert list(out.iterdir()) == []


class TestSweepCommands:
    def test_sweep_alpha_end_to_end(self, tmp_path, capsys):
        cfg = cfg_file(tmp_path, SWEEP_QUADRATIC)
        out = str(tmp_path / "out")
        rc = main(["sweep-alpha", "--config", cfg, "--out", out, "--jobs", "1"])
        assert rc == 0
        lines = lines_of(capsys)
        slope = float(value_of(lines, "fitted_slope"))
        assert -0.6 <= slope <= -0.4
        csv_lines = (tmp_path / "out" / "sweep_alpha.csv").read_text().strip().split("\n")
        assert csv_lines[0] == "param,x_inf,abs_error,bound_lower,bound_upper"
        assert len(csv_lines) == 1 + 4 + 1
        assert csv_lines[-1].startswith("# fitted_slope=")
        assert not (tmp_path / "out" / "sweep_alpha_loglog.csv").exists()

    def test_sweep_alpha_plot_data(self, tmp_path, capsys):
        cfg = cfg_file(tmp_path, SWEEP_QUADRATIC)
        out = str(tmp_path / "out")
        rc = main(
            ["sweep-alpha", "--config", cfg, "--out", out, "--jobs", "1", "--emit-plot-data"]
        )
        assert rc == 0
        plot = (tmp_path / "out" / "sweep_alpha_loglog.csv").read_text().strip().split("\n")
        assert plot[0] == "log10_alpha,log10_abs_error"
        assert len(plot) == 5
        assert float(plot[1].split(",")[0]) == 1.0  # log10(10)

    def test_sweep_alpha_undefined_slope_exits_2(self, tmp_path, capsys):
        text = SWEEP_QUADRATIC.replace("alphas = 10 100 1000 10000", "alphas = 100")
        rc = main(
            ["sweep-alpha", "--config", cfg_file(tmp_path, text), "--out", str(tmp_path / "o")]
        )
        assert rc == 2
        assert "fitted_slope = undefined" in capsys.readouterr().out

    def test_sweep_n_end_to_end(self, tmp_path, capsys):
        cfg = cfg_file(tmp_path, SWEEP_N)
        out = str(tmp_path / "out")
        rc = main(["sweep-n", "--config", cfg, "--out", out, "--jobs", "1"])
        assert rc == 0
        lines = lines_of(capsys)
        assert float(value_of(lines, "max_oracle_mismatch")) < 1e-6
        assert float(value_of(lines, "fitted_slope")) > 0.0
        csv_lines = (tmp_path / "out" / "sweep_n.csv").read_text().strip().split("\n")
        assert len(csv_lines) == 1 + 3 + 1
        first = csv_lines[1].split(",")
        assert first[3] == first[4]  # the exact value fills both bound columns

    def test_sweep_n_jobs_do_not_change_the_csv(self, tmp_path, capsys):
        cfg = cfg_file(tmp_path, SWEEP_N)
        main(["sweep-n", "--config", cfg, "--out", str(tmp_path / "s"), "--jobs", "1"])
        main(["sweep-n", "--config", cfg, "--out", str(tmp_path / "p"), "--jobs", "2"])
        capsys.readouterr()
        assert (tmp_path / "s" / "sweep_n.csv").read_bytes() == (
            tmp_path / "p" / "sweep_n.csv"
        ).read_bytes()

    def test_sweep_alpha_validation_error_exits_1(self, tmp_path, capsys):
        text = SWEEP_QUADRATIC.replace("alphas = 10 100 1000 10000", "alphas = 100 10")
        rc = main(
            ["sweep-alpha", "--config", cfg_file(tmp_path, text), "--out", str(tmp_path / "o")]
        )
        assert rc == 1
        assert "increasing" in capsys.readouterr().err


class TestCertifyCommand:
    def test_certify_prints_fields_and_bound_table(self, tmp_path, capsys):
        cfg = cfg_file(tmp_path, CERTIFY_DOUBLE_WELL)
        rc = main(["certify", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert float(value_of(lines, "alpha0")) == pytest.approx(125630.0, rel=1e-4)
        assert float(value_of(lines, "c1")) == pytest.approx(0.260134, rel=1e-4)
        assert "B(100000) = n/a (alpha <= alpha0)" in out
        assert float(value_of(lines, "B(200000)")) == pytest.approx(0.0142184, rel=1e-4)
        notes = [line for line in lines if line.startswith("note:")]
        assert len(notes) == 2
        assert "bound for a particle pair" in notes[1]
        # summary readers parse every "name = value" line as a number
        assert not any(" = " in line for line in notes)

    def test_certify_plot_data(self, tmp_path, capsys):
        cfg = cfg_file(tmp_path, CERTIFY_DOUBLE_WELL)
        rc = main(
            ["certify", "--config", cfg, "--out", str(tmp_path / "out"), "--emit-plot-data"]
        )
        assert rc == 0
        rows = (tmp_path / "out" / "certificate_bound.csv").read_text().strip().split("\n")
        assert rows[0] == "alpha,bound"
        assert len(rows) == 3  # the alpha below alpha0 is skipped

    def test_plot_data_replaces_the_last_run_even_with_no_rows(self, tmp_path, capsys):
        out = tmp_path / "out"
        for alphas in ("1e7", "1"):  # above alpha0, then below it
            text = f"[objective]\nname = double-well\n[certify]\nalphas = {alphas}\n"
            cfg = cfg_file(tmp_path, text)
            assert main(["certify", "--config", cfg, "--out", str(out), "--emit-plot-data"]) == 0
        assert "B(1) = n/a (alpha <= alpha0)" in capsys.readouterr().out
        assert (out / "certificate_bound.csv").read_text() == "alpha,bound\n"

    def test_flat_curvature_exits_3(self, tmp_path, capsys):
        text = """
            [objective]
            name = double-well
            params = 0.5 0.5 0.0
        """
        rc = main(["certify", "--config", cfg_file(tmp_path, text), "--out", str(tmp_path)])
        assert rc == 3
        assert "certification rejected" in capsys.readouterr().err

    def test_boundary_minimizer_exits_1(self, tmp_path, capsys):
        text = """
            [objective]
            name = linear
        """
        rc = main(["certify", "--config", cfg_file(tmp_path, text), "--out", str(tmp_path)])
        assert rc == 1
        assert "boundary" in capsys.readouterr().err


class TestVerifyCommand:
    def test_all_checks_pass(self, tmp_path, capsys):
        cfg = cfg_file(tmp_path, VERIFY_RASTRIGIN)
        rc = main(["verify", "--config", cfg])
        assert rc == 0
        out = capsys.readouterr().out
        for name in (
            "gap_decay",
            "order_preservation",
            "consensus_containment",
            "average_bound",
            "uniform_bound",
        ):
            assert f"{name}: PASS" in out
        assert "FAIL" not in out

    def test_unstable_dt_is_a_config_error(self, tmp_path, capsys):
        # the spec's deliberately coarse verify setup: dt * lambda = 1.0
        text = VERIFY_RASTRIGIN + "    dt = 0.5\n"
        rc = main(["verify", "--config", cfg_file(tmp_path, text)])
        assert rc == 1
        assert "stability" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_overflowing_step_count_is_a_config_error(self, command, tmp_path, capsys):
        # t_max/dt overflows to inf, so the run could never end
        text = SIM_LINEAR + "    dt = 1e-310\n"
        rc = main([command, "--config", cfg_file(tmp_path, text)])
        assert rc == 1
        assert "dt = 1e-310" in capsys.readouterr().err

    def test_failing_invariant_is_reported_not_aborted(self, tmp_path, capsys):
        # coarse Euler steps break the average bound, which never aborts a run
        text = """
            [objective]
            name = linear
            domain = -1 1

            [sim]
            lambda = 1
            alpha = 1000
            positions = -1 0.25 0.25 0.25 0.25
            integrator = euler
            dt = 0.5
            sample_stride = 1
        """
        rc = main(["verify", "--config", cfg_file(tmp_path, text)])
        assert rc == 2
        lines = lines_of(capsys)
        assert len(lines) == 5
        assert lines[3].startswith("average_bound: FAIL residual=0.00816332 ")
        assert sum(": PASS " in line for line in lines) == 4
        assert not any(line.startswith("integration") for line in lines)


class TestArgumentErrors:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_missing_config_flag(self):
        with pytest.raises(SystemExit):
            main(["simulate"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--jobs", "2"],
            ["verify", "--out", "o"],
            ["simulate", "--emit-plot-data"],
            ["simulate", "--jobs", "2"],
            ["certify", "--trajectory"],
            ["sweep-n", "--trajectory"],
        ],
    )
    def test_flag_on_a_subcommand_that_ignores_it(self, argv, capsys):
        with pytest.raises(SystemExit):
            main(argv + ["--config", "cfg.ini"])
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,text,field",
        [
            ("simulate", SIM_LINEAR + "    sample_stride = inf\n", "sim.sample_stride"),
            ("simulate", SIM_LINEAR + "    sample_stride = nan\n", "sim.sample_stride"),
            ("sweep-n", SWEEP_N.replace("ns = 2, 4, 8", "ns = 2 inf"), "sweep-n.ns"),
            ("sweep-n", SWEEP_N + "    j = 1e400\n", "sweep-n.j"),
            ("certify", CERTIFY_DOUBLE_WELL + "    grid_n = inf\n", "certify.grid_n"),
        ],
        ids=["stride-inf", "stride-nan", "ns-inf", "j-1e400", "grid_n-inf"],
    )
    def test_integer_field_that_is_not_whole_exits_1(self, command, text, field, tmp_path, capsys):
        rc = main([command, "--config", cfg_file(tmp_path, text), "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err

    @pytest.mark.parametrize(
        "argv,text,key,known",
        [
            (["simulate"], SIM_LINEAR + "    gap-tol = 1e-3\n", "sim.gap-tol", "gap_tol"),
            (
                ["certify", "--emit-plot-data"],
                "[objective]\nname = double-well\n[certify]\nalpha = 1.5e5 2e5\n",
                "certify.alpha",
                "alphas",
            ),
        ],
        ids=["sim-gap-tol", "certify-alpha"],
    )
    def test_unknown_config_key_exits_1(self, argv, text, key, known, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(argv + ["--config", cfg_file(tmp_path, text), "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {key} ") and known in captured.err
        assert not out.exists()

    def test_unknown_config_section_exits_1(self, tmp_path, capsys):
        text = "[objective]\nname = double-well\n[certfy]\ngrid_n = 5\nalphas = 2e5\n"
        out = tmp_path / "out"
        rc = main(["certify", "--emit-plot-data", "--config", cfg_file(tmp_path, text),
                   "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: [certfy] ")
        assert all(name in captured.err for name in cbolab.cli._KEYS)
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_must_be_positive(self, jobs, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep-n", "--config", "cfg.ini", "--jobs", jobs])
        assert exc.value.code == 2
        assert "argument --jobs" in capsys.readouterr().err

    def test_bad_config_path_exits_1(self, capsys):
        rc = main(["simulate", "--config", "/nonexistent/cfg.ini"])
        assert rc == 1
        assert "not found" in capsys.readouterr().err


# The README's example configs, each command run on them, and the SHA-256 of
# its stdout and of every file it writes. A change to any artifact byte, to a
# header, a digit or a `nan`, fails here. The digests rest on the platform's
# libm bits, as the float.hex catalogue in test_objective.py does.
README_CONFIGS = {
    "sim.ini": """
        [objective]
        name = linear
        domain = 0 1

        [sim]
        lambda = 1.0
        alpha = 10
        positions = 0.0 1.0
        integrator = rk4
        dt = 1e-3
        gap_tol = 1e-10
    """,
    "sweep.ini": """
        [objective]
        name = quadratic
        domain = -1 1

        [sim]
        lambda = 1.0
        positions = 0.0 0.8

        [sweep-alpha]
        alphas = 1e1 1e2 1e3 1e4
    """,
    "sweepn.ini": """
        [sweep-n]
        alpha = 5.0
        width = 1.0
        ns = 2 4 8 16 32
        j = 1
    """,
    "cert.ini": """
        [objective]
        name = double-well
        domain = 0 1

        [certify]
        grid_n = 10000
        alphas = 1.5e5 2e5 4e5
    """,
}

SIMULATE_STDOUT = "bf4304308f9bc97fee5ec4ab107eb81adb624b3c5e8cf27898e5d8b5f9bf979d"
SWEEP_N_DIGESTS = {
    "stdout": "56442133fa137c3004b0a600307f170100fb0e213acb65ad55dde02d5afe5d2a",
    "sweep_n.csv": "fd1768e06dcff68c4c9b9330cb4df31b089ce2fc1c74e5cbdaa2285371b802f3",
    "sweep_n_plot.csv": "d1e178a7dd0c9099f364a36019240581095ff53e2883375f4c2c58a77b952d91",
}


@pytest.mark.parametrize(
    "argv,digests",
    [
        (["simulate", "--config", "sim.ini"], {
            "stdout": SIMULATE_STDOUT,
            "trajectory.csv": "e716ef83443270aaddfee572579970345c7e5fcebe2da040d94cef1bd75387bd",
        }),
        (["simulate", "--config", "sim.ini", "--trajectory"], {
            "stdout": SIMULATE_STDOUT,
            "trajectory.csv": "a3e4f913ee1e970da058525f1427357593036ee3fa563a958d5d39a888f17080",
        }),
        (["sweep-alpha", "--config", "sweep.ini", "--emit-plot-data", "--jobs", "1"], {
            "stdout": "d23dc3e1796664508b7b917c45ed6a3ced35bd68fe5ff876a1b78dcea9cdca23",
            "sweep_alpha.csv": "f8574a8ad56f4dbb02f549bb775560be7caf23053537de6873a65cd3cb39ed0d",
            "sweep_alpha_loglog.csv":
                "864d1c342d735635f20ee6f08d32c8f937b38b7515268bb50237d4c5c67e8248",
        }),
        (["sweep-n", "--config", "sweepn.ini", "--emit-plot-data", "--jobs", "1"],
         SWEEP_N_DIGESTS),
        (["sweep-n", "--config", "sweepn.ini", "--emit-plot-data", "--jobs", "2"],
         SWEEP_N_DIGESTS),
        (["certify", "--config", "cert.ini", "--emit-plot-data"], {
            "stdout": "ccaf52c84dca96d68da1b190ebaeeb0ca821fa07b00e37d5a1b88a43e01b6d23",
            "certificate_bound.csv":
                "366f4d1d7bbcb1b577fc56cbb982a0b19560f5d5b97054b22f74107e084b22e0",
        }),
    ],
    ids=["simulate", "simulate-trajectory", "sweep-alpha", "sweep-n-jobs1", "sweep-n-jobs2",
         "certify"],
)
def test_readme_configs_write_pinned_bytes(argv, digests, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # stdout names the relative --out path
    for name, text in README_CONFIGS.items():
        cfg_file(tmp_path, text, name)
    assert main(argv + ["--out", "out"]) == 0
    got = {"stdout": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()}
    for path in (tmp_path / "out").iterdir():
        got[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert got == digests


def readme_table(header):
    """The backticked names in each cell of the README table with this header row."""
    lines = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    rows = []
    for line in lines[lines.index(header) + 2:]:
        if not line.startswith("|"):
            return rows
        rows.append([re.findall(r"`([^`]+)`", cell) for cell in line.strip("|").split("|")])
    return rows


def test_readme_config_reference_names_every_key():
    documented, section = {}, None
    for cells in readme_table("| section | key | meaning |"):
        section = cells[0][0].strip("[]") if cells[0] else section
        documented.setdefault(section, set()).update(cells[1])
    assert documented == {name: set(keys) for name, keys in cbolab.cli._KEYS.items()}


def test_readme_flag_table_names_every_flag():
    documented = {
        cells[0][0].split()[0]: set(cells[1])
        for cells in readme_table("| flag | subcommands | meaning |")
    }
    declared = {}
    for command, (_, flags) in cbolab.cli._COMMANDS.items():
        for flag in flags:
            declared.setdefault(flag, set()).add(command)
    assert documented == declared


def test_import_loads_no_pool_or_third_party_modules():
    # the runtime is stdlib-only, and sweeps import the process pool lazily
    src = os.path.dirname(os.path.dirname(os.path.abspath(cbolab.__file__)))
    code = (
        "import sys, cbolab; "
        "print(*[m for m in ('multiprocessing', 'concurrent.futures', 'numpy', 'scipy', "
        "'pickle', 'csv') if m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout.strip() == ""


@pytest.mark.parametrize(
    "module", ["cbolab", "cbolab.dynamics", "cbolab.analysis", "cbolab.objective"]
)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert set(mod.__all__) <= namespace.keys()


def test_csv_gets_the_mode_of_a_plain_write(tmp_path):
    old = os.umask(0o022)
    try:
        write_text_atomic(str(tmp_path / "out.csv"), "a,b\n")
        with open(tmp_path / "plain.csv", "w") as fh:
            fh.write("a,b\n")
    finally:
        os.umask(old)
    assert (tmp_path / "out.csv").stat().st_mode == (tmp_path / "plain.csv").stat().st_mode
