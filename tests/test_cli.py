import argparse
import dataclasses
import json
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maslovflow import get_model, run_trace
from maslovflow.cli import (
    _TRACE_BLOCK_ROWS,
    EXIT_CONFIG,
    EXIT_DISAGREE,
    EXIT_MODEL,
    EXIT_NUMERICAL,
    EXIT_OK,
    _fmt,
    main,
)
import maslovflow.cli as cli
import maslovflow.selftest as selftest
from maslovflow.tolerances import CHART_TOL


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


class TestTrace:
    def test_kdv7_default_step_row_count_and_theta_continuity(self, tmp_path):
        out = tmp_path / "kdv7.csv"
        rc = main(["trace", "--model", "kdv7", "--lambda", "0.15", "--out", str(out)])
        assert rc == EXIT_OK
        lines = _read(out).splitlines()
        data = [ln for ln in lines if not ln.startswith("#")]
        header, rows = data[0], data[1:]
        assert len(rows) == 4001
        theta_idx = header.split(",").index("theta_rad")
        theta = np.array([float(r.split(",")[theta_idx]) for r in rows])
        assert np.max(np.abs(np.diff(theta))) < np.pi

    def test_poschl_teller_footer_reports_zero_crossings(self, tmp_path):
        out = tmp_path / "pt.csv"
        rc = main(["trace", "--model", "poschl_teller:2", "--lambda", "-5",
                   "--step", "0.02", "--out", str(out)])
        assert rc == EXIT_OK
        content = _read(out)
        assert "# crossings: 0" in content

    def test_invalid_backend_exits_2_naming_field(self, tmp_path, capsys):
        os.environ["MASLOVFLOW_BACKEND"] = "bogus"
        try:
            rc = main(["trace", "--model", "kdv7", "--lambda", "0.1",
                       "--step", "0.05", "--out", str(tmp_path / "y.csv")])
        finally:
            del os.environ["MASLOVFLOW_BACKEND"]
        assert rc == EXIT_CONFIG
        assert "backend" in capsys.readouterr().err

    def test_missing_lambda_exits_2(self, capsys):
        rc = main(["trace", "--model", "kdv7"])
        assert rc == EXIT_CONFIG
        assert "lambda" in capsys.readouterr().err

    def test_unknown_model_exits_4(self, tmp_path, capsys):
        rc = main(["trace", "--model", "unknown_model", "--lambda", "0.0",
                   "--out", str(tmp_path / "z.csv")])
        assert rc == EXIT_MODEL

    def test_x_range_sets_model_window(self, tmp_path):
        out = tmp_path / "wide.csv"
        rc = main(["trace", "--model", "kdv7", "--lambda", "0.05", "--x-range=-30:30",
                   "--out", str(out)])
        assert rc == EXIT_OK
        rows = [ln for ln in _read(out).splitlines() if not ln.startswith("#")][1:]
        assert rows[0].startswith("-30,") and rows[-1].startswith("30,")
        assert "# crossings: 2" in _read(out)

    def test_window_cutting_the_kdv7_tail_rejected(self, tmp_path, capsys):
        # at [-6, 6] the wave's tail is far above the declared tolerance:
        # the field is refused instead of miscounting
        rc = main(["trace", "--model", "kdv7", "--lambda", "0.13", "--backend", "unitary",
                   "--x-range=-6:6", "--out", str(tmp_path / "narrow.csv")])
        assert rc == EXIT_NUMERICAL
        assert "far-field" in capsys.readouterr().err
        assert not (tmp_path / "narrow.csv").exists()

    def test_window_cutting_the_poschl_teller_well_rejected(self, tmp_path, capsys):
        # at [-1, 1] the window ends sit inside the well (V = -2.5), which
        # counted 1 of the 2 eigenvalues below -0.5 with exit 0
        rc = main(["trace", "--model", "poschl_teller:2", "--lambda", "-0.5",
                   "--backend", "unitary", "--x-range=-1:1", "--step", "0.01",
                   "--out", str(tmp_path / "narrow.csv")])
        assert rc == EXIT_NUMERICAL
        assert "far-field" in capsys.readouterr().err
        assert not (tmp_path / "narrow.csv").exists()

    def test_poschl_teller_window_reaching_the_tail_counts(self, tmp_path):
        out = tmp_path / "pt.csv"
        rc = main(["trace", "--model", "poschl_teller:2", "--lambda", "-0.5",
                   "--x-range=-6:6", "--step", "0.01", "--out", str(out)])
        assert rc == EXIT_OK
        content = _read(out)
        assert "init=farfield" in content
        assert "# crossings: 2" in content

    def test_numerical_failure_exits_5(self, tmp_path, capsys):
        rc = main(["trace", "--model", "poschl_teller:3", "--lambda", "-5", "--step", "0.5",
                   "--backend", "unitary", "--out", str(tmp_path / "coarse.csv")])
        assert rc == EXIT_NUMERICAL
        # the Moebius step's angle moves by less than pi here; the u jump fires
        assert "consecutive u samples differ" in capsys.readouterr().err

    def test_unitary_trace_counts_the_top_kdv7_eigenvalue(self, tmp_path):
        # at lambda = 0.12 on 1000 steps the Euler route counted 2
        out = tmp_path / "t.csv"
        rc = main(["trace", "--model", "kdv7", "--lambda", "0.12", "--backend", "unitary",
                   "--step", "0.04", "--out", str(out)])
        assert rc == EXIT_OK
        assert "# crossings: 3\n" in _read(out)

    def test_backend_disagreement_exits_3(self, tmp_path, monkeypatch, capsys):
        import dataclasses

        import maslovflow.maslov as maslov_mod

        run_row = maslov_mod._run_row

        def miscounting_row(*args, **kwargs):
            trace = run_row(*args, **kwargs)
            return dataclasses.replace(trace, count_chart=trace.count_chart + 1)

        monkeypatch.setattr(maslov_mod, "_run_row", miscounting_row)
        rc = main(["trace", "--model", "poschl_teller:2", "--lambda", "-2", "--step", "0.05",
                   "--out", str(tmp_path / "d.csv")])
        assert rc == EXIT_DISAGREE
        assert "backend disagreement" in capsys.readouterr().err

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["trace", "--model", "poschl_teller:2", "--lambda", "-2",
                "--step", "0.05"]
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        assert _read(a) == _read(b)

    @pytest.mark.parametrize("backend", ["chart", "unitary", "both"])
    def test_rows_match_per_value_reference(self, tmp_path, backend):
        # 601 rows: two full row blocks and a partial one
        out = tmp_path / "t.csv"
        rc = main(["trace", "--model", "kdv7", "--lambda", "-0.05", "--backend", backend,
                   "--step", str(40 / 600), "--out", str(out)])
        assert rc == EXIT_OK
        grid = np.linspace(-20.0, 20.0, 601)
        assert grid.size > 2 * _TRACE_BLOCK_ROWS
        trace = run_trace(get_model("kdv7"), -0.05, grid, backend=backend)
        upath, cpath = trace.unitary_path, trace.chart_path
        if upath is not None:
            phases, det = upath.phases, np.angle(np.linalg.det(upath.us))
        else:
            phases = cpath.phases
            det = np.angle(np.exp(1j * phases.sum(axis=1)))
        rows = []
        for m in range(grid.size):
            row = [_fmt(grid[m]), _fmt(trace.theta[m]), _fmt(det[m])]
            row += [_fmt(v) for v in phases[m]]
            if cpath is not None:
                row += [_fmt(v) for v in np.clip(cpath.mu[m], -1.0 / CHART_TOL, 1.0 / CHART_TOL)]
            rows.append(",".join(row) + "\n")
        lines = _read(out).splitlines(keepends=True)
        assert lines[3:-3] == rows
        assert "".join(lines) == "".join(lines[:3] + rows + lines[-3:])

    def test_mu_columns_present_only_with_chart_backend(self, tmp_path):
        out_u = tmp_path / "u.csv"
        main(["trace", "--model", "poschl_teller:2", "--lambda", "-2",
              "--step", "0.05", "--backend", "unitary", "--out", str(out_u)])
        header_u = [ln for ln in _read(out_u).splitlines() if not ln.startswith("#")][0]
        assert header_u == "x,theta_rad,det_phase_rad,u_phase_1_rad"
        out_c = tmp_path / "c.csv"
        main(["trace", "--model", "poschl_teller:2", "--lambda", "-2",
              "--step", "0.05", "--backend", "chart", "--out", str(out_c)])
        header_c = [ln for ln in _read(out_c).splitlines() if not ln.startswith("#")][0]
        assert header_c == "x,theta_rad,det_phase_rad,u_phase_1_rad,mu_1"


@settings(max_examples=2000, deadline=None, derandomize=True, database=None)
@given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-2.2250738585072014e-308)
@example(float("inf"))
@example(float("-inf"))
@example(float("nan"))
@example(-float("nan"))
def test_percent_format_is_format_17g(x):
    # the trace rows use one '%.17g' pattern; _fmt writes format(x, ".17g")
    assert "%.17g" % x == format(x, ".17g") == _fmt(x)


class TestSweep:
    def test_poschl_teller_brackets(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--model", "poschl_teller:2",
                   "--lambda-range=-5:-0.2", "--lambda-count", "25",
                   "--step", "0.02", "--backend", "unitary", "--out", str(out)])
        assert rc == EXIT_OK
        summary = json.loads(_read(tmp_path / "sweep.json"))
        brackets = summary["detected_eigenvalues"]
        assert len(brackets) == 2
        assert brackets[0]["lambda_lo"] - 1e-9 <= -4.0 <= brackets[0]["lambda_hi"] + 1e-9
        assert brackets[1]["lambda_lo"] - 1e-9 <= -1.0 <= brackets[1]["lambda_hi"] + 1e-9

    def test_skipped_rows_marked(self, tmp_path):
        out = tmp_path / "sweep2.csv"
        rc = main(["sweep", "--model", "poschl_teller:2",
                   "--lambda-range=-1:0.5", "--lambda-count", "7",
                   "--step", "0.04", "--backend", "unitary", "--out", str(out)])
        assert rc == EXIT_OK
        rows = [ln for ln in _read(out).splitlines() if not ln.startswith("#")][1:]
        skipped = [r for r in rows if r.endswith("skipped")]
        assert len(skipped) == 3

    def test_empty_lambda_grid_exits_2(self, capsys):
        rc = main(["sweep", "--model", "poschl_teller:2",
                   "--lambda-range=-5:-1", "--lambda-count", "1", "--step", "0.1"])
        assert rc == EXIT_CONFIG

    def test_missing_lambda_grid_spec_exits_2(self, capsys):
        rc = main(["sweep", "--model", "poschl_teller:2",
                   "--lambda-range=-5:-1", "--step", "0.1"])
        assert rc == EXIT_CONFIG
        assert "lambda" in capsys.readouterr().err

    def test_backend_disagreement_exits_3(self, tmp_path, monkeypatch, capsys):
        import maslovflow.cli as cli_mod
        from maslovflow.maslov import SweepRow, SweepTable

        def fake_sweep(spec, lambdas, grid, backend="both", workers=1):
            rows = (SweepRow(lam=-2.0, status="disagree", reason="chart=1 unitary=2",
                             theta_end=0.0, crossing_count=2, end_flag=False),
                    SweepRow(lam=-1.0, status="ok", reason="", theta_end=0.0,
                             crossing_count=2, end_flag=False))
            return SweepTable(lambdas=np.asarray(lambdas), rows=rows,
                              detected_eigenvalues=(), backend=backend)

        monkeypatch.setattr(cli_mod, "sweep_lambda", fake_sweep)
        rc = main(["sweep", "--model", "poschl_teller:2", "--lambda-range=-2:-1",
                   "--lambda-count", "2", "--step", "0.1",
                   "--out", str(tmp_path / "d.csv")])
        assert rc == EXIT_DISAGREE
        assert "disagree" in capsys.readouterr().err


    def test_failing_rows_listed_and_files_written(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rc = main(["sweep", "--model", "poschl_teller:3", "--lambda-range=-10:-0.5",
                   "--lambda-count", "4", "--step", "0.5"])
        assert rc == EXIT_NUMERICAL
        assert "4 row(s) failed" in capsys.readouterr().err
        rows = [ln for ln in _read(tmp_path / "sweep_poschl_teller.csv").splitlines()
                if not ln.startswith("#")][1:]
        assert len(rows) == 4 and all(r.endswith(",error") for r in rows)
        summary = json.loads(_read(tmp_path / "sweep_poschl_teller.json"))
        assert len(summary["errors"]) == 4
        assert all("phase tracking lost" in e["reason"] for e in summary["errors"])
        assert summary["detected_eigenvalues"] == []

    def test_x_range_sets_model_window(self, tmp_path):
        rc = main(["sweep", "--model", "kdv7", "--lambda-range=-0.25:0.05",
                   "--lambda-count", "2", "--x-range=-30:30", "--step", "0.05",
                   "--out", str(tmp_path / "wide.csv")])
        assert rc == EXIT_OK
        summary = json.loads(_read(tmp_path / "wide.json"))
        assert [(b["lambda_lo"], b["lambda_hi"]) for b in summary["detected_eigenvalues"]] \
            == [(-0.25, 0.05)]


class TestRefine:
    def test_refine_ground_state(self, tmp_path, capsys):
        out = tmp_path / "refine.json"
        rc = main(["refine", "--model", "poschl_teller:2",
                   "--lambda-range=-4.5:-3.5", "--step", "0.02",
                   "--tol-lambda", "1e-3", "--out", str(out)])
        assert rc == EXIT_OK
        payload = json.loads(_read(out))
        assert abs(payload["lambda_star"] + 4.0) < 1e-3

    def test_refine_runs_both_routes_by_default(self, capsys):
        # kdv7's top eigenvalue: both routes step the same propagators, so
        # their count jumps coincide at the chart route's 0.119327 on this
        # window (the Lie-algebra Euler jump, at 0.119539, lay above it) and
        # the default "both" gives the bracket of either route
        brackets = []
        for backend in (["--backend", "chart"], ["--backend", "unitary"], []):
            rc = main(["refine", "--model", "kdv7", "--lambda-range=0.1:0.15", "--step", "0.04",
                       *backend])
            assert rc == EXIT_OK
            brackets.append(capsys.readouterr().out.split(":")[0])
        assert brackets[0] == brackets[1] == brackets[2]
        lo, hi = (float(v) for v in brackets[0].split("(")[1].rstrip("]").split(", "))
        assert lo < 0.119327 <= hi


class TestSelftest:
    def test_passes(self, capsys):
        rc = main(["selftest"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert out.count("PASS") == 5
        assert "max defect" in out

    def test_corrupted_tolerance_fails(self, capsys, monkeypatch):
        for prop in list(selftest._BOUNDS):
            with monkeypatch.context() as patch:
                patch.setitem(selftest._BOUNDS, prop, 0.0)
                rc = main(["selftest"])
            assert rc == 1, prop
            lines = capsys.readouterr().out.splitlines()
            assert [ln.split()[1] for ln in lines if ln.startswith("FAIL")] == [prop + ":"]

    def test_unitarity_drift_fails_when_a_step_is_reprojected(self, monkeypatch):
        # the property measures the unprojected scheme: a re-projected step
        # hides drift, so the check must fail however small the defects
        import maslovflow.unitary as unitary_mod
        from maslovflow.selftest import check_unitarity_drift

        monkeypatch.setattr(unitary_mod, "REPROJECT_DEFECT", 0.0)
        report = check_unitarity_drift(1e-9)
        assert not report.passed
        assert "re-projected" in report.detail


class TestConfigPrecedence:
    def test_config_file_and_flag_override(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": "poschl_teller:2", "step": 0.04,
                                   "backend": "unitary"}), encoding="utf-8")
        out = tmp_path / "t.csv"
        rc = main(["trace", "--config", str(cfg), "--lambda", "-2", "--out", str(out)])
        assert rc == EXIT_OK
        rows = [ln for ln in _read(out).splitlines() if not ln.startswith("#")][1:]
        assert len(rows) == 1001  # step from config file

        out2 = tmp_path / "t2.csv"
        rc = main(["trace", "--config", str(cfg), "--lambda", "-2",
                   "--step", "0.02", "--out", str(out2)])
        assert rc == EXIT_OK
        rows2 = [ln for ln in _read(out2).splitlines() if not ln.startswith("#")][1:]
        assert len(rows2) == 2001  # flag beats config file

    def test_env_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": "poschl_teller:2", "step": 0.02,
                                   "backend": "unitary"}), encoding="utf-8")
        out = tmp_path / "t3.csv"
        os.environ["MASLOVFLOW_STEP"] = "0.05"
        try:
            rc = main(["trace", "--config", str(cfg), "--lambda", "-2", "--out", str(out)])
        finally:
            del os.environ["MASLOVFLOW_STEP"]
        assert rc == EXIT_OK
        rows = [ln for ln in _read(out).splitlines() if not ln.startswith("#")][1:]
        assert len(rows) == 801

    def test_chart_tol_is_no_setting(self, tmp_path, monkeypatch):
        # the chart singularity angle is the constant tolerances.CHART_TOL:
        # a flag, config key or variable that tries to set it is refused
        out = tmp_path / "t.csv"
        args = ["trace", "--model", "poschl_teller:2", "--lambda=-5", "--step", "0.05",
                "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(args + ["--chart-tol=1e-3"])
        assert exc.value.code == EXIT_CONFIG
        assert not out.exists()
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"chart_tol": 0.001}), encoding="utf-8")
        assert main(args + ["--config", str(cfg)]) == EXIT_CONFIG
        assert not out.exists()
        monkeypatch.setenv("MASLOVFLOW_CHART_TOL", "0.001")
        assert main(args) == EXIT_CONFIG
        assert not out.exists()

    def test_unknown_env_variable_rejected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MASLOVFLOW_BAKEND", "chart")
        out = tmp_path / "t.csv"
        rc = main(["trace", "--model", "poschl_teller:2", "--lambda=-5", "--step", "0.05",
                   "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert "MASLOVFLOW_BAKEND" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["trace", "--model", "kdv7", "--lambda", "0.05", "--step", "nan"],
        ["sweep", "--model", "kdv7", "--lambda-range=-0.3:0.1", "--lambda-step", "nan"],
        ["trace", "--model", "poschl_teller:2", "--lambda", "nan"],
        ["trace", "--model", "poschl_teller:2", "--lambda", "inf"],
        ["sweep", "--model", "poschl_teller:2", "--lambda-range=-inf:-1", "--lambda-count", "3"],
        ["refine", "--model", "poschl_teller:2", "--lambda-range=-inf:-3.5"],
        ["sweep", "--model", "poschl_teller:2", "--lambda-range=-5:-1", "--lambda-count", "3",
         "--x-range=-inf:20"],
    ], ids=["trace-step-nan", "sweep-lambda-step-nan", "trace-lambda-nan", "trace-lambda-inf",
            "sweep-lambda-range-inf", "refine-lambda-range-inf", "sweep-x-range-inf"])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, argv):
        rc = main(argv + ["--out", str(tmp_path / "out.csv")])
        assert rc == EXIT_CONFIG
        assert "finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"modle": "kdv7"}), encoding="utf-8")
        rc = main(["trace", "--config", str(cfg), "--lambda", "0.0"])
        assert rc == EXIT_CONFIG
        assert "modle" in capsys.readouterr().err


def test_each_setting_is_wired_in_all_three_places():
    # a setting is a _CONFIG_KEYS key, a RunConfig field and an option of
    # every subcommand; one missing from _CONFIG_KEYS would be dropped
    # silently by _merge_config
    keys = set(cli._CONFIG_KEYS)
    assert {f.name for f in dataclasses.fields(cli.RunConfig)} == keys
    assert set(cli._DEFAULTS) <= keys
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, command in sub.choices.items():
        assert {a.dest for a in command._actions} - {"help", "config"} == keys, name
