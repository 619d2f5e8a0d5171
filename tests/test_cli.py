import json
import os

import numpy as np
import pytest

from maslovflow.cli import EXIT_CONFIG, EXIT_DISAGREE, EXIT_MODEL, EXIT_NUMERICAL, EXIT_OK, main
from maslovflow.selftest import SELFTEST_PROPERTIES


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
        assert "theta moved" in capsys.readouterr().err

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

    def test_mu_columns_present_only_with_chart_backend(self, tmp_path):
        out_u = tmp_path / "u.csv"
        main(["trace", "--model", "poschl_teller:2", "--lambda", "-2",
              "--step", "0.05", "--backend", "unitary", "--out", str(out_u)])
        header_u = [ln for ln in _read(out_u).splitlines() if not ln.startswith("#")][0]
        assert "mu_1" not in header_u and "sigma_re_11" in header_u
        out_c = tmp_path / "c.csv"
        main(["trace", "--model", "poschl_teller:2", "--lambda", "-2",
              "--step", "0.05", "--backend", "chart", "--out", str(out_c)])
        header_c = [ln for ln in _read(out_c).splitlines() if not ln.startswith("#")][0]
        assert "mu_1" in header_c and "sigma_re_11" not in header_c


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

        def fake_sweep(spec, lambdas, grid, backend="both", workers=1, chart_tol=None):
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


class TestSelftest:
    def test_passes(self, capsys):
        rc = main(["selftest"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert out.count("PASS") == 5
        assert "max defect" in out

    def test_corrupted_tolerance_fails(self, capsys):
        for prop in SELFTEST_PROPERTIES:
            rc = main(["selftest", "--corrupt", prop])
            assert rc != 0, prop
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

    @pytest.mark.parametrize("chart_tol", ["0", "-1e-3", "3.1416", "4", "nan"])
    def test_chart_tol_outside_zero_pi_exits_2(self, tmp_path, capsys, chart_tol):
        # at pi and beyond cot(chart_tol / 2) <= 0 would flag every sample
        rc = main(["trace", "--model", "poschl_teller:2", "--lambda=-5",
                   f"--chart-tol={chart_tol}", "--step", "0.05",
                   "--out", str(tmp_path / "t.csv")])
        assert rc == EXIT_CONFIG
        assert "chart_tol must lie in (0, pi)" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"modle": "kdv7"}), encoding="utf-8")
        rc = main(["trace", "--config", str(cfg), "--lambda", "0.0"])
        assert rc == EXIT_CONFIG
        assert "modle" in capsys.readouterr().err
