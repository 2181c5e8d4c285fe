import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import litt43
from litt43.cli import closed_form_label, main
from litt43.exponents import Exponent, ExponentPair, classify_region, real_constant
from litt43.forms import random_form, save_form, transpose, witness_a0
from litt43.jsonio import format_float
from litt43.opnorm import real_sup_norm
from litt43.search import checkpoint_load

SQRT2 = math.sqrt(2.0)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstant:
    def test_littlewood_real(self, capsys):
        code, out, _ = run(capsys, "constant", "--a", "4/3", "--b", "4/3",
                           "--field", "real")
        assert code == 0
        assert "2^(1/2)" in out
        assert "1.4142135623730951" in out
        assert "region = RI" in out

    def test_inadmissible_exits_two(self, capsys):
        code, _, err = run(capsys, "constant", "--a", "1", "--b", "1")
        assert code == 2
        assert "1/a + 1/b <= 3/2" in err

    def test_complex_sharp_point(self, capsys):
        code, out, _ = run(capsys, "constant", "--a", "1", "--b", "2",
                           "--field", "complex")
        assert code == 0
        assert "2/sqrt(pi)" in out
        assert "1.1283791670955126" in out

    def test_complex_interval_when_open(self, capsys):
        code, out, _ = run(capsys, "constant", "--a", "4/3", "--b", "4/3",
                           "--field", "complex")
        assert code == 0
        assert "interval = [" in out

    def test_exponent_below_one_exits_two(self, capsys):
        code, _, err = run(capsys, "constant", "--a", "0.5", "--b", "2")
        assert code == 2

    def test_unparseable_exponent_exits_four(self, capsys):
        code, _, err = run(capsys, "constant", "--a", "abc", "--b", "2")
        assert code == 4


class TestClosedFormLabels:
    @pytest.mark.parametrize("value,label", [
        (1.0, "1"),
        (SQRT2, "2^(1/2)"),
        (2.0 / math.sqrt(math.pi), "2/sqrt(pi)"),
        (4.0 / math.pi, "4/pi"),
        (2.0 ** 0.25, "2^(1/4)"),
    ])
    def test_known_values(self, value, label):
        assert closed_form_label(value) == label

    def test_unknown_value(self):
        assert closed_form_label(1.2345) is None


class TestRegionMap:
    def test_golden_rows_at_resolution_101(self, capsys, tmp_path):
        csv = tmp_path / "map.csv"
        svg = tmp_path / "map.svg"
        code, out, _ = run(capsys, "region-map", "--resolution", "101",
                           "--csv", str(csv), "--svg", str(svg))
        assert code == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == ("a,b,inv_a,inv_b,region,real_constant,"
                            "complex_lower,complex_upper,complex_exact")
        assert len(lines) == 1 + 101 * 101
        by_inv = {}
        for line in lines[1:]:
            cells = line.split(",")
            by_inv[(cells[2], cells[3])] = cells
        littlewood = by_inv[("0.75", "0.75")]
        assert littlewood[4] == "RI"
        assert littlewood[5] == format_float(SQRT2)
        center = by_inv[("0.5", "0.5")]
        assert center[4] == "RII" and center[5] == "1"
        corner = by_inv[("1", "1")]
        assert corner[4] == "R0"
        assert corner[5] == corner[6] == corner[7] == corner[8] == ""
        svg_text = svg.read_text()
        assert svg_text.startswith("<?xml")
        assert "tie-break" in svg_text
        assert "b = 2a/(3a-2)" in svg_text

    def test_byte_deterministic(self, capsys, tmp_path):
        paths = []
        for name in ("x", "y"):
            csv = tmp_path / f"{name}.csv"
            svg = tmp_path / f"{name}.svg"
            code, _, _ = run(capsys, "region-map", "--resolution", "31",
                             "--csv", str(csv), "--svg", str(svg))
            assert code == 0
            paths.append((csv.read_bytes(), svg.read_bytes()))
        assert paths[0] == paths[1]

    def test_rows_roundtrip_through_exponents(self, capsys, tmp_path):
        csv = tmp_path / "map.csv"
        code, _, _ = run(capsys, "region-map", "--resolution", "21",
                         "--csv", str(csv), "--svg", str(tmp_path / "m.svg"))
        assert code == 0
        for line in csv.read_text().splitlines()[1:]:
            cells = line.split(",")
            a, b = Exponent.parse(cells[0]), Exponent.parse(cells[1])
            pair = ExponentPair(a, b)
            assert format_float(a.reciprocal) == cells[2]
            assert format_float(b.reciprocal) == cells[3]
            assert classify_region(pair).value == cells[4]
            if cells[4] != "R0":
                assert format_float(real_constant(pair).exact) == cells[5]

    def test_unwritable_path_exits_three(self, capsys, tmp_path):
        code, _, err = run(capsys, "region-map", "--resolution", "5",
                           "--csv", "/nonexistent/x.csv",
                           "--svg", str(tmp_path / "m.svg"))
        assert code == 3

    def test_bad_resolution_exits_four(self, capsys, tmp_path):
        code, _, _ = run(capsys, "region-map", "--resolution", "1",
                         "--csv", str(tmp_path / "m.csv"),
                         "--svg", str(tmp_path / "m.svg"))
        assert code == 4


class TestNorm:
    def test_real_witness(self, capsys, tmp_path):
        path = tmp_path / "a0.json"
        save_form(witness_a0("real"), path)
        code, out, _ = run(capsys, "norm", "--input", str(path), "--field", "real")
        assert code == 0
        doc = json.loads(out)
        assert doc["norm"] == 2.0

    def test_complex_witness_bounds(self, capsys, tmp_path):
        path = tmp_path / "a0c.json"
        save_form(witness_a0("complex"), path)
        code, out, _ = run(capsys, "norm", "--input", str(path), "--M", "4",
                           "--refine")
        assert code == 0
        doc = json.loads(out)
        assert doc["lower"] == pytest.approx(2 * SQRT2, rel=1e-12)
        assert doc["upper"] == pytest.approx(4.0, rel=1e-12)

    def test_wide_real_form_beyond_cap(self, capsys, tmp_path):
        # 40 columns exceed the enumeration cap; the 3 rows do not
        form = random_form("real", 3, 40, seed=2)
        path = tmp_path / "wide.json"
        save_form(form, path)
        code, out, _ = run(capsys, "norm", "--input", str(path), "--field", "real")
        assert code == 0
        assert json.loads(out)["norm"] == real_sup_norm(transpose(form))

    def test_field_mismatch_exits_four(self, capsys, tmp_path):
        path = tmp_path / "a0.json"
        save_form(witness_a0("real"), path)
        code, _, _ = run(capsys, "norm", "--input", str(path), "--field", "complex")
        assert code == 4

    def test_missing_file_exits_three(self, capsys, tmp_path):
        code, _, _ = run(capsys, "norm", "--input", str(tmp_path / "nope.json"))
        assert code == 3

    def test_malformed_json_exits_four(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, _ = run(capsys, "norm", "--input", str(path))
        assert code == 4


class TestKhinchinCommand:
    def test_steinhaus_quadrature(self, capsys):
        code, out, _ = run(capsys, "khinchin", "--coeffs", "1,1",
                           "--model", "steinhaus", "--method", "quadrature",
                           "--Q", "256")
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == pytest.approx(4.0 / math.pi, abs=1e-8)

    def test_em_average(self, capsys):
        code, out, _ = run(capsys, "khinchin", "--coeffs", "1,1",
                           "--model", "em", "--M", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == pytest.approx((1 + SQRT2) / 2, rel=1e-12)
        assert str(doc["value"]).startswith("1.20710678")

    def test_rademacher_with_ratio(self, capsys):
        code, out, _ = run(capsys, "khinchin", "--coeffs", "1,1", "--r", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == 1.0
        assert doc["ratio"] == pytest.approx(SQRT2, rel=1e-14)
        assert doc["ceiling"] == pytest.approx(SQRT2, rel=1e-15)

    def test_complex_coefficients(self, capsys):
        code, out, _ = run(capsys, "khinchin", "--coeffs", "1,1j,-1",
                           "--model", "em", "--M", "8")
        assert code == 0

    def test_bad_coefficients_exit_four(self, capsys):
        code, _, _ = run(capsys, "khinchin", "--coeffs", "1,spam")
        assert code == 4

    def test_em_requires_m(self, capsys):
        code, _, _ = run(capsys, "khinchin", "--coeffs", "1,1", "--model", "em")
        assert code == 4

    def test_steinhaus_reports_ratio_and_ceiling(self, capsys):
        code, out, _ = run(capsys, "khinchin", "--coeffs", "1,1", "--model", "steinhaus",
                           "--Q", "256", "--r", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["ratio"] == pytest.approx(SQRT2 * math.pi / 4.0, rel=1e-8)
        assert doc["ceiling"] == 2.0 / math.sqrt(math.pi)
        assert doc["violation"] is False


class TestBadInput:
    @pytest.mark.parametrize("argv", [
        ("norm", "--M", "2"),
        ("search", "--restarts", "0"),
        ("khinchin", "--coeffs", "1,1", "--model", "steinhaus", "--Q", "7"),
        ("khinchin", "--coeffs", "1,1", "--model", "steinhaus", "--method", "em-limit",
         "--schedule", "4,x"),
        ("khinchin", "--coeffs", "1,nan"),
        ("khinchin", "--coeffs", "1,inf", "--model", "em", "--M", "4"),
        ("khinchin", "--coeffs", "1,-inf", "--model", "steinhaus", "--Q", "8"),
        ("search", "--budget-seconds", "nan", "--restarts", "1", "--steps", "1"),
        ("search", "--budget-seconds", "-1", "--restarts", "1", "--steps", "1"),
        ("search", "--workers", "-1", "--restarts", "1", "--steps", "1"),
        ("search", "--kind", "khinchin", "--K", "2", "--N", "3", "--restarts", "1",
         "--steps", "1"),
    ])
    def test_exit_four_without_traceback(self, capsys, tmp_path, argv):
        if argv[0] == "norm":
            path = tmp_path / "a0c.json"
            save_form(witness_a0("complex"), path)
            argv += ("--input", str(path))
        code, _, err = run(capsys, *argv)
        assert code == 4
        assert "Traceback" not in err and err.startswith("invalid input:")


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ("khinchin", "--coeffs", "1,1", "--model", "em", "--M", "2.5"),
        ("search", "--restarts", "x"),
        ("khinchin", "--model", "em"),  # --coeffs is required
        ("frobnicate",),
    ])
    def test_argparse_errors_exit_four(self, capsys, argv):
        # argparse's own code 2 would read as "inadmissible exponents"
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 4
        err = capsys.readouterr().err
        assert err.startswith("usage: litt43") and "error:" in err

    @pytest.mark.parametrize("argv", [("--help",), ("search", "--help")])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: litt43")


class TestSearchParams:
    @pytest.mark.parametrize("q", ["7", "2"])
    def test_steinhaus_q_odd_or_below_four_exits_four(self, capsys, q):
        code, _, err = run(capsys, "search", "--kind", "khinchin", "--model", "steinhaus",
                           "--r", "2", "--N", "3", "--Q", q, "--restarts", "1",
                           "--steps", "1")
        assert code == 4
        assert "Traceback" not in err and "params.q" in err


    @pytest.mark.parametrize("k", ["1", "7"])
    def test_khinchin_search_refuses_k(self, capsys, k):
        # the vector length is --N; an explicit --K was once silently ignored
        code, out, err = run(capsys, "search", "--kind", "khinchin", "--K", k, "--N", "3",
                             "--restarts", "1", "--steps", "1")
        assert (code, out) == (4, "")
        assert "--K" in err and "--N" in err

    @pytest.mark.parametrize("value", ["two", "1.5", ""])
    def test_non_integer_workers_variable_is_named(self, capsys, monkeypatch, value):
        monkeypatch.setenv("LITT43_WORKERS", value)
        code, _, err = run(capsys, "search", "--restarts", "1", "--steps", "1")
        assert code == 4
        assert err.startswith("invalid input: LITT43_WORKERS must be an integer")

    def test_form_search_keeps_two_rows_by_default(self, capsys):
        argv = ("search", "--N", "3", "--restarts", "2", "--steps", "50", "--seed", "4")
        _, default, _ = run(capsys, *argv)
        code, explicit, _ = run(capsys, *argv, "--K", "2")
        assert code == 0 and default == explicit


class TestSearchCommand:
    def test_form_search_with_checkpoint(self, capsys, tmp_path):
        ckpt = tmp_path / "run.json"
        code, out, _ = run(capsys, "search", "--kind", "form", "--field", "real",
                           "--a", "4/3", "--b", "4/3", "--K", "2", "--N", "2",
                           "--restarts", "4", "--steps", "300", "--seed", "1",
                           "--checkpoint", str(ckpt))
        assert code == 0
        doc = json.loads(out)
        assert doc["best_ratio"] <= doc["ceiling"] + 1e-9
        assert doc["falsification"] is False
        loaded = checkpoint_load(ckpt)
        assert loaded.best_ratio == doc["best_ratio"]

    def test_khinchin_search(self, capsys):
        code, out, _ = run(capsys, "search", "--kind", "khinchin",
                           "--model", "rademacher", "--r", "2", "--N", "4",
                           "--restarts", "3", "--steps", "400", "--seed", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["best_ratio"] <= SQRT2 + 1e-12


class TestVerifyCommand:
    def test_fault_injection_fails_named_check(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        code, _, err = run(capsys, "verify", "--suite", "fast", "--seed", "1",
                           "--report", str(report_path),
                           "--override", "khinchin_sharpness=0.5")
        assert code == 1
        report = json.loads(report_path.read_text())
        failed = {c["name"] for c in report["checks"] if not c["passed"]}
        assert "khinchin_sharpness" in failed
        assert "FAIL  khinchin_sharpness" in err

    def test_bad_override_exits_four(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "fast",
                         "--override", "khinchin_sharpness=abc")
        assert code == 4


def test_python_dash_m_runs_the_cli():
    src = str(Path(litt43.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def module(*argv):
        return subprocess.run([sys.executable, "-m", "litt43", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    ok = module("constant", "--a", "4/3", "--b", "4/3", "--field", "real")
    assert ok.returncode == 0, ok.stderr
    assert "2^(1/2)" in ok.stdout
    # the exit code of cli.main is the exit code of the process
    assert module("constant", "--a", "1/2", "--b", "4/3").returncode == 2
