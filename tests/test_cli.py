import csv
import json
import math

import pytest

from meanspec.cli import main
from meanspec.kernels import StepFunction
from meanspec.arithmetic_oracle import MultiplicativeSpec

CHI_MINUS = StepFunction((1.0,), (1.0,), -1.0)


@pytest.fixture
def chi_file(tmp_path):
    path = tmp_path / "rho_minus.json"
    path.write_text(CHI_MINUS.to_json())
    return str(path)


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(MultiplicativeSpec.step(CHI_MINUS, 1000.0).to_json())
    return str(path)


class TestSolve:
    def test_csv_row_at_two(self, chi_file, tmp_path):
        out = tmp_path / "sigma.csv"
        rc = main(["solve", "--chi", chi_file, "--umax", "4", "--h", "1e-3",
                   "--out", str(out)])
        assert rc == 0
        with out.open() as fh:
            rows = {float(r["u"]): float(r["re"]) for r in csv.DictReader(fh)}
        assert rows[2.0] == pytest.approx(1.0 - 2.0 * math.log(2.0), abs=1e-6)

    def test_malformed_kernel_exits_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"breaks": [0.5], "values": [[1,0]], "tail": [0,0]}')
        rc = main(["solve", "--chi", str(bad), "--umax", "2", "--out",
                   str(tmp_path / "x.csv")])
        assert rc == 1

    def test_unaligned_grid_exits_one(self, chi_file, tmp_path):
        rc = main(["solve", "--chi", chi_file, "--umax", "2", "--h", "3e-3",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1

    @pytest.mark.parametrize("flag, value", [("--umax", "nan"), ("--umax", "inf"),
                                             ("--h", "0"), ("--h", "nan")])
    def test_non_finite_or_zero_exits_one(self, chi_file, capsys, flag, value):
        args = {"--umax": "4", "--h": "1e-3", flag: value}
        rc = main(["solve", "--chi", chi_file, *[t for kv in args.items() for t in kv]])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_node_budget_exits_three(self, chi_file, capsys):
        rc = main(["solve", "--chi", chi_file, "--umax", "1e9"])
        assert rc == 3
        assert capsys.readouterr().err.count("\n") == 1


class TestConstants:
    def test_json_payload(self, tmp_path, capsys):
        rc = main(["constants", "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["delta1"] == pytest.approx(-0.656999, abs=1e-6)

    def test_deterministic_artifacts(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["constants", "--format", "json", "--out", str(a)]) == 0
        assert main(["constants", "--format", "json", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestBounds:
    def test_report_fields(self, chi_file, tmp_path, capsys):
        rc = main(["bounds", "--chi", chi_file, "--kmax", "6", "--umax", "4",
                   "--h", "1e-3"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) >= {"u", "lower_re", "upper_re", "tail_bound"}
        assert len(payload["u"]) == len(payload["lower_re"])


class TestGammaPrime:
    def test_range_syntax(self, capsys):
        rc = main(["gamma-prime", "--m", "3..4"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["3"]["bound"] == pytest.approx(0.3245, abs=5e-4)
        assert payload["4"]["bound"] == pytest.approx(0.2187, abs=5e-4)

    def test_malformed_range_exits_one(self, capsys):
        assert main(["gamma-prime", "--m", "3..x"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestGammaB:
    def test_smoke_and_determinism(self, tmp_path):
        args = ["gamma-b", "--B", "1.0", "--steps", "3", "--restarts", "2",
                "--h", "2e-3", "--seed", "0"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        payload = json.loads(a.read_text())
        assert payload["value"] < 0.0
        assert payload["argmin"]["values"][0] == [1.0, 0.0]

    def test_non_finite_b_exits_one(self, capsys):
        assert main(["gamma-b", "--B", "nan"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestSpectrum:
    def test_spirals_csv(self, tmp_path):
        out = tmp_path / "region.csv"
        assert main(["spectrum", "--set", "sk:5", "--what", "spirals",
                     "--out", str(out)]) == 0
        header, first = out.read_text().splitlines()[:2]
        assert header == "re,im"
        assert len(first.split(",")) == 2

    def test_contour_needs_positive_angle(self):
        assert main(["spectrum", "--set", "interval:-1,1",
                     "--what", "contour"]) == 1

    def test_logregion_polygon_closed(self, capsys):
        assert main(["spectrum", "--set", "interval:-1,1",
                     "--what", "logregion"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["vertices"][0] == payload["vertices"][-1]

    def test_bad_set_spec(self):
        assert main(["spectrum", "--set", "nonsense:1",
                     "--what", "spirals"]) == 1

    def test_non_finite_point_exits_one(self, capsys):
        assert main(["spectrum", "--set", "points:1,0;nan,0",
                     "--what", "spirals"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestOracle:
    def test_compare_sigma(self, spec_file, capsys):
        rc = main(["oracle", "--spec", spec_file, "--x", "1e5",
                   "--compare-sigma"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["compare_sigma"]["gap"] <= 0.2

    def test_compare_sigma_sieves_once(self, spec_file, capsys, monkeypatch):
        from meanspec import arithmetic_oracle
        calls = []
        sieve = arithmetic_oracle.sieve_sums
        monkeypatch.setattr(arithmetic_oracle, "sieve_sums",
                            lambda *a, **kw: calls.append(a) or sieve(*a, **kw))
        rc = main(["oracle", "--spec", spec_file, "--x", "1e5",
                   "--compare-sigma"])
        assert rc == 0
        assert len(calls) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["compare_sigma"]["oracle"] == payload["mean"]

    def test_budget_exit_code(self, spec_file):
        assert main(["oracle", "--spec", spec_file, "--x", "1e9"]) == 3

    @pytest.mark.parametrize("value", ["nan", "inf", "abc"])
    def test_bad_x_exits_one(self, spec_file, capsys, value):
        assert main(["oracle", "--spec", spec_file, "--x", value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("text", [
        '{"y": 10}',
        '{"table": [[2, 1.0]]}',
        '{"table": [[2, NaN, 0.0]], "default": [1.0, 0.0]}',
        '{"table": [[4, -1.0, 0.0], [2.7, 0.0, 0.0]]}',
        json.dumps({**json.loads(CHI_MINUS.to_json()), "y": float("nan")}),
    ])
    def test_bad_spec_exits_one(self, tmp_path, capsys, text):
        path = tmp_path / "bad_spec.json"
        path.write_text(text)
        assert main(["oracle", "--spec", str(path), "--x", "1e3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestVerify:
    def test_single_criterion(self, capsys, tmp_path):
        out = tmp_path / "report.txt"
        rc = main(["verify", "--suite", "quick", "--only", "1,6",
                   "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert text.count("PASS") == 2
        assert "constants" in text

    def test_unknown_criterion_exits_one(self):
        assert main(["verify", "--only", "42"]) == 1

    def test_failing_criterion_exits_two(self, monkeypatch, capsys):
        from meanspec.acceptance import CheckResult
        monkeypatch.setattr(
            "meanspec.cli.run_suite",
            lambda suite, only=None: [CheckResult("1 constants", False,
                                                  "forced failure", 0.0)])
        assert main(["verify", "--only", "1"]) == 2
        assert "FAIL" in capsys.readouterr().out
