import csv
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import meanspec
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

    def test_misaligned_kernel_exits_one(self, tmp_path, capsys):
        chi = tmp_path / "chi.json"
        chi.write_text(StepFunction((1.0, 1.0005), (1.0, 0.5), -1.0).to_json())
        rc = main(["solve", "--chi", str(chi), "--umax", "2", "--h", "1e-3"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: breakpoint 1.0005 is not a multiple of the grid step 0.001\n")

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
    def test_parser_built_once(self, monkeypatch, capsys):
        # main parses every call with one parser per process; exit codes stay.
        import meanspec.cli as cli
        assert main(["constants", "--format", "json"]) == 0
        monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser built again"))
        assert cli._parser() is cli._parser()
        assert main(["constants", "--format", "json"]) == 0
        assert main(["gamma-b", "--B", "nan"]) == 1
        with pytest.raises(SystemExit) as exc:
            main(["constants", "--format", "xml"])
        assert exc.value.code == 2
        capsys.readouterr()

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
        assert set(payload["3"]) == {"bound", "beta", "log_bound"}
        assert payload["3"]["log_bound"] == pytest.approx(math.log(payload["3"]["bound"]))

    def test_log_bound_past_the_underflow(self, capsys):
        assert main(["gamma-prime", "--m", "3000"]) == 0
        entry = json.loads(capsys.readouterr().out)["3000"]
        assert entry["bound"] == 0.0
        assert entry["log_bound"] == pytest.approx(-1104.7924, abs=1e-4)
        assert entry["beta"] == pytest.approx(1105.2520, abs=1e-4)

    def test_malformed_range_exits_one(self, capsys):
        assert main(["gamma-prime", "--m", "3..x"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_reversed_range_exits_one(self, capsys):
        assert main(["gamma-prime", "--m", "6..3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


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

    @pytest.mark.parametrize("flag, value", [("--h", "nan"), ("--h", "inf"), ("--h", "0"),
                                             ("--steps", "10000000000"), ("--seed", "-1")])
    def test_bad_grid_or_steps_exits_one(self, capsys, flag, value):
        assert main(["gamma-b", "--B", "1", flag, value]) == 1
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

    def test_logregion_keeps_the_requested_depth(self, capsys):
        assert main(["spectrum", "--set", "sk:44", "--what", "logregion"]) == 0
        assert json.loads(capsys.readouterr().out)["depth"] == 8

    def test_bad_set_spec(self):
        assert main(["spectrum", "--set", "nonsense:1",
                     "--what", "spirals"]) == 1

    @pytest.mark.parametrize("kmax", ["nan", "inf", "-1"])
    def test_bad_kmax_exits_one(self, capsys, kmax):
        assert main(["spectrum", "--set", "sk:3", "--what", "spirals", "--kmax", kmax]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("what", ["spirals", "contour", "logregion"])
    @pytest.mark.parametrize("kmax", ["nan", "inf", "-1"])
    def test_bad_kmax_exits_one_for_every_artifact(self, capsys, what, kmax):
        assert main(["spectrum", "--set", "sector:0.7", "--what", what, "--kmax", kmax]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --kmax") and captured.err.count("\n") == 1

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

    @pytest.mark.parametrize("x", ["2", "999"])
    def test_compare_sigma_below_u_one_exits_one(self, spec_file, capsys, x):
        # y = 1000, so x = 2 is u = 0.1003 and x = 999 just below u = 1.
        assert main(["oracle", "--spec", spec_file, "--x", x, "--compare-sigma"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: u must be at least 1, got 0.")
        assert captured.err.count("\n") == 1

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


def _reference_report_dict(report) -> dict:
    """BoundsReport.to_json_dict as it was written sample by sample."""
    d = {
        "k_max": report.k_max,
        "h": report.lower.h,
        "u": [float(v) for v in report.lower.u],
        "lower_re": [float(v.real) for v in map(complex, report.lower.samples)],
        "upper_re": [float(v.real) for v in map(complex, report.upper.samples)],
        "tail_bound": [float(v) for v in report.tail_bound.samples],
    }
    for name, series in (("r_series", report.r_series), ("c_series", report.c_series)):
        d[name] = [[float(v) for v in gf.samples.real] for gf in series]
    return d


def _reference_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _reference_grid_csv(g) -> str:
    rows = ["u,re,im"]
    for i, v in enumerate(g.samples):
        z = complex(v)
        rows.append(f"{i * g.h:.12g},{z.real:.12g},{z.imag:.12g}")
    return "\n".join(rows) + "\n"


#: Negative zero, values below 1e-4, exact integers, extremes and long reprs.
AWKWARD_FLOATS = [0.0, -0.0, 1.0, -3.0, 2.0 ** 60, 1e-5, -3.5e-7, 5e-324, 1e300,
                  0.1, 1.0 / 3.0, -2.220446049250313e-16, 123456789.125]


class TestWriters:
    @pytest.mark.parametrize("kernel", [CHI_MINUS, StepFunction((1.0, 2.5), (1.0, -0.0), 0.0),
                                        StepFunction((1.0, 1.75), (1.0, 0.5 - 0.5j), -0.25j)])
    def test_report_json_is_byte_identical(self, kernel):
        from meanspec import series_bounds as series
        from meanspec.cli import _json_dumps
        if kernel.is_real:
            report = series.sandwich(kernel, 6, 4.0, 1e-2)
        else:
            report = series.complex_bounds(kernel, 4.0, 1e-2)
        new = report.to_json_dict()
        old = _reference_report_dict(report)
        assert new == old
        assert _json_dumps(new) == _reference_json(old)

    def test_nested_payload_is_byte_identical(self):
        from meanspec.cli import _json_dumps
        payload = {
            "floats": AWKWARD_FLOATS,
            "ints": [1, 2, 3],
            "mixed": [1, 2.5, "x", None, True],
            "empty": [],
            "pairs": [[z, -z] for z in AWKWARD_FLOATS],
            "nested": {"b": {"deep": [0.25, -0.0]}, "a": "text", "n": 7},
            "scalar": -0.0,
            "tuple": (1.5, 2.5),
        }
        assert _json_dumps(payload) == _reference_json(payload)
        assert _json_dumps([0.5, 1.0]) == _reference_json([0.5, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_are_refused(self, bad):
        from meanspec.cli import _json_dumps
        from meanspec.errors import ContractError
        for payload in ({"a": [1.0, bad]}, {"a": bad}, {"a": [[0.5, bad]]}):
            with pytest.raises(ContractError):
                _json_dumps(payload)

    def test_grid_csv_is_byte_identical(self):
        from meanspec.kernels import GridFunction
        real = GridFunction(1e-3, np.array(AWKWARD_FLOATS))
        cplx = GridFunction(0.1, np.array(AWKWARD_FLOATS) * (1 - 1j) + 0.5j * np.array(
            AWKWARD_FLOATS[::-1]))
        signed = GridFunction(0.25, np.array([complex(0.0, -0.0), complex(-0.0, 0.0), 1e-5j]))
        for g in (real, cplx, signed, GridFunction(3, np.arange(8001.0) / 7.0),
                  GridFunction(1.0 / 7.0, np.ones(50))):
            assert g.to_csv() == _reference_grid_csv(g)

    def test_points_csv_is_byte_identical(self):
        from meanspec.cli import _points_csv
        pts = np.array(AWKWARD_FLOATS, dtype=complex) * (1 + 0.5j)
        for points in (pts, list(pts), [complex(-0.0, -0.0)], []):
            rows = ["re,im"]
            rows.extend(f"{z.real:.12g},{z.imag:.12g}" for z in map(complex, points))
            assert _points_csv(points) == "\n".join(rows) + "\n"

    @pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(0.5, math.inf)])
    def test_non_finite_points_are_refused(self, bad):
        from meanspec.cli import _points_csv
        from meanspec.errors import ContractError
        with pytest.raises(ContractError):
            _points_csv([0.5, bad])


#: 1600 points on the unit circle, 1 among them: 3201 log-region factors,
#: so the second level would form 2340 hull vertices x 3201 = 7.49e6 products.
ARC_1600 = "points:" + ";".join(f"{math.cos(a):.15f},{math.sin(a):.15f}"
                                for a in np.linspace(0.0, 6.0, 1600))


class TestInputBudgets:
    """Each over-budget input exits 3 with one line before any large allocation."""

    @staticmethod
    def _run_traced(argv):
        import tracemalloc
        tracemalloc.start()
        try:
            rc = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return rc, peak

    @pytest.mark.parametrize("argv", [
        ["bounds", "--kmax", "100000", "--umax", "8"],
        ["spectrum", "--set", "sk:100000000", "--what", "spirals"],
        ["gamma-prime", "--m", "2..100000"],
        ["spectrum", "--set", ARC_1600, "--what", "logregion"],
        ["spectrum", "--set", "interval:-1,1", "--what", "logregion", "--depth", "1000000000"],
        ["gamma-b", "--B", "1", "--restarts", "100000000000"],
        ["gamma-b", "--B", "20"],
        ["oracle", "--x", "1e300"],
    ])
    def test_exits_three_with_one_line(self, argv, chi_file, spec_file, capsys):
        if argv[0] == "bounds":
            argv = argv[:1] + ["--chi", chi_file] + argv[1:]
        if argv[0] == "oracle":
            argv = argv[:1] + ["--spec", spec_file] + argv[1:]
        rc, peak = self._run_traced(argv)
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("resource budget exceeded: ") and err.count("\n") == 1
        assert len(err) < 120
        assert peak < 1 << 20

    def test_largest_m_range_runs(self, capsys):
        from meanspec.cli import MAX_M_VALUES
        assert main(["gamma-prime", "--m", f"3..{MAX_M_VALUES + 2}"]) == 0
        assert main(["gamma-prime", "--m", f"3..{MAX_M_VALUES + 3}"]) == 3

    def test_m_above_its_range_exits_one(self, capsys):
        assert main(["gamma-prime", "--m", "10000000000000000000000"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


#: Every CLI example of the README, with the kernel and spec files it names.
README_COMMANDS = [
    ["solve", "--chi", "chi.json", "--umax", "8", "--h", "1e-3", "--out", "sigma.csv"],
    ["bounds", "--chi", "chi.json", "--kmax", "12", "--umax", "8", "--out", "report.json"],
    ["bounds", "--chi", "chi_complex.json", "--kmax", "12", "--umax", "8",
     "--out", "report_complex.json"],
    ["constants", "--format", "json"],
    ["gamma-prime", "--m", "3..6"],
    ["gamma-b", "--B", "1.0", "--steps", "16", "--restarts", "8", "--seed", "0"],
    ["spectrum", "--set", "sk:5", "--what", "spirals", "--out", "region.csv"],
    ["spectrum", "--set", "interval:-1,1", "--what", "logregion"],
    ["spectrum", "--set", "sector:0.8", "--what", "contour"],
    ["oracle", "--spec", "spec.json", "--x", "1e6", "--compare-sigma"],
    ["verify", "--suite", "quick"],
]
README_FILES = {
    "chi.json": '{"breaks": [1.0], "values": [[1.0, 0.0]], "tail": [-1.0, 0.0]}',
    "chi_complex.json": ('{"breaks": [1.0, 1.5, 2.8], "values": [[1.0, 0.0], [0.3, 0.6], '
                         '[-0.5, -0.4]], "tail": [0.0, 0.2]}'),
    "spec.json": '{"breaks": [1.0], "values": [[1.0, 0.0]], "tail": [-1.0, 0.0], "y": 1000.0}',
}


def test_no_scipy_module_is_ever_loaded(tmp_path):
    # The package runs on NumPy alone.  A stray SciPy import fails only where
    # it runs, so each checkpoint also runs its path: the solver, the sieve,
    # the density and the search, an envelope, the closed forms, both
    # acceptance suites and every README command.
    for name, text in README_FILES.items():
        (tmp_path / name).write_text(text)
    src = os.path.dirname(os.path.dirname(os.path.abspath(meanspec.__file__)))
    code = f"""
import json, sys
sys.path.insert(0, {src!r})
def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
import meanspec, meanspec.cli
from meanspec import arithmetic_oracle as oracle
from meanspec.dde_solver import solve_sigma
from meanspec.extremal_search import truncated_kernel_min_mean
from meanspec.kernels import StepFunction
from meanspec.series_bounds import sandwich
chi = StepFunction((1.0,), (1.0,), -1.0)
out = {{"import": loaded()}}
solve_sigma(chi, 4.0, 1e-3)
spec = oracle.MultiplicativeSpec.step(chi, 1000.0)
oracle.sieve_sums(spec, 10 ** 6)
oracle.mth_root_log_density(spec, 10 ** 5, 2)
truncated_kernel_min_mean(1.0, m_steps=3, u_grid=(2.0,), restarts=1, h=1e-3, sweeps=1)
out["numpy paths"] = loaded()
sandwich(chi, 6, 4.0, 1e-3)
out["sandwich"] = loaded()
from contextlib import redirect_stdout
from io import StringIO
from meanspec import extremal_search, spectrum_region
from meanspec.acceptance import run_suite
extremal_search.delta_constants()
out["delta_constants"] = loaded()
extremal_search.log_gap_endpoint_values()
out["log_gap_endpoint_values"] = loaded()
extremal_search.power_residue_log_density_bound(7)
out["power_residue_log_density_bound"] = loaded()
spectrum_region.sector_set_contour(0.8)
out["sector_set_contour"] = loaded()
with redirect_stdout(StringIO()):
    run_suite("quick")
    out["run_suite quick"] = loaded()
    run_suite("full")
    out["run_suite full"] = loaded()
    for argv in {README_COMMANDS!r}:
        out["cli " + " ".join(argv)] = [meanspec.cli.main(argv)] + loaded()
print(json.dumps(out))
"""
    out = json.loads(subprocess.run([sys.executable, "-c", code], capture_output=True,
                                    text=True, check=True, timeout=300,
                                    cwd=tmp_path).stdout)
    assert len(out) == 9 + len(README_COMMANDS)
    for checkpoint, mods in out.items():  # a command's exit code, then the modules
        assert mods == ([0] if checkpoint.startswith("cli ") else []), checkpoint


#: sha256 of the two README `bounds` artifacts. An envelope speed-up keeps
#: these bytes; a change that means to move them updates the pin with it.
README_BOUNDS_SHA256 = {
    "chi.json": "bec34b4a5f33728b8279d1a1c5163d13b39adc1adad57842faed1fc78d4871c5",
    "chi_complex.json": "cabe9fc0dea7a782af1b6c841963e3eee88c3bea6e2e4cdf21ca08226b74f7a2",
}


@pytest.mark.parametrize("kernel", sorted(README_BOUNDS_SHA256))
def test_readme_bounds_artifact_bytes(kernel, tmp_path):
    (tmp_path / kernel).write_text(README_FILES[kernel])
    out = tmp_path / "report.json"
    assert main(["bounds", "--chi", str(tmp_path / kernel), "--kmax", "12",
                 "--umax", "8", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == README_BOUNDS_SHA256[kernel]


#: sha256 of `gamma-b` artifacts: the README's, read off the Taylor engine,
#: and one at --B 0.5, whose panels lie on the lattice 1/8000, too fine for
#: the engine, so it is read off the batched march. A search speed-up keeps
#: these bytes; a change that means to move them updates the pin with it.
README_GAMMA_B_SHA256 = "65edfdee8d1ecee261b372e603980f26cc9b0f1d30e436b9fbfba9ca8b3aac13"
MARCH_GAMMA_B_SHA256 = "48ed3ab4e80173b2709e0d08514e95ec2091ac505230e254f1cf6bc1a13d5585"


def gamma_b_sha256(tmp_path, B: str, steps: str, restarts: str) -> str:
    out = tmp_path / "gamma_b.json"
    assert main(["gamma-b", "--B", B, "--steps", steps, "--restarts", restarts, "--seed", "0",
                 "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_readme_gamma_b_artifact_bytes(tmp_path):
    assert gamma_b_sha256(tmp_path, "1.0", "16", "8") == README_GAMMA_B_SHA256


def test_march_gamma_b_artifact_bytes(tmp_path):
    assert gamma_b_sha256(tmp_path, "0.5", "8", "2") == MARCH_GAMMA_B_SHA256
