import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from anomdiff import cli, laws, verify


def run_cli(args):
    return cli.main(args)


class TestTabulate:
    def test_inverse_law_table(self, tmp_path):
        out = tmp_path / "l.csv"
        code = run_cli([
            "--command", "tabulate",
            "--param", "density=l",
            "--param", "nu=0.5",
            "--param", "xmin=0.1", "--param", "xmax=3", "--param", "nx=30",
            "--param", "t=1",
            "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,t,value,method"
        assert len(lines) == 31
        row = [l for l in lines[1:] if l.startswith("1,")][0]
        value = float(row.split(",")[2])
        assert value == pytest.approx(math.exp(-0.25) / math.sqrt(math.pi), abs=1e-8)

    def test_gg_value(self, tmp_path, capsys):
        code = run_cli([
            "--command", "tabulate",
            "--param", "density=gg",
            "--param", "gamma=1", "--param", "mu=1",
            "--param", "xmin=1", "--param", "xmax=1", "--param", "nx=1",
            "--param", "t=1",
        ])
        assert code == 0
        row = capsys.readouterr().out.strip().splitlines()[1]
        assert float(row.split(",")[2]) == pytest.approx(math.exp(-1.0), rel=1e-10)

    @pytest.mark.parametrize("tilde,t_law", [(0, 4.0), (1, 2.0)])
    def test_gg_tilde_flag(self, capsys, tilde, t_law):
        # tilde=1 runs the law at t^(1/gamma); tilde=0 is the plain law
        from anomdiff.laws import GGLaw, gg_density

        code = run_cli([
            "--command", "tabulate",
            "--param", "density=gg",
            "--param", "gamma=2", "--param", "mu=1", "--param", f"tilde={tilde}",
            "--param", "xmin=2", "--param", "xmax=2", "--param", "nx=1",
            "--param", "t=4",
        ])
        assert code == 0
        row = capsys.readouterr().out.strip().splitlines()[1]
        assert float(row.split(",")[2]) == pytest.approx(gg_density(GGLaw(2.0, 1.0), 2.0, t_law), rel=1e-10)

    def test_invalid_grid_is_usage_error(self, capsys):
        code = run_cli([
            "--command", "tabulate",
            "--param", "density=l", "--param", "nu=0.5",
            "--param", "nx=0",
        ])
        assert code == 2

    def test_json_format(self, tmp_path):
        out = tmp_path / "l.json"
        code = run_cli([
            "--command", "tabulate", "--param", "density=l", "--param", "nu=0.5",
            "--param", "xmin=1", "--param", "xmax=1", "--param", "nx=1",
            "--param", "t=1", "--format", "json", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["columns"] == ["x", "t", "value", "method"]
        assert doc["rows"][0][2] == pytest.approx(0.43939128946772243, abs=1e-8)

    def test_unknown_density(self):
        assert run_cli(["--command", "tabulate", "--param", "density=zzz"]) == 2

    def test_values_finite_nonnegative(self, tmp_path):
        out = tmp_path / "h.csv"
        assert run_cli([
            "--command", "tabulate", "--param", "density=h", "--param", "nu=0.5",
            "--param", "xmin=0.2", "--param", "xmax=2", "--param", "nx=7",
            "--param", "t=0.5;1", "--out", str(out),
        ]) == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert len(rows) == 14
        assert all(float(r.split(",")[2]) >= 0 for r in rows)


    def test_compose_table(self, capsys):
        from anomdiff.laws import MuVector, compose_density

        code = run_cli([
            "--command", "tabulate", "--param", "density=compose",
            "--param", "gamma=1", "--param", "mu=1/4,2/4,3/4",
            "--param", "xmin=0.5", "--param", "xmax=2", "--param", "nx=2",
            "--param", "t=1",
        ])
        assert code == 0
        rows = [r.split(",") for r in capsys.readouterr().out.strip().splitlines()[1:]]
        assert len(rows) == 2
        mu = MuVector.from_integers((1, 2, 3), 4)
        for x, row in zip((0.5, 2.0), rows):
            assert float(row[2]) == pytest.approx(compose_density(1.0, mu, x, 1.0), rel=1e-11)
            assert row[3] == "compose"

    @pytest.mark.parametrize("density, mu", [
        ("compose", "abc"),
        ("compose", "1/0"),
        ("compose", "0.5,-1"),
        ("gg", "abc"),
    ])
    def test_bad_mu_is_usage_error(self, density, mu):
        code = run_cli([
            "--command", "tabulate", "--param", f"density={density}",
            "--param", "gamma=1", "--param", f"mu={mu}",
            "--param", "xmin=1", "--param", "xmax=1", "--param", "nx=1",
        ])
        assert code == 2

    @pytest.mark.parametrize("nu", ["0", "-0.5", "nan", "1e-320"])
    def test_index_outside_the_domain_is_usage_error(self, nu):
        # the method column's route choice used to divide by nu first, and
        # exit 1 on a ZeroDivisionError or OverflowError
        assert run_cli(["--command", "tabulate", "--param", "density=h", "--param", f"nu={nu}"]) == 2

    def test_float_mu_consumers_reject_bad_mu(self):
        assert run_cli(["--command", "sample", "--param", "dist=G", "--param", "mu=abc"]) == 2
        assert run_cli(["--command", "moments", "--param", "mu=abc"]) == 2

    @pytest.mark.parametrize("params", [
        ["density=u_time_frac", "nu=0.7"],
        ["density=f_nu_beta", "nu=0.5", "beta=0.7"],
    ])
    def test_tables_where_the_wright_series_overflowed(self, capsys, params):
        # both used to exit 1: their old quadrature routes reached l_density
        # on the Wright series past its overflow guard
        args = ["--command", "tabulate"]
        for p in params:
            args += ["--param", p]
        assert run_cli(args) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert len(rows) == 30
        values = [float(r.split(",")[2]) for r in rows]
        assert all(math.isfinite(v) and v >= 0.0 for v in values)

    @pytest.mark.parametrize("density, nu, route", [
        ("h", "0.3", "foxh"),
        ("h", "0.25", "conv"),
        ("l", "0.2", "conv"),
        ("l", "0.3", "wright"),
        ("l", "0.5", "closed"),
        ("g_nu_beta", "0.5", "foxh"),
        ("u_time_frac", "0.5", "u_time_frac"),
    ])
    def test_method_column_names_the_route_that_ran(self, capsys, density, nu, route):
        code = run_cli([
            "--command", "tabulate", "--param", f"density={density}", "--param", f"nu={nu}",
            "--param", "xmin=0.5", "--param", "xmax=1.5", "--param", "nx=3",
        ])
        assert code == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert len(rows) == 3
        assert all(r.split(",")[3] == route for r in rows)

    def test_mixed_table_at_nu_one(self, capsys):
        # the default contour route answers where the double_integral route
        # overflows, so the command exits 0
        code = run_cli([
            "--command", "tabulate", "--param", "density=g_nu_beta", "--param", "nu=1",
            "--param", "beta=0.8", "--param", "xmin=1", "--param", "xmax=1", "--param", "nx=1", "--param", "t=1",
        ])
        assert code == 0
        row = capsys.readouterr().out.strip().splitlines()[1].split(",")
        assert float(row[2]) == pytest.approx(0.3103711, rel=1e-7) and row[3] == "foxh"

    @pytest.mark.parametrize("density, fn", [
        ("g_nu_beta", "space_fractional_density"),
        ("u_time_frac", "time_fractional_solution"),
    ])
    def test_non_finite_value_is_a_numerical_failure(self, monkeypatch, density, fn):
        monkeypatch.setattr(laws, fn, lambda *args: math.nan)
        assert run_cli(["--command", "tabulate", "--param", f"density={density}", "--param", "nx=2"]) == 1


class TestSolveBvp:
    def test_first_mode_preset_matches_closed_term(self, tmp_path):
        out = tmp_path / "bvp.csv"
        code = run_cli([
            "--command", "solve-bvp",
            "--param", "gamma=1", "--param", "mu=1", "--param", "nu=1",
            "--param", "m0=first-mode", "--param", "n_terms=6",
            "--param", "xmin=0.5", "--param", "xmax=0.5", "--param", "nx=1",
            "--param", "t=0.3",
            "--out", str(out),
        ])
        assert code == 0
        row = out.read_text().strip().splitlines()[1]
        got = float(row.split(",")[2])
        from anomdiff.solvers import eigen_system

        es = eigen_system(1.0, 1.0, 6)
        want = float(es.eigenfunction(0, 0.5)) * math.exp(-((es.zeros[0] / 2.0) ** 2) * 0.3)
        assert got == pytest.approx(want, abs=1e-10)
        sidecar = json.loads((tmp_path / "bvp.csv.eigen.json").read_text())
        assert {"order", "zeros", "norms", "coefficients"} <= set(sidecar)
        assert sidecar["zeros"][0] == pytest.approx(2.404825557695773, abs=1e-9)

    def test_stdout_is_one_document(self, capsys):
        # the eigen-system sidecar is named after --out, so without it only
        # the table reaches stdout
        grid = ["--param", "nx=3", "--param", "n_terms=6"]
        assert run_cli(["--command", "solve-bvp", *grid]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "x,t,value"
        assert len(lines) == 4 and all(len(l.split(",")) == 3 for l in lines[1:])
        assert run_cli(["--command", "solve-bvp", *grid, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["columns"] == ["x", "t", "value"] and len(doc["rows"]) == 3

    def test_unknown_preset(self):
        assert run_cli([
            "--command", "solve-bvp", "--param", "m0=mystery",
        ]) == 2

    def test_invalid_grid_is_usage_error(self, capsys):
        assert run_cli(["--command", "solve-bvp", "--param", "nx=0"]) == 2
        assert capsys.readouterr().out == ""

    def test_csv_datum(self, tmp_path):
        # 101 nodes, so 99 kinks inside (0, 1); the oracle sums quad over
        # every panel
        x = np.linspace(0.0, 1.0, 101)
        y = 0.3 + x * (1.0 - x)
        datum = tmp_path / "m0.csv"
        np.savetxt(datum, np.column_stack([x, y]), delimiter=",")
        out = tmp_path / "bvp.csv"
        assert run_cli([
            "--command", "solve-bvp", "--param", f"m0={datum}", "--param", "n_terms=12",
            "--out", str(out),
        ]) == 0
        coeffs = json.loads((tmp_path / "bvp.csv.eigen.json").read_text())["coefficients"]
        from anomdiff.solvers import eigen_system

        es = eigen_system(1.0, 1.0, 12)
        for k in (0, 5, 11):
            want = sum(
                quad(lambda s: np.interp(s, x, y) * float(es.eigenfunction(k, s)), a, b)[0]
                for a, b in zip(x[:-1], x[1:])
            )
            assert coeffs[k] == pytest.approx(want, abs=1e-12)


class TestSample:
    def test_dump_format_and_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert run_cli([
                "--command", "sample", "--param", "dist=subordinator",
                "--param", "nu=0.5", "--param", "n=50", "--seed", "7",
                "--out", str(path),
            ]) == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().strip().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "value"
        assert len(lines) == 52

    def test_chain_dump(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run_cli([
            "--command", "sample", "--param", "dist=chain",
            "--param", "kind=inverse", "--param", "mu_vector=1/3,2/3",
            "--param", "n=10", "--out", str(out),
        ]) == 0
        assert len(out.read_text().strip().splitlines()) == 12

    def test_missing_dist(self):
        assert run_cli(["--command", "sample"]) == 2


class TestVerify:
    def test_filter_runs_only_chains(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli([
            "--command", "verify", "--param", "suite=chains",
            "--seed", "0", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["suite"] == "chains"
        assert [t["name"] for t in report["tests"]] == ["mc.composition_chains"]
        assert all(t["pass"] for t in report["tests"])

    def test_corrupted_tolerance_fails(self, tmp_path, monkeypatch):
        # zeroing a threshold must drive the exit-status failure path
        def tampered(seed):
            return 1.0, 0.0

        monkeypatch.setattr(verify, "_CHECKS", [("tampered.check", "tampered", tampered)])
        out = tmp_path / "bad.json"
        code = run_cli(["--command", "verify", "--out", str(out)])
        assert code == 1
        report = json.loads(out.read_text())
        assert report["tests"][0]["pass"] is False

    def test_report_schema(self, tmp_path):
        out = tmp_path / "r.json"
        run_cli(["--command", "verify", "--param", "suite=moments", "--out", str(out)])
        report = json.loads(out.read_text())
        assert {"suite", "tests", "seed", "version"} <= set(report)
        for t in report["tests"]:
            assert {"name", "statistic", "threshold", "pass"} <= set(t)


class TestMoments:
    def test_subdiffusion_slope(self, tmp_path):
        out = tmp_path / "m.json"
        code = run_cli([
            "--command", "moments",
            "--param", "mu=1", "--param", "nu=1", "--param", "beta=0.5",
            "--param", "r=1", "--param", "n=40000",
            "--seed", "0", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["slope"] == pytest.approx(0.5, abs=0.05)
        assert doc["expected"] == pytest.approx(0.5)


class TestMomentsDivergence:
    def test_divergent_moment_exits_one(self, tmp_path, capsys):
        # order-1 moment of a 1/2-stable time is infinite
        code = run_cli([
            "--command", "moments",
            "--param", "mu=1", "--param", "nu=0.5", "--param", "beta=1",
            "--param", "r=1", "--param", "n=40000", "--seed", "3",
        ])
        assert code == 1


def test_usage_error_exit_code():
    assert cli.main(["--command", "bogus"]) == 2
