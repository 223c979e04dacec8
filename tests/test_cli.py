import json
import warnings

import numpy as np
import pytest
import scipy.linalg
from click.testing import CliRunner

from qnodes import Oscillator, SweepConfig, run_sweep
from qnodes.cli import main


@pytest.fixture
def runner():
    return CliRunner()


class TestSweep:
    def test_csv_output(self, runner):
        result = runner.invoke(
            main, ["sweep", "--system", "box", "--levels", "1:3"]
        )
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0].startswith("system,level,")
        assert lines[1].startswith("box,1,0,")
        assert len(lines) == 4

    def test_json_output(self, runner):
        result = runner.invoke(
            main,
            ["sweep", "--system", "ring", "--levels", "-2:2", "--format", "json"],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert [r["level"] for r in payload["rows"]] == [-2, -1, 0, 1, 2]

    def test_deterministic_bytes(self, runner):
        args = ["sweep", "--system", "oscillator", "--levels", "0:4"]
        a = runner.invoke(main, args)
        b = runner.invoke(main, args)
        assert a.output == b.output

    def test_out_file(self, runner, tmp_path):
        target = tmp_path / "rows.csv"
        result = runner.invoke(
            main,
            ["sweep", "--system", "box", "--levels", "1:2", "--out", str(target)],
        )
        assert result.exit_code == 0
        assert target.read_text().startswith("system,level,")

    def test_param_override(self, runner):
        result = runner.invoke(
            main,
            ["sweep", "--system", "box", "--levels", "1:1", "--param", "a=2"],
        )
        assert result.exit_code == 0
        # delta_p = pi/2 for a = 2
        assert "1.57079632679" in result.output

    def test_bad_level_range_exit_2(self, runner):
        result = runner.invoke(main, ["sweep", "--system", "box", "--levels", "0:3"])
        assert result.exit_code == 2

    def test_bad_param_exit_2(self, runner):
        result = runner.invoke(
            main,
            ["sweep", "--system", "box", "--levels", "1:2", "--param", "zeta=1"],
        )
        assert result.exit_code == 2

    def test_unknown_system_exit_2(self, runner):
        result = runner.invoke(main, ["sweep", "--system", "torus", "--levels", "1:2"])
        assert result.exit_code == 2

    def test_even_grid_points_exit_2(self, runner):
        result = runner.invoke(
            main, ["sweep", "--system", "box", "--levels", "1:3", "--grid-points", "2000"]
        )
        assert result.exit_code == 2
        assert "odd point count" in result.output

    def test_eigen_request_beyond_grid_exit_2(self, runner):
        result = runner.invoke(
            main,
            ["sweep", "--system", "ring", "--levels", "0:600", "--paths", "analytic,eigen"],
        )
        assert result.exit_code == 2
        assert "1201" in result.output

    @pytest.mark.parametrize("param", ["a=inf", "a=nan", "m=-inf"])
    def test_non_finite_param_exit_2_without_warnings(self, runner, param):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(
                main, ["sweep", "--system", "box", "--levels", "1:3", "--param", param]
            )
        assert result.exit_code == 2
        assert "finite" in result.output


class TestVerify:
    def test_box_analytic_oracle_exit_0(self, runner):
        result = runner.invoke(
            main,
            ["verify", "--system", "box", "--levels", "1:5", "--tol", "1e-6"],
        )
        assert result.exit_code == 0

    def test_oscillator_eigen_exit_0(self, runner):
        result = runner.invoke(
            main,
            [
                "verify",
                "--system",
                "oscillator",
                "--levels",
                "0:5",
                "--paths",
                "analytic,eigen",
                "--tol",
                "1e-3",
            ],
        )
        assert result.exit_code == 0

    def test_impossible_tolerance_exit_1(self, runner):
        result = runner.invoke(
            main,
            ["verify", "--system", "box", "--levels", "1:3", "--tol", "1e-15"],
        )
        assert result.exit_code == 1

    def test_seeded_corruption_exit_1(self, runner):
        result = runner.invoke(
            main,
            [
                "verify",
                "--system",
                "box",
                "--levels",
                "1:3",
                "--inject-corruption",
            ],
        )
        assert result.exit_code == 1
        assert "FAIL" in result.output

    def test_single_path_exit_2(self, runner):
        result = runner.invoke(
            main,
            ["verify", "--system", "box", "--levels", "1:3", "--paths", "analytic"],
        )
        assert result.exit_code == 2

    def test_coarse_grid_exit_3(self, runner):
        result = runner.invoke(
            main,
            [
                "verify",
                "--system",
                "box",
                "--levels",
                "18:20",
                "--grid-points",
                "51",
            ],
        )
        assert result.exit_code == 3
        assert "level 18" in result.output


class TestUnits:
    """Physical parameters enter only through the unit scales."""

    def test_unrepresentable_scale_exit_2(self, runner):
        args = ["--hbar", "1e150", "--param", "a=1e-150", "--param", "m=1e-150"]
        for command in (["verify", "--levels", "1:2"], ["eigensolve"]):
            result = runner.invoke(main, command + ["--system", "box"] + args)
            assert result.exit_code == 2
            assert "energy scale" in result.output

    @pytest.mark.parametrize("mass", ["1e300", "1e-300"])
    def test_extreme_oscillator_mass_verifies(self, runner, mass):
        result = runner.invoke(
            main,
            ["verify", "--system", "oscillator", "--param", f"m={mass}", "--levels", "0:2",
             "--paths", "analytic,oracle,eigen", "--tol", "1e-3"],
        )
        assert result.exit_code == 0, result.output
        rows = runner.invoke(
            main,
            ["sweep", "--system", "oscillator", "--param", f"m={mass}", "--levels", "0:2",
             "--paths", "analytic,oracle"],
        ).output.splitlines()[1:]
        for line in rows:
            fields = line.split(",")
            assert float(fields[4]) == pytest.approx(float(fields[1]) + 0.5, rel=1e-6)
            assert fields[9] == "true"

    def test_tiny_inertia_eigen_path(self, runner):
        result = runner.invoke(
            main,
            ["verify", "--system", "ring", "--param", "I=1e-200", "--levels", "-2:2",
             "--paths", "analytic,eigen", "--tol", "1e-3"],
        )
        assert result.exit_code == 0, result.output

    def test_corruption_caught_at_tiny_hbar(self, runner):
        result = runner.invoke(
            main,
            ["verify", "--system", "box", "--hbar", "1e-30", "--levels", "1:3",
             "--inject-corruption"],
        )
        assert result.exit_code == 1
        assert "below bound" in result.output

    def test_eigensolve_energies_in_physical_units(self, runner):
        plain = runner.invoke(main, ["eigensolve", "--system", "ring", "--k", "3"])
        scaled = runner.invoke(
            main, ["eigensolve", "--system", "ring", "--k", "3", "--hbar", "2", "--format", "json"]
        )
        table = [line.split(",") for line in plain.output.splitlines()[1:]]
        payload = json.loads(scaled.output)
        assert payload["energies"] == pytest.approx([4.0 * float(t[1]) for t in table], rel=1e-11)
        assert payload["residuals"] == pytest.approx([4.0 * float(t[2]) for t in table], rel=1e-3)


class TestLapackFailure:
    @pytest.fixture(autouse=True)
    def failing_solver(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("eigenvalue 3 did not converge")

        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", fail)

    @pytest.mark.parametrize(
        "args",
        [
            ["eigensolve", "--system", "box"],
            ["verify", "--system", "oscillator", "--levels", "0:2", "--paths", "analytic,eigen"],
        ],
    )
    def test_exit_3(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 3
        assert "numerical failure:" in result.output


class TestEigensolve:
    def test_ring_spectrum(self, runner):
        result = runner.invoke(main, ["eigensolve", "--system", "ring", "--k", "5"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "index,energy,residual"
        assert len(lines) == 6

    def test_bad_k_exit_2(self, runner):
        result = runner.invoke(main, ["eigensolve", "--system", "box", "--k", "0"])
        assert result.exit_code == 2

    def test_even_grid_points_exit_2(self, runner):
        result = runner.invoke(
            main, ["eigensolve", "--system", "box", "--grid-points", "2000"]
        )
        assert result.exit_code == 2
        assert "odd point count" in result.output

    def test_k_beyond_grid_exit_2(self, runner):
        result = runner.invoke(
            main, ["eigensolve", "--system", "box", "--grid-points", "11", "--k", "20"]
        )
        assert result.exit_code == 2
        assert "requested 20 eigenpairs from a 9-dimensional matrix" in result.output


class TestNodes:
    def test_ring_node_law(self, runner):
        result = runner.invoke(main, ["nodes", "--system", "ring", "--levels", "-2:2"])
        assert result.exit_code == 0
        assert "-2,4,4" in result.output
        assert "0,0,0" in result.output

    def test_oscillator_nodes_match_the_sweep(self, runner):
        result = runner.invoke(
            main, ["nodes", "--system", "oscillator", "--levels", "0:40", "--param", "m=0.7"]
        )
        assert result.exit_code == 0
        rows = run_sweep(SweepConfig(system=Oscillator(mass=0.7), levels=tuple(range(41))))
        expected = [f"{r.level},{r.nodes_predicted},{r.nodes_counted}" for r in rows]
        assert result.output.splitlines()[1:] == expected
        assert expected[-1] == "40,40,40"

    def test_box_nodes_json(self, runner):
        result = runner.invoke(
            main,
            ["nodes", "--system", "box", "--levels", "1:4", "--format", "json"],
        )
        payload = json.loads(result.output)
        assert [r["nodes_counted"] for r in payload] == [0, 1, 2, 3]
