import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from qnodes import (
    Box,
    Oscillator,
    Ring,
    SweepConfig,
    box_energy,
    oscillator_energy,
    ring_energy,
    run_sweep,
)
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

    @pytest.mark.parametrize(
        "system, first, second, name",
        [
            ("box", "a=1", "length=2", "length"),
            ("box", "mass=1", "m=2", "mass"),
            ("ring", "I=1", "inertia=2", "moment_of_inertia"),
            ("oscillator", "omega=1", "w=2", "omega"),
            ("oscillator", "m=1", "m=1", "mass"),
        ],
        ids=["box-a-length", "box-mass-m", "ring-I-inertia", "osc-omega-w", "osc-m-twice"],
    )
    def test_repeated_param_exit_2(self, runner, system, first, second, name):
        result = runner.invoke(
            main,
            ["sweep", "--system", system, "--levels", "1:1", "--param", first, "--param", second],
        )
        assert result.exit_code == 2
        keys = first.partition("=")[0], second.partition("=")[0]
        assert f"error: parameter {name} given twice: as {keys[0]!r} and as {keys[1]!r}" in result.output

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
            ["sweep", "--system", "ring", "--levels", "0:600", "--paths", "analytic,eigen",
             "--grid-points", "1024"],
        )
        assert result.exit_code == 2
        assert "1201" in result.output

    def test_eigen_grid_rule_beyond_its_limit_exit_3(self, runner):
        result = runner.invoke(
            main,
            ["sweep", "--system", "ring", "--levels", "0:600", "--paths", "analytic,eigen"],
        )
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr == (
            "numerical failure: level 600: ring eigen grid for 1201 levels needs 2592 points, "
            "above the limit of 2049\n"
        )

    def test_default_eigen_reach_on_the_ring(self, runner):
        # the rule resolves |m| <= 511 within its limit
        args = ["sweep", "--system", "ring", "--levels", "512:512", "--paths", "analytic,eigen"]
        result = runner.invoke(main, args)
        assert result.exit_code == 3
        assert result.stderr == (
            "numerical failure: level 512: ring eigen grid for 1025 levels needs 2304 points, "
            "above the limit of 2049\n"
        )
        below = runner.invoke(main, args[:4] + ["511:511"] + args[5:])
        assert below.exit_code == 0, below.stderr

    def test_oscillator_eigen_reaches_its_top_level(self, runner):
        # levels 0 .. 200, the oscillator's supported range, fit the rule's
        # limit: the eigen path solves them on the oracle's 575 points
        result = runner.invoke(
            main, ["verify", "--system", "oscillator", "--levels", "0:200", "--paths", "analytic,oracle,eigen"]
        )
        assert result.exit_code == 0, result.stderr
        assert result.stdout == "all checks passed for 603 rows\n"

    @pytest.mark.parametrize("param", ["a=inf", "a=nan", "m=-inf"])
    def test_non_finite_param_exit_2_without_warnings(self, runner, param):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(
                main, ["sweep", "--system", "box", "--levels", "1:3", "--param", param]
            )
        assert result.exit_code == 2
        assert "finite" in result.output


@pytest.mark.parametrize(
    "args",
    [
        ["sweep", "--system", "box", "--levels", "1:3"],
        ["verify", "--system", "oscillator", "--levels", "0:3"],
        ["eigensolve", "--system", "ring"],
        ["nodes", "--system", "box", "--levels", "1:3"],
    ],
    ids=lambda args: args[0],
)
def test_zero_grid_points_exit_2(runner, args):
    # 0 is a grid size, not a request for the default grid
    result = runner.invoke(main, args + ["--grid-points", "0"])
    assert result.exit_code == 2
    assert "need at least 3 points, got 0" in result.output


# the box energy scale is 1e307, so E_5 (and eigensolve's E_2, E_3) overflow to inf
_OVERFLOW_UNITS = ["--hbar", "1e100", "--param", "m=1e-107"]
# a representable energy scale of 1e307 at which E_2 and E_3 overflow
_OVERFLOW_BOX = ["--system", "box", "--hbar", "1e19", "--param", "a=1e-90", "--param", "m=1e-89",
                 "--levels", "1:3"]
_HUGE = str(10**400)


@pytest.mark.parametrize(
    "args", [["sweep", "--system", "box", "--levels", "5:5"]], ids=["sweep"]
)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_single_path_overflowed_value_exit_2(runner, args, fmt):
    # a single path has nothing to compare, but an infinite energy is still a wrong row
    result = runner.invoke(main, args + _OVERFLOW_UNITS + ["--format", fmt])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == (
        f"error: level 5: energy {25 * np.pi**2 / 2!r} overflows to inf "
        "at the energy scale 1e+307\n"
    )


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_eigensolve_overflowed_energy_exit_2(runner, fmt):
    # levels 1 and 2 overflow once rescaled; no row may be printed as inf or null
    args = ["eigensolve", "--system", "box", "--hbar", "1e100", "--param", "m=1e-107", "--k", "3"]
    result = runner.invoke(main, args + ["--format", fmt])
    assert result.exit_code == 2
    assert re.fullmatch(
        r"error: index 1: energy 19\.739\d+ overflows to inf at the energy scale 1e\+307\n",
        result.output,
    )


def test_overflowing_compared_level_exit_2(runner):
    # the energy scale 1e307 is representable, but E_2 overflows
    args = ["verify", *_OVERFLOW_BOX, "--paths", "analytic,oracle,eigen", "--tol", "1e-3"]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "level 2: energy 19.739208802178716 overflows to inf at the energy scale 1e+307" in (
        result.output
    )


# (id, args, the message after "error: "); every case runs once per output
# format. `verify` takes no --format, so with one it is a usage error (still
# exit 2, before any level is computed), and its overflow message is pinned
# by the one case without --format
_TOO_LARGE = [
    ("eigensolve", ["eigensolve", "--system", "box", *_OVERFLOW_UNITS, "--k", "3"],
     r"index 1: energy 19\.739\d+ overflows to inf at the energy scale 1e\+307"),
    ("verify", ["verify", *_OVERFLOW_BOX, "--paths", "analytic,oracle,eigen"],
     r"level 2: energy 19\.739208802178716 overflows to inf at the energy scale 1e\+307"),
    ("sweep", ["sweep", *_OVERFLOW_BOX],
     r"level 2: energy 19\.739208802178716 overflows to inf at the energy scale 1e\+307"),
    # the first level past the oscillator ladder's limit, after the levels below it
    ("nodes-n201", ["nodes", "--system", "oscillator", "--levels", "0:201"],
     r"level 201: oscillator_psi supports n <= 200, got 201"),
    ("verify-n201", ["verify", "--system", "oscillator", "--levels", "195:205"],
     r"level 201: oscillator_psi supports n <= 200, got 201"),
    # a range wholly past the limit: no level is swept before it
    ("nodes-n201-only", ["nodes", "--system", "oscillator", "--levels", "201:205"],
     r"level 201: oscillator_psi supports n <= 200, got 201"),
    ("sweep-huge-level", ["sweep", "--system", "ring", "--levels", f"{_HUGE}:{_HUGE}"],
     rf"level {_HUGE}: int too large to convert to float"),
    # the level sizes the box grid, but the sweep's float pre-pass meets it first
    ("sweep-box-huge-level", ["sweep", "--system", "box", "--levels", f"{_HUGE}:{_HUGE}"],
     rf"level {_HUGE}: int too large to convert to float"),
    ("nodes-box-huge-level", ["nodes", "--system", "box", "--levels", f"{_HUGE}:{_HUGE}"],
     rf"level {_HUGE}: int too large to convert to float"),
    ("eigensolve-huge-k", ["eigensolve", "--system", "oscillator", "--k", _HUGE],
     rf"--k {_HUGE}: int too large to convert to float"),
]


def _too_large_stderr(name, message, fmt):
    if name.startswith("verify") and fmt:
        return r"Usage: main verify \[OPTIONS\]\n.*\nError: No such option '--format'\.\n"
    return f"error: {message}\n"


@pytest.mark.parametrize(
    "args, stderr, fmt",
    [
        pytest.param(
            args, _too_large_stderr(name, message, fmt), fmt, id=f"{fmt}-{name}" if fmt else name
        )
        for fmt in ("csv", "json", None)
        for name, args, message in _TOO_LARGE
        if fmt or name.startswith("verify")
    ],
)
def test_value_too_large_for_a_double_exit_2(runner, args, stderr, fmt):
    result = runner.invoke(main, args + (["--format", fmt] if fmt else []))
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # not an uncaught traceback
    assert result.stdout == ""
    assert re.fullmatch(stderr, result.stderr, re.DOTALL)


class TestVerify:
    @pytest.mark.parametrize("option", [["--format", "json"], ["--out", "v.json"]], ids=["format", "out"])
    def test_output_options_not_offered_exit_2(self, runner, tmp_path, option, monkeypatch):
        # verify prints a verdict, not a table: it takes neither option
        monkeypatch.chdir(tmp_path)
        result = runner.invoke(main, ["verify", "--system", "box", "--levels", "1:3", *option])
        assert result.exit_code == 2
        assert f"No such option '{option[0]}'" in result.output
        assert not (tmp_path / "v.json").exists()

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

    @pytest.mark.parametrize(
        "system, levels, rows",
        [("box", "1:100", 300), ("oscillator", "0:40", 123), ("ring", "-20:20", 123),
         ("box", "1:347", 1041), ("ring", "-173:173", 1041),
         # the default eigen grid's reach
         ("box", "1:1023", 3069), ("ring", "-511:511", 3069)],
    )
    def test_three_paths_agree_at_the_default_tolerance(self, runner, system, levels, rows):
        # the Fourier-grid eigen path meets the closed forms and the oracle
        # at --tol 1e-6
        result = runner.invoke(
            main, ["verify", "--system", system, "--levels", levels, "--paths", "analytic,oracle,eigen"]
        )
        assert result.exit_code == 0, result.stderr
        assert result.stdout == f"all checks passed for {rows} rows\n"

    def test_impossible_tolerance_exit_1(self, runner):
        # box 1:3 agrees to ~2e-16 across the closed forms and the oracle
        result = runner.invoke(
            main,
            ["verify", "--system", "box", "--levels", "1:3", "--tol", "1e-17"],
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

    def test_seeded_ring_corruption_exit_1(self, runner):
        # ring rows have no Heisenberg check, so only the disagreement,
        # recomputed from the corrupted rows, can catch the lowered product
        result = runner.invoke(
            main,
            ["verify", "--system", "ring", "--levels", "-3:3",
             "--paths", "analytic,oracle,eigen", "--tol", "1e-3", "--inject-corruption"],
        )
        assert result.exit_code == 1
        assert result.output.splitlines() == [
            *(
                f"FAIL ring level -3 ({path}): cross-path disagreement 2.500e-01 "
                "exceeds tolerance 1.000e-03"
                for path in ("analytic", "oracle", "eigen")
            ),
            "3 check(s) failed",
        ]

    def test_single_path_exit_2(self, runner):
        result = runner.invoke(
            main,
            ["verify", "--system", "box", "--levels", "1:3", "--paths", "analytic"],
        )
        assert result.exit_code == 2

    def test_repeated_path_is_one_path_exit_2(self, runner):
        # oracle against itself compares nothing and would pass any rows
        result = runner.invoke(
            main,
            ["verify", "--system", "box", "--levels", "1:3", "--paths", "oracle,oracle"],
        )
        assert result.exit_code == 2
        assert result.output == "error: verify needs at least two paths to cross-check\n"

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    @pytest.mark.parametrize("command", ["verify", "sweep"])
    def test_non_finite_tol_exit_2(self, runner, command, tol):
        # --tol inf would wave every finite disagreement through; verify
        # takes no --format
        fmt = ["--format", "json"] if command == "sweep" else []
        result = runner.invoke(
            main, [command, "--system", "box", "--levels", "1:3", "--tol", tol, *fmt]
        )
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "tolerance must be positive and finite" in result.stderr

    def test_coarse_grid_exit_3(self, runner):
        # on 50 intervals n = 26 lies above half the Nyquist wavenumber
        result = runner.invoke(
            main,
            [
                "verify",
                "--system",
                "box",
                "--levels",
                "26:28",
                "--grid-points",
                "51",
            ],
        )
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr == (
            "numerical failure: level 26: grid too coarse for momentum moments: wavenumbers "
            "above half the Nyquist wavenumber carry 1.000e+00 of <p^2>, above 1e-10\n"
        )

    @pytest.mark.parametrize(
        "args, stderr",
        [
            # the moments' guards come before the node count on samples too;
            # the samples' trapezoid norm is 1, as the eigenvectors' is
            (
                ["sweep", "--system", "box", "--levels", "25:25", "--grid-points", "51",
                 "--paths", "oracle"],
                "level 25: grid too coarse for momentum moments: wavenumbers above half the "
                "Nyquist wavenumber carry 1.000e+00 of <p^2>, above 1e-10",
            ),
            (
                ["sweep", "--system", "box", "--levels", "25:25", "--grid-points", "51",
                 "--paths", "eigen"],
                "level 25: grid too coarse for momentum moments: wavenumbers above half the "
                "Nyquist wavenumber carry 1.000e+00 of <p^2>, above 1e-10",
            ),
            (
                ["eigensolve", "--system", "box", "--k", "25", "--grid-points", "51"],
                "level 25: grid too coarse for momentum moments: wavenumbers above half the "
                "Nyquist wavenumber carry 1.000e+00 of <p^2>, above 1e-10",
            ),
        ],
        ids=["sweep-oracle", "sweep-eigen", "eigensolve"],
    )
    def test_moment_guards_come_before_the_node_count(self, runner, args, stderr):
        # n = 25 on 50 intervals samples 0, 1, 0, -1, ...: every other
        # sample is zero, which the node count would reject first
        result = runner.invoke(main, args)
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr == f"numerical failure: {stderr}\n"

    def test_resolved_level_on_a_coarse_grid_meets_the_closed_forms(self, runner):
        # n = 20 lies below half the Nyquist wavenumber of 50 intervals
        args = ["sweep", "--system", "box", "--levels", "20:20", "--paths", "analytic,oracle"]
        coarse = runner.invoke(main, args + ["--grid-points", "51"])
        assert coarse.exit_code == 0
        (analytic, oracle) = [line.split(",") for line in coarse.stdout.splitlines()[1:]]
        for a, o in zip(analytic[4:8], oracle[4:8]):
            assert float(o) == pytest.approx(float(a), rel=1e-13)

    def test_box_eigenvectors_to_level_200_pass(self, runner):
        # the DST's half-band guard accepts eigenvectors whose <p^2> is exact
        result = runner.invoke(
            main,
            ["verify", "--system", "box", "--levels", "1:200", "--paths", "analytic,eigen",
             "--tol", "1e-1", "--grid-points", "2001"],
        )
        assert result.exit_code == 0, result.stderr
        assert result.stdout == "all checks passed for 400 rows\n"

    @pytest.mark.parametrize("command", ["verify", "sweep"])
    def test_under_resolved_oscillator_grid_exit_3(self, runner, command):
        # on 473 points, two fewer than the first that resolves 0:200, level
        # 200 carries too much of <p^2> in the top eighth of the band
        args = [command, "--system", "oscillator", "--levels", "0:200", "--grid-points", "473",
                "--paths", "analytic,oracle"]
        result = runner.invoke(main, args)
        assert result.exit_code == 3
        assert result.stdout == ""
        assert re.fullmatch(
            r"numerical failure: level 200: grid too coarse for momentum moments: wavenumbers "
            r"above 7/8 of the Nyquist wavenumber carry 2\.001e-10 of <p\^2>, above 1e-10\n",
            result.stderr,
        )

    @pytest.mark.parametrize(
        "args, level",
        [
            # m = 8 sits on the Nyquist bin of 16 points; m = 10 would print energy 18, not 50
            (["--levels", "8:10", "--paths", "oracle", "--grid-points", "16"], 8),
            # m = 300 lies above N/4 on a 1024-point eigen grid
            (["--levels", "300:300", "--paths", "eigen", "--grid-points", "1024"], 300),
        ],
        ids=["oracle-16-points", "eigen-m300"],
    )
    def test_aliased_ring_grid_exit_3(self, runner, args, level):
        result = runner.invoke(main, ["sweep", "--system", "ring", *args])
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr == (
            f"numerical failure: level {level}: grid too coarse for angular momentum moments: "
            "wavenumbers above half the Nyquist wavenumber carry 1.000e+00 of <L_z^2>, above 1e-10\n"
        )

    @pytest.mark.parametrize(
        "system, level, points, message",
        [
            # e^{14 i theta} on 16 points reads as m = -2, energy 2 in place of 98
            ("ring", 14, 16, "the 16-point ring grid aliases |m| = 14 (every |m| >= 9)"),
            # sin(90 pi x) on 50 intervals reads as -sin(10 pi x)
            ("box", 90, 51, "the 51-point box grid aliases n = 90 (every n >= 50)"),
        ],
        ids=["ring-14-on-16", "box-90-on-51"],
    )
    @pytest.mark.parametrize("paths", ["oracle", "analytic"])
    def test_level_beyond_nyquist_exit_3(self, runner, system, level, points, message, paths):
        # the samples lie in the low band, where the half-band guard cannot see them
        result = runner.invoke(
            main,
            ["sweep", "--system", system, "--levels", f"{level}:{level}", "--paths", paths,
             "--grid-points", str(points)],
        )
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr == (
            f"numerical failure: level {level}: grid too coarse: {message}\n"
        )

    def test_ring_grid_limit_exit_3(self, runner):
        result = runner.invoke(main, ["sweep", "--system", "ring", "--levels", "-262144:-262144"])
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr == (
            "numerical failure: level -262144: ring grid for |m| = 262144 needs at least "
            "1048577 points, above the limit of 1048576\n"
        )

    def test_ring_m0_rows_exactly_zero(self, runner):
        # the benchmark's ring sweep, on all three paths
        result = runner.invoke(
            main, ["sweep", "--system", "ring", "--levels", "-10:10", "--paths", "analytic,oracle,eigen"]
        )
        assert result.exit_code == 0
        rows = [line.split(",") for line in result.stdout.splitlines()[1:]]
        zero = [r for r in rows if r[1] == "0"]
        assert [r[10] for r in zero] == ["analytic", "oracle", "eigen"]
        for r in zero:
            assert (r[4], r[6], r[7]) == ("0.00000000000",) * 3

    @pytest.mark.parametrize("levels", ["-1:1", "0:0", "-3:3", "-10:10"])
    def test_ring_m0_eigen_row_exact_on_any_sweep(self, runner, levels):
        # the eigen solve's m = 0 state is the exact constant null vector,
        # however few levels the sweep solves for
        result = runner.invoke(
            main, ["sweep", "--system", "ring", "--levels", levels, "--paths", "analytic,eigen"]
        )
        assert result.exit_code == 0
        rows = [line.split(",") for line in result.stdout.splitlines()[1:]]
        analytic, eigen = [r for r in rows if r[1] == "0"]
        assert (analytic[10], eigen[10]) == ("analytic", "eigen")
        assert (eigen[6], eigen[7]) == ("0.00000000000",) * 2
        assert eigen[5] == analytic[5]

    def test_ring_oracle_verifies_at_default_tol(self, runner):
        result = runner.invoke(
            main, ["verify", "--system", "ring", "--levels", "-40:40", "--paths", "analytic,oracle"]
        )
        assert result.exit_code == 0, result.output


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

        monkeypatch.setattr(np.linalg, "eigh", fail)

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


_SCIPY_PROBE = """
import json, sys
import qnodes.cli
try:
    if sys.argv[1:]:
        qnodes.cli.main(sys.argv[1:], standalone_mode=False)
finally:
    print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""

# `import scipy` anywhere in the run raises ImportError
_SCIPY_BLOCKED = """
import sys
sys.modules["scipy"] = None
import qnodes.cli
qnodes.cli.main(sys.argv[1:])
"""


def _run_python(source, args):
    """Run `source` with `args` in a fresh interpreter on this checkout's
    `src/`; pytest's own process has long imported scipy."""
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run(
        [sys.executable, "-c", source, *args], capture_output=True, text=True, env=env, timeout=120
    )


def _scipy_modules_after(args):
    """The scipy modules loaded once `qnodes.cli` has run `args`."""
    run = _run_python(_SCIPY_PROBE, args)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


class TestScipyImport:
    """No command loads scipy, a dependency of the tests only."""

    @pytest.mark.parametrize(
        "args",
        [
            [],
            ["verify", "--system", "oscillator", "--levels", "0:8"],
            ["nodes", "--system", "box", "--levels", "1:6"],
            ["sweep", "--system", "ring", "--levels", "-3:3", "--paths", "analytic,oracle"],
        ],
        ids=["import", "verify", "nodes", "sweep"],
    )
    def test_commands_without_the_eigen_path_load_no_scipy(self, args):
        assert _scipy_modules_after(args) == []

    @pytest.mark.parametrize(
        "args",
        [
            ["eigensolve", "--system", "box", "--k", "3"],
            ["verify", "--system", "box", "--levels", "1:3", "--paths", "analytic,eigen"],
        ],
        ids=["eigensolve", "verify-eigen"],
    )
    def test_the_eigen_path_loads_no_scipy(self, args):
        assert _scipy_modules_after(args) == []

    @pytest.mark.parametrize(
        "args",
        [
            ["eigensolve", "--system", "ring", "--k", "7"],
            ["verify", "--system", "box", "--levels", "1:5", "--paths", "analytic,oracle,eigen"],
        ],
        ids=["eigensolve", "verify-three-paths"],
    )
    def test_commands_run_with_scipy_blocked(self, args):
        run = _run_python(_SCIPY_BLOCKED, args)
        assert run.returncode == 0, run.stderr


# (system, levels, the --grid-points scanned): from grids too coarse for
# the levels to grids that resolve them
_COARSE_SCAN = [
    ("oscillator", "0:6", range(17, 202, 2)),
    ("box", "1:3", range(5, 258, 2)),
    ("ring", "-3:3", range(8, 257)),
]
_EXACT_ENERGY = {
    "oscillator": lambda n: oscillator_energy(Oscillator(), n),
    "box": lambda n: box_energy(Box(), n),
    "ring": lambda m: ring_energy(Ring(), m),
}


@pytest.mark.parametrize("system, levels, points", _COARSE_SCAN, ids=[c[0] for c in _COARSE_SCAN])
def test_coarse_eigen_grids_exit_3_or_meet_the_node_law(runner, system, levels, points):
    # a dense solve's residuals are roundoff on any grid: on each grid the
    # moments' guards either reject a level (exit 3), or every eigen row
    # counts its predicted nodes and meets its closed-form energy
    codes = set()
    for p in points:
        args = ["sweep", "--system", system, "--levels", levels, "--paths", "eigen",
                "--grid-points", str(p), "--format", "json"]
        result = runner.invoke(main, args)
        assert result.exit_code in (0, 3), (p, result.stderr)
        codes.add(result.exit_code)
        if result.exit_code:
            continue
        for row in json.loads(result.stdout)["rows"]:
            assert row["nodes_counted"] == row["nodes_predicted"], (p, row["level"])
            exact = _EXACT_ENERGY[system](row["level"])
            assert row["energy"] == pytest.approx(exact, rel=1e-6, abs=1e-12), (p, row["level"])
    assert codes == {0, 3}


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

    def test_grid_rule_beyond_its_limit_exit_3(self, runner):
        result = runner.invoke(main, ["eigensolve", "--system", "box", "--k", "1200"])
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr == (
            "numerical failure: box eigen grid for 1200 levels needs 2593 points, "
            "above the limit of 2049\n"
        )

    @pytest.mark.parametrize("system, k, beyond", [("box", 1023, 2305), ("ring", 1023, 2304),
                                                   ("oscillator", 1091, 2051)])
    def test_default_reach(self, runner, system, k, beyond):
        # the most levels the rule resolves within its limit; one more
        # needs more points than the limit and exits 3
        reached = runner.invoke(main, ["eigensolve", "--system", system, "--k", str(k), "--format", "json"])
        assert reached.exit_code == 0, reached.stderr
        assert len(json.loads(reached.stdout)["energies"]) == k
        result = runner.invoke(main, ["eigensolve", "--system", system, "--k", str(k + 1)])
        assert result.exit_code == 3
        assert result.stderr == (
            f"numerical failure: {system} eigen grid for {k + 1} levels needs {beyond} points, "
            f"above the limit of 2049\n"
        )

    def test_grid_points_beyond_the_limit_exit_3(self, runner):
        # the bound holds for --grid-points too, before the dense solve allocates
        args = ["eigensolve", "--system", "box", "--k", "6", "--grid-points", "20001"]
        result = runner.invoke(main, args)
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr == (
            "numerical failure: a dense eigensolve on 20001 points is above the limit of 2049\n"
        )

    @pytest.mark.parametrize(
        "system, points, message",
        [
            # the exact levels are 1.5 and 2.5, not the 4.642 and 4.662 a
            # 9-point grid's blocks give
            ("oscillator", "9", "level 0: state has not decayed at the open grid's ends"),
            # n = 4 .. 6 lie at or above half the Nyquist wavenumber of 8 intervals
            ("box", "9", "level 4: grid too coarse for momentum moments"),
        ],
    )
    def test_too_coarse_grid_exit_3(self, runner, system, points, message):
        args = ["eigensolve", "--system", system, "--k", "6", "--grid-points", points]
        result = runner.invoke(main, args)
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr.startswith(f"numerical failure: {message}")

    def test_printed_ring_cos_state_is_guarded(self, runner):
        # an even k prints slot k - 1 = 9, the cos member of level 5, whose
        # wavenumber lies above half the Nyquist wavenumber of 16 points;
        # k = 11 adds its sin member and fails at the same level
        def invoke(k):
            args = ["eigensolve", "--system", "ring", "--k", k, "--grid-points", "16"]
            return runner.invoke(main, args)

        result = invoke("10")
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr.startswith(
            "numerical failure: level 5: grid too coarse for angular momentum moments"
        )
        assert result.stderr == invoke("11").stderr

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
