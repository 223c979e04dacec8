"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured runtime.  Tolerances are fixed here and
must not be loosened to make a failing pipeline green.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from qnodes import (
    Box,
    Oscillator,
    Ring,
    RingSuperposition,
    SampledFunction,
    SweepConfig,
    box_energy,
    box_uncertainties,
    build_hamiltonian,
    corrupt_first_product,
    count_nodes,
    default_eigen_grid,
    eigen_uncertainties,
    emit,
    oracle_uncertainties,
    oscillator_energy,
    oscillator_uncertainties,
    predicted_node_count,
    ring_density,
    ring_energy,
    ring_lz_by_quadrature,
    ring_lz_stats,
    ring_momentum_state,
    ring_theta_by_quadrature,
    run_sweep,
    sample_state,
    solve_lowest,
    verify_rows,
)
from qnodes.grids import GridSpec
from qnodes.oracle import default_grid

BOX = Box()
RING = Ring()
OSC = Oscillator()


class _Stopwatch:
    def __init__(self, name, limit):
        self.name = name
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, *_):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"{verdict} {self.name} ({elapsed:.2f}s, limit {self.limit:.0f}s)")
        assert elapsed < self.limit, f"{self.name} exceeded {self.limit}s"


def test_criterion_1_oscillator_product():
    with _Stopwatch("criterion 1: oscillator uncertainty product", 10.0):
        for n in range(0, 101):
            rec = oscillator_uncertainties(OSC, n)
            assert abs(rec.product - (n + 0.5)) <= 1e-12 * (n + 0.5)
        for n in range(0, 21):
            got = oracle_uncertainties(OSC, n).product
            assert abs(got - (n + 0.5)) / (n + 0.5) < 1e-6


def test_criterion_2_box_formulas():
    with _Stopwatch("criterion 2: box closed forms vs oracle", 10.0):
        for n in range(1, 101):
            rec = box_uncertainties(BOX, n)
            dx = math.sqrt(1.0 / 12.0 - 1.0 / (2.0 * n**2 * math.pi**2))
            dp = n * math.pi
            assert abs(rec.delta_q - dx) <= 1e-12 * dx
            assert abs(rec.delta_p - dp) <= 1e-12 * dp
            assert abs(rec.product - dx * dp) <= 1e-12 * dx * dp
        grid = GridSpec(0.0, 1.0, 4001, "dirichlet")
        for n in range(1, 21):
            ana = box_uncertainties(BOX, n)
            ora = oracle_uncertainties(BOX, n, grid)
            for field in ("delta_q", "delta_p", "product"):
                a, o = getattr(ana, field), getattr(ora, field)
                assert abs(o - a) / abs(a) < 1e-6, (n, field)
        ground = oracle_uncertainties(BOX, 1, grid).product
        assert ground == pytest.approx(0.567862, abs=5e-7)


def test_criterion_3_heisenberg_bound():
    with _Stopwatch("criterion 3: Heisenberg bound", 5.0):
        for n in range(1, 101):
            rec = box_uncertainties(BOX, n)
            assert rec.product >= rec.bound - 1e-12
            assert rec.product > rec.bound + 1e-12  # never saturated in the box
        for n in range(0, 101):
            rec = oscillator_uncertainties(OSC, n)
            assert rec.product >= rec.bound - 1e-12
            if n == 0:
                assert abs(rec.product - rec.bound) <= 1e-12
            else:
                assert rec.product > rec.bound + 1e-12


def test_criterion_4_node_laws():
    with _Stopwatch("criterion 4: node laws on both paths", 30.0):
        for n in range(1, 21):
            psi = sample_state(BOX, n)
            got = count_nodes(SampledFunction(psi.grid, np.real(psi.values))).count
            assert got == n - 1
        for n in range(0, 21):
            psi = sample_state(OSC, n)
            got = count_nodes(SampledFunction(psi.grid, np.real(psi.values))).count
            assert got == n
        for m in range(-10, 11):
            psi = sample_state(RING, m)
            got = count_nodes(SampledFunction(psi.grid, np.real(psi.values))).count
            assert got == 2 * abs(m)

        box_res = solve_lowest(build_hamiltonian(BOX, default_eigen_grid(BOX, 20)), 20)
        for n in range(1, 21):
            assert eigen_uncertainties(BOX, box_res, n).nodes_measured == n - 1
        osc_res = solve_lowest(build_hamiltonian(OSC, default_eigen_grid(OSC, 21)), 21)
        for n in range(0, 21):
            assert eigen_uncertainties(OSC, osc_res, n).nodes_measured == n
        # ring: the nondegenerate level
        ring_res = solve_lowest(build_hamiltonian(RING, default_eigen_grid(RING, 3)), 3)
        assert eigen_uncertainties(RING, ring_res, 0).nodes_measured == 0


def test_criterion_5_eigensolver_fidelity():
    # the Fourier-grid operator: box and ring levels are exact on any grid
    # that holds them and the oscillator's converge exponentially, so on the
    # default grid the six lowest levels meet 1e-12 (the ring's m = 0 is
    # exactly 0.0), and the oscillator's still meet 1e-10 on a grid of at
    # least twice its spacing
    with _Stopwatch("criterion 5: eigensolver energies", 60.0):
        cases = [
            (BOX, [box_energy(BOX, n) for n in range(1, 7)], (1,)),
            (OSC, [oscillator_energy(OSC, n) for n in range(6)], (1, 2)),
            (RING, [0.0, 0.5, 0.5, 2.0, 2.0, 4.5], (1,)),
        ]
        for spec, exact, factors in cases:
            base = default_eigen_grid(spec, 6)
            for factor in factors:
                grid = default_eigen_grid(spec, 6, _coarsened(base, factor))
                res = solve_lowest(build_hamiltonian(spec, grid), 6)
                errs = [
                    abs(e - x) / abs(x) if x else abs(e)
                    for e, x in zip(res.energies, exact)
                ]
                assert max(errs) <= {1: 1e-12, 2: 1e-10}[factor], (type(spec).__name__, factor)
                assert res.energies[0] == 0.0 or spec is not RING


def _coarsened(grid, factor):
    """Points of `grid` with its spacing times at least `factor`: an open
    grid keeps an odd count."""
    if grid.boundary == "periodic":
        return grid.points // factor
    return 2 * ((grid.points - 1) // (2 * factor)) + 1


def test_criterion_6_ring_statistics():
    with _Stopwatch("criterion 6: ring statistics", 5.0):
        grid = default_grid(RING)
        for m in range(0, 11):
            rho = SampledFunction(grid, ring_density(RING, m, grid.x))
            assert np.ptp(rho.values) == 0.0 and rho.values.min() > 0.0
            _, dlz, _ = ring_lz_by_quadrature(sample_state(RING, m))
            assert dlz <= 1e-10
        c = 1.0 / math.sqrt(2.0)
        pair = RingSuperposition(((1, c), (-1, c)))
        _, by_coeff = ring_lz_stats(RING, pair)
        _, by_quad, _ = ring_lz_by_quadrature(sample_state(RING, pair))
        assert abs(by_coeff - 1.0) <= 1e-10
        assert abs(by_quad - 1.0) <= 1e-10
        _, dtheta = ring_theta_by_quadrature(sample_state(RING, 5))
        assert abs(dtheta - 2.0 * math.pi / math.sqrt(12.0)) <= 1e-8


def test_criterion_7_monotonicity():
    with _Stopwatch("criterion 7: monotonicity of uncertainties", 1.0):
        box_prod = [box_uncertainties(BOX, n).product for n in range(1, 51)]
        osc_prod = [oscillator_uncertainties(OSC, n).product for n in range(0, 51)]
        assert all(b > a for a, b in zip(box_prod, box_prod[1:]))
        assert all(b > a for a, b in zip(osc_prod, osc_prod[1:]))
        for n in range(1, 51):
            assert box_uncertainties(BOX, n).delta_p == pytest.approx(
                n * math.pi, rel=1e-14
            )
        dx = [box_uncertainties(BOX, n).delta_q for n in range(1, 51)]
        assert all(b > a for a, b in zip(dx, dx[1:]))
        assert all(v < 1.0 / math.sqrt(12.0) for v in dx)


def test_criterion_8_cli_contract():
    with _Stopwatch("criterion 8: CLI determinism and exit codes", 10.0):
        args = [
            sys.executable,
            "-m",
            "qnodes.cli",
            "sweep",
            "--system",
            "box",
            "--levels",
            "1:5",
        ]
        first = subprocess.run(args, capture_output=True)
        second = subprocess.run(args, capture_output=True)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

        def verify_exit(extra):
            cmd = [sys.executable, "-m", "qnodes.cli", "verify"] + extra
            return subprocess.run(cmd, capture_output=True).returncode

        assert verify_exit(["--system", "box", "--levels", "1:5"]) == 0
        assert (
            verify_exit(["--system", "box", "--levels", "1:3", "--inject-corruption"])
            == 1
        )
        assert verify_exit(["--system", "box", "--levels", "0:3"]) == 2
        # on 50 intervals levels from 25 on lie at or above half the Nyquist wavenumber
        assert (
            verify_exit(
                ["--system", "box", "--levels", "25:27", "--grid-points", "51"]
            )
            == 3
        )


def test_library_level_corruption_is_caught():
    # the checker itself is under test: a silently lowered product must fail
    cfg = SweepConfig(system=OSC, levels=(0, 1), paths=("analytic", "oracle"))
    rows = corrupt_first_product(run_sweep(cfg))
    assert verify_rows(cfg, rows)
    assert emit(rows, "csv")  # corrupted rows still serialize deterministically
