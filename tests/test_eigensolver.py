import math

import numpy as np
import pytest
import scipy.linalg

from qnodes import (
    Box,
    ConfigError,
    Constants,
    GridError,
    GridSpec,
    Oscillator,
    Ring,
    box_energy,
    build_hamiltonian,
    count_nodes,
    default_eigen_grid,
    eigen_uncertainties,
    oscillator_energy,
    ring_energy,
    ring_lz_by_quadrature,
    ring_momentum_state,
    solve_lowest,
)
from qnodes.eigensolver import _apply
from qnodes.grids import SampledFunction, quad


@pytest.fixture(scope="module")
def box_result():
    spec = Box()
    return spec, solve_lowest(build_hamiltonian(spec, default_eigen_grid(spec, 10)), 10)


@pytest.fixture(scope="module")
def osc_result():
    spec = Oscillator()
    return spec, solve_lowest(build_hamiltonian(spec, default_eigen_grid(spec, 11)), 11)


@pytest.fixture(scope="module")
def ring_result():
    spec = Ring()
    return spec, solve_lowest(build_hamiltonian(spec, default_eigen_grid(spec, 9)), 9)


class TestBuildHamiltonian:
    def test_box_structure(self):
        ham = build_hamiltonian(Box(), GridSpec(0.0, 1.0, 11, "dirichlet"))
        # walls excluded: 9 interior unknowns, zero potential
        assert ham.diagonal.shape == (9,)
        h = 0.1
        np.testing.assert_allclose(ham.diagonal, 1.0 / h**2)
        assert ham.off_diagonal == pytest.approx(-0.5 / h**2)
        assert not ham.periodic

    def test_ring_corner_coupling(self):
        ham = build_hamiltonian(Ring(), GridSpec(0.0, 2.0 * np.pi, 8, "periodic"))
        assert ham.periodic
        v = np.zeros(8)
        v[0] = 1.0
        out = _apply(ham, v)
        assert out[-1] == ham.off_diagonal != 0.0

    def test_oscillator_potential_on_diagonal(self):
        grid = GridSpec(-12.0, 12.0, 101, "open")
        ham = build_hamiltonian(Oscillator(), grid)
        kinetic = 1.0 / grid.h**2
        np.testing.assert_allclose(ham.diagonal - kinetic, 0.5 * grid.x**2, atol=1e-12)

    def test_topology_mismatch(self):
        with pytest.raises(GridError):
            build_hamiltonian(Ring(), GridSpec(0.0, 1.0, 11, "dirichlet"))
        with pytest.raises(GridError):
            build_hamiltonian(Box(), GridSpec(0.0, 1.0, 8, "periodic"))


class TestEnergies:
    def test_box_ground(self, box_result):
        spec, result = box_result
        assert result.energies[0] == pytest.approx(np.pi**2 / 2.0, rel=1e-4)

    def test_box_six_lowest(self, box_result):
        spec, result = box_result
        for i in range(6):
            assert result.energies[i] == pytest.approx(box_energy(spec, i + 1), rel=1e-3)

    def test_oscillator_ladder(self, osc_result):
        spec, result = osc_result
        np.testing.assert_allclose(result.energies[:3], [0.5, 1.5, 2.5], rtol=1e-4)

    def test_ring_spectrum_with_degeneracy(self, ring_result):
        spec, result = ring_result
        np.testing.assert_allclose(result.energies[:3], [0.0, 0.5, 0.5], atol=1e-4)
        # +/- m pairs coincide
        for m in (1, 2, 3):
            lo, hi = result.energies[2 * m - 1], result.energies[2 * m]
            assert abs(hi - lo) <= 1e-8 * max(abs(hi), 1.0)
            assert hi == pytest.approx(ring_energy(spec, m), rel=1e-3)

    @pytest.mark.parametrize("factor", [2])
    def test_convergence_order(self, factor):
        spec = Box()
        errs = []
        for points in (501, 1001):
            grid = GridSpec(0.0, spec.length, points, "dirichlet")
            res = solve_lowest(build_hamiltonian(spec, grid), 3)
            errs.append(abs(res.energies[2] - box_energy(spec, 3)) / box_energy(spec, 3))
        assert errs[0] / errs[1] >= 3.5


class TestEigenvectors:
    def test_normalized_and_signed(self, box_result):
        _, result = box_result
        for state in result.states:
            norm = quad(SampledFunction(state.grid, np.abs(state.values) ** 2))
            assert norm == pytest.approx(1.0, abs=1e-10)
            lead = np.flatnonzero(np.abs(state.values) > 1e-8)[0]
            assert state.values[lead] > 0

    def test_orthogonality(self, osc_result):
        _, result = osc_result
        for i in range(len(result.states)):
            for j in range(i + 1, len(result.states)):
                overlap = quad(
                    SampledFunction(
                        result.states[i].grid,
                        np.conj(result.states[i].values) * result.states[j].values,
                    )
                )
                assert abs(overlap) < 1e-8

    def test_residuals_small(self, box_result):
        _, result = box_result
        scale = max(np.max(np.abs(result.energies)), 1.0)
        assert np.all(result.residuals < 1e-8 * scale)


class TestEigenUncertainties:
    def test_box_ground_product(self, box_result):
        spec, result = box_result
        rec = eigen_uncertainties(spec, result, 1)
        assert rec.product == pytest.approx(0.5678618083866118, rel=1e-3)
        assert rec.nodes_measured == 0

    def test_oscillator_ground_product(self, osc_result):
        spec, result = osc_result
        rec = eigen_uncertainties(spec, result, 0)
        assert rec.product == pytest.approx(0.5, rel=1e-3)

    def test_oscillator_node_count(self, osc_result):
        spec, result = osc_result
        rec = eigen_uncertainties(spec, result, 4)
        assert rec.nodes_measured == 4

    def test_ring_recombined_momentum_state(self, ring_result):
        spec, result = ring_result
        for m in (-3, -1, 0, 2):
            psi = ring_momentum_state(result, m)
            rec = eigen_uncertainties(spec, result, m)
            assert rec.delta_p == pytest.approx(0.0, abs=1e-8)
            assert rec.nodes_measured == 2 * abs(m)
            assert rec.energy == pytest.approx(ring_energy(spec, m), rel=1e-3, abs=1e-8)
            norm = quad(SampledFunction(psi.grid, np.abs(psi.values) ** 2))
            assert norm == pytest.approx(1.0, abs=1e-8)

    def test_out_of_range_index(self, box_result):
        spec, result = box_result
        with pytest.raises(GridError):
            eigen_uncertainties(spec, result, 11)


def _dense_ring_energies(ham):
    """Ascending spectrum of the full periodic matrix, corners included."""
    n = ham.diagonal.size
    coupling = np.eye(n, k=1) + np.eye(n, k=n - 1)
    mat = np.diag(ham.diagonal) + ham.off_diagonal * (coupling + coupling.T)
    return np.linalg.eigh(mat)[0]


def _mirror(values):
    """Samples of f(-theta) on a periodic grid: point j -> point N - j."""
    return values[(-np.arange(values.size)) % values.size]


class TestRingParitySolve:
    """The even/odd block solve against a dense reference, on any N >= 3."""

    @pytest.mark.parametrize("points", [3, 4, 5, 8, 63, 64, 1001, 1024])
    def test_energies_match_dense_reference(self, points):
        ham = build_hamiltonian(Ring(), GridSpec(0.0, 2.0 * np.pi, points, "periodic"))
        reference = _dense_ring_energies(ham)
        scale = max(float(np.max(np.abs(reference))), 1.0)
        # every k on the small grids; the edges, both parities of k and a
        # mid-spectrum cut on the large ones (a full sweep of k there
        # costs minutes)
        if points <= 64:
            ks = range(1, points + 1)
        else:
            ks = (1, 2, 3, 4, 21, points // 2, points - 1, points)
        for k in ks:
            result = solve_lowest(ham, k)
            assert len(result.states) == k
            np.testing.assert_allclose(
                result.energies, reference[:k], rtol=0.0, atol=1e-12 * scale
            )

    @pytest.mark.parametrize("points", [3, 4, 5, 8, 63, 64])
    def test_pairs_are_parity_partners(self, points):
        ham = build_hamiltonian(Ring(), GridSpec(0.0, 2.0 * np.pi, points, "periodic"))
        result = solve_lowest(ham, points)
        for j, state in enumerate(result.states):
            odd = j > 0 and j % 2 == 0
            expected = -state.values if odd else state.values
            np.testing.assert_allclose(_mirror(state.values), expected, atol=1e-12)

    def test_oversized_request_rejected_before_any_solve(self, monkeypatch):
        calls = []

        def record(*args, **kwargs):
            calls.append(args)
            raise AssertionError("solver reached")

        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", record)
        monkeypatch.setattr(scipy.linalg, "eigh", record)
        for points in (3, 8, 1024):
            ham = build_hamiltonian(Ring(), GridSpec(0.0, 2.0 * np.pi, points, "periodic"))
            with pytest.raises(ConfigError):
                solve_lowest(ham, points + 1)
        assert calls == []


class TestRingMomentumState:
    """Definite-m states from the parity pairs, off natural units."""

    HBAR = 0.7
    INERTIA = 1.3

    @pytest.fixture(scope="class")
    def solved(self):
        spec = Ring(moment_of_inertia=self.INERTIA, constants=Constants(hbar=self.HBAR))
        result = solve_lowest(build_hamiltonian(spec, default_eigen_grid(spec, 21)), 21)
        return spec, result

    @pytest.mark.parametrize("m", range(-10, 11))
    def test_definite_angular_momentum(self, solved, m):
        spec, result = solved
        psi = ring_momentum_state(result, m)
        mean, spread = ring_lz_by_quadrature(psi, self.HBAR)
        assert mean == pytest.approx(m * self.HBAR, abs=1e-8)
        assert spread <= 1e-8
        assert count_nodes(psi).count == 2 * abs(m)
        assert eigen_uncertainties(spec, result, m).nodes_measured == 2 * abs(m)

    @pytest.mark.parametrize("m", range(0, 11))
    def test_cos_state_even_sin_state_odd(self, solved, m):
        _, result = solved
        if m == 0:
            values = result.states[0].values
            np.testing.assert_allclose(_mirror(values), values, atol=1e-12)
            return
        cos_state = result.states[2 * m - 1].values
        sin_state = result.states[2 * m].values
        np.testing.assert_allclose(_mirror(cos_state), cos_state, atol=1e-12)
        np.testing.assert_allclose(_mirror(sin_state), -sin_state, atol=1e-12)
