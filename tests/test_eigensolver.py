import math

import numpy as np
import pytest
import scipy.linalg

from qnodes import (
    Box,
    ConfigError,
    Constants,
    ConvergenceError,
    GridError,
    GridSpec,
    Hamiltonian,
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
from qnodes.eigensolver import _BISECTION_TOL, _apply, _lowest_tridiagonal, _parity_pairs
from qnodes.grids import quad


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
            norm = quad(state.grid, np.abs(state.values) ** 2)
            assert norm == pytest.approx(1.0, abs=1e-10)
            lead = np.flatnonzero(np.abs(state.values) > 1e-8)[0]
            assert state.values[lead] > 0

    def test_orthogonality(self, osc_result):
        _, result = osc_result
        for i in range(len(result.states)):
            for j in range(i + 1, len(result.states)):
                overlap = quad(
                    result.states[i].grid,
                    np.conj(result.states[i].values) * result.states[j].values,
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
            norm = quad(psi.grid, np.abs(psi.values) ** 2)
            assert norm == pytest.approx(1.0, abs=1e-8)

    def test_out_of_range_index(self, box_result):
        spec, result = box_result
        with pytest.raises(GridError):
            eigen_uncertainties(spec, result, 11)


class TestSolverFailure:
    @pytest.mark.parametrize("spec", [Box(), Ring(), Oscillator()])
    def test_lapack_failure_is_a_convergence_error(self, monkeypatch, spec):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("eigenvalue 3 did not converge")

        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", fail)
        ham = build_hamiltonian(spec, default_eigen_grid(spec, 4))
        with pytest.raises(ConvergenceError, match="did not converge"):
            solve_lowest(ham, 4)

    @pytest.mark.parametrize("k", [0, -1])
    def test_no_levels_requested_is_config_error(self, k):
        ham = build_hamiltonian(Box(), GridSpec(0.0, 1.0, 11, "dirichlet"))
        with pytest.raises(ConfigError, match=f"requested {k} eigenpairs"):
            solve_lowest(ham, k)


def _dense_energies(ham):
    """Ascending spectrum of the full matrix, periodic corners included."""
    n = ham.diagonal.size
    coupling = np.eye(n, k=1) + (np.eye(n, k=n - 1) if ham.periodic else 0.0)
    mat = np.diag(ham.diagonal) + ham.off_diagonal * (coupling + coupling.T)
    return np.linalg.eigh(mat)[0]


def _mirror(values, periodic=True):
    """Samples of the mirrored function: on a periodic grid f(-theta),
    point j -> N - j; on a box or oscillator grid f(a - x) or f(-x),
    point j -> N - 1 - j."""
    if not periodic:
        return values[::-1]
    return values[(-np.arange(values.size)) % values.size]


class TestRingParitySolve:
    """The even/odd block solve against a dense reference, on any N >= 3."""

    @pytest.mark.parametrize("points", [3, 4, 5, 8, 63, 64, 1001, 1024])
    def test_energies_match_dense_reference(self, points):
        ham = build_hamiltonian(Ring(), GridSpec(0.0, 2.0 * np.pi, points, "periodic"))
        reference = _dense_energies(ham)
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
    """Definite-m states from the parity pairs; records off natural units."""

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
        mean, spread, _ = ring_lz_by_quadrature(psi)
        assert mean == pytest.approx(m, abs=1e-8)
        assert spread <= 1e-8
        assert count_nodes(psi).count == 2 * abs(m)
        rec = eigen_uncertainties(spec, result, m)
        assert rec.nodes_measured == 2 * abs(m)
        assert rec.delta_p <= 1e-8 * self.HBAR

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


def _open_hamiltonian(spec, points):
    return build_hamiltonian(spec, default_eigen_grid(spec, points=points))


OPEN_CHAINS = [(Box(), p) for p in (3, 5, 7, 9, 65, 2001)] + [
    (Oscillator(), p) for p in (5, 7, 65, 2001)
]


def _chain_id(case):
    spec, points = case
    return f"{type(spec).__name__.lower()}-{points}"


class TestMirrorParitySolve:
    """The box and oscillator even/odd block solve against a dense reference."""

    @pytest.fixture(scope="class", params=OPEN_CHAINS, ids=_chain_id)
    def chain(self, request):
        spec, points = request.param
        ham = _open_hamiltonian(spec, points)
        dim = ham.diagonal.size
        reference = _dense_energies(ham)
        scale = max(float(np.max(np.abs(reference))), 1.0)
        return ham, reference, scale, solve_lowest(ham, dim)

    def test_energies_match_dense_reference(self, chain):
        ham, reference, scale, _ = chain
        dim = ham.diagonal.size
        # every k up to 65 points; the edges, both parities of k and the
        # benchmark's 40 levels on the 2001-point grids
        ks = range(1, dim + 1) if dim <= 65 else (1, 2, 3, 21, 40, dim)
        for k in ks:
            result = solve_lowest(ham, k)
            assert len(result.states) == k
            np.testing.assert_allclose(
                result.energies, reference[:k], rtol=0.0, atol=1e-12 * scale
            )

    def test_states_alternate_even_odd(self, chain):
        ham, _, _, result = chain
        for j, state in enumerate(result.states):
            expected = -state.values if j % 2 else state.values
            np.testing.assert_allclose(
                _mirror(state.values, periodic=False), expected, atol=1e-12
            )

    def test_energies_ascend(self, chain):
        ham, _, scale, result = chain
        dim = ham.diagonal.size
        steps = np.diff(result.energies)
        # the levels a grid resolves (two or more samples per half-wave)
        # ascend strictly; at the top of a coarse oscillator grid, states
        # sit at the two far edges and form doublets split below
        # roundoff, so there the order holds to roundoff only
        assert np.all(steps[: max(dim // 2 - 1, 0)] > 0.0)
        assert np.all(steps >= -1e-12 * scale)
        if ham.grid.boundary == "dirichlet":
            assert np.all(steps > 0.0)

    def test_state_j_has_j_nodes(self, chain):
        ham, _, _, result = chain
        dim = ham.diagonal.size
        for j in range(dim // 2):
            assert count_nodes(result.states[j]).count == j

    @pytest.mark.parametrize("spec", [Box(), Oscillator()], ids=["box", "oscillator"])
    def test_asymmetric_diagonal_fails_the_residual_check(self, spec):
        # the fold reads only the left half of the diagonal; the residual
        # on the full operator is what catches a matrix without the mirror
        ham = _open_hamiltonian(spec, 65)
        grid = ham.grid
        x = grid.x[1:-1] if grid.boundary == "dirichlet" else grid.x
        skewed = Hamiltonian(grid, ham.diagonal + 0.5 * x)
        with pytest.raises(ConvergenceError, match="residual"):
            solve_lowest(skewed, 4)


class TestExactDiscreteSpectrum:
    def test_box_levels_match_discrete_eigenvalues(self):
        # the 3-point Laplacian with Dirichlet walls has the exact spectrum
        # (2/h^2) sin^2(n pi h / 2); the solver must reach it to the
        # bisection's absolute tolerance eps ||H||_1, which separates
        # solver error from the O(h^2) discretization gap
        ham = build_hamiltonian(Box(), default_eigen_grid(Box()))
        assert ham.diagonal.size == 1999
        h = ham.grid.h
        n = np.arange(1, 41)
        exact = (2.0 / h**2) * np.sin(n * np.pi * h / 2.0) ** 2
        norm1 = float(np.max(np.abs(ham.diagonal))) + 2.0 * abs(ham.off_diagonal)
        result = solve_lowest(ham, 40)
        np.testing.assert_allclose(
            result.energies, exact, rtol=0.0, atol=np.finfo(float).eps * norm1
        )


class TestZeroEnergyFloor:
    """Ring m = 0 has energy exactly 0; its computed digits are roundoff."""

    @pytest.mark.parametrize("points", [1023, 1024])
    @pytest.mark.parametrize("k", [1, 5, 21])
    def test_ring_ground_energy_is_zero(self, points, k):
        ham = build_hamiltonian(Ring(), default_eigen_grid(Ring(), points=points))
        result = solve_lowest(ham, k)
        assert result.energies[0] == 0.0
        assert np.all(result.energies[1:] > 0.4)
        # the floor is reported after the residual check on the raw energy
        assert result.residuals[0] < 1e-8

    def test_sweep_eigen_row_reports_zero(self):
        from qnodes.report import SweepConfig, run_sweep

        rows = run_sweep(SweepConfig(system=Ring(), levels=(-2, -1, 0, 1, 2), paths=("eigen",)))
        energies = {row.level: row.energy for row in rows}
        assert energies[0] == 0.0
        assert energies[1] > 0.4 and energies[-1] > 0.4

    @pytest.mark.parametrize("points", [1023, 1024])
    def test_floor_is_the_bisected_blocks_norm(self, points):
        # each block's floor is eps ||T||_1, its Rayleigh quotients' roundoff;
        # the even block's sqrt 2 couplings make its norm (3 + sqrt 2) t, not
        # the full ring's 4 t
        ham = build_hamiltonian(Ring(), default_eigen_grid(Ring(), points=points))
        t, eps = -ham.off_diagonal, np.finfo(float).eps
        energies, _, floors = _parity_pairs(ham, 5)
        assert floors[0] == pytest.approx(eps * (3.0 + math.sqrt(2.0)) * t, rel=1e-15)
        assert floors[2] == pytest.approx(eps * 4.0 * t, rel=1e-15)
        np.testing.assert_array_equal(floors[1::2], floors[0])
        assert abs(energies[0]) <= floors[0]


# (system, levels, grid points or None for the default eigen grid)
_BISECTION_CASES = [
    (Box(), 40, None), (Box(), 200, None), (Box(), 1999, None), (Box(), 9, 11),
    (Box(), 40, 20001), (Oscillator(), 201, None), (Oscillator(), 41, 20001),
    (Oscillator(), 15, 31), (Oscillator(), 2001, 2001), (Ring(), 1, None), (Ring(), 3, None),
    (Ring(), 21, None), (Ring(), 8, 8), (Ring(), 1024, 1024), (Ring(), 201, 4096),
]


def _case_id(case):
    spec, k, points = case
    return f"{type(spec).__name__.lower()}-k{k}-{points or 'default'}"


def _parity_blocks(monkeypatch, ham, k):
    """(diagonal, off-diagonal, level count) of each block `_parity_pairs` solves."""
    real, blocks = scipy.linalg.eigh_tridiagonal, []

    def spy(diagonal, off, **kwargs):
        blocks.append((diagonal.copy(), off.copy(), kwargs["select_range"][1] + 1))
        return real(diagonal, off, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(scipy.linalg, "eigh_tridiagonal", spy)
        _parity_pairs(ham, k)
    return blocks


class TestNaturalUnitBisection:
    """Blocks are bisected to `_BISECTION_TOL`, not to eps ||T||_1, and their
    energies are the Rayleigh quotients of the inverse-iteration vectors."""

    @pytest.mark.parametrize("case", _BISECTION_CASES, ids=_case_id)
    def test_blocks_match_the_full_tolerance_bisection(self, monkeypatch, case):
        spec, k, points = case
        ham = build_hamiltonian(spec, default_eigen_grid(spec, k, points))
        for diagonal, off, count in _parity_blocks(monkeypatch, ham, k):
            energies, vecs, floor = _lowest_tridiagonal(diagonal, off, count)
            ref_e, ref_v = scipy.linalg.eigh_tridiagonal(
                diagonal, off, select="i", select_range=(0, count - 1)
            )
            vecs = vecs * np.sign(np.sum(vecs * ref_v, axis=0))
            assert np.max(np.abs(vecs - ref_v)) <= 1e-10
            # the reference bisection and the quotient are each within about
            # eps ||T||_1 of the true level (1.1 and 0.4 floors on the full
            # 1999-unknown box), so they may differ by up to twice that
            assert np.max(np.abs(energies - ref_e)) <= 2.0 * floor

    @pytest.mark.parametrize(
        "case", [c for c in _BISECTION_CASES if not isinstance(c[0], Oscillator)], ids=_case_id
    )
    def test_energies_meet_the_exact_discrete_spectrum(self, case):
        # box (2/h^2) sin^2(n pi h / 2); ring (2/h^2) sin^2(m h / 2), each
        # |m| > 0 twice, as [m = 0, cos 1, sin 1, ...]; the formula itself
        # carries a few eps of relative roundoff near the top of the band
        spec, k, points = case
        ham = build_hamiltonian(spec, default_eigen_grid(spec, k, points))
        h = ham.grid.h
        if isinstance(spec, Box):
            modes = np.arange(1, k + 1) * np.pi * h / 2.0
        else:
            modes = ((np.arange(k) + 1) // 2) * h / 2.0
        exact = (2.0 / h**2) * np.sin(modes) ** 2
        norm1 = float(np.max(np.abs(ham.diagonal))) + 2.0 * abs(ham.off_diagonal)
        energies = solve_lowest(ham, k).energies
        eps = np.finfo(float).eps
        np.testing.assert_allclose(energies, exact, rtol=4.0 * eps, atol=eps * norm1)

    def test_fine_box_spectrum_beats_the_bisection(self):
        # on 20001 points eps ||T||_1 is 1.8e-7; the full-tolerance bisection
        # was 0.40 of that off the exact levels, the quotients are 1e-4 of it
        ham = build_hamiltonian(Box(), default_eigen_grid(Box(), points=20001))
        h = ham.grid.h
        exact = (2.0 / h**2) * np.sin(np.arange(1, 41) * np.pi * h / 2.0) ** 2
        norm1 = float(np.max(np.abs(ham.diagonal))) + 2.0 * abs(ham.off_diagonal)
        result = solve_lowest(ham, 40)
        np.testing.assert_allclose(
            result.energies, exact, rtol=0.0, atol=0.25 * np.finfo(float).eps * norm1
        )

    def test_tolerance_is_absolute_in_natural_units(self, monkeypatch):
        real, seen = scipy.linalg.eigh_tridiagonal, []

        def spy(*args, **kwargs):
            seen.append(kwargs["tol"])
            return real(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", spy)
        for points in (11, 2001, 20001):
            solve_lowest(build_hamiltonian(Box(), default_eigen_grid(Box(), points=points)), 4)
        assert seen == [_BISECTION_TOL] * 6


class TestConstantNullVector:
    """A zero energy on an operator that maps the constant to exactly zero
    is taken as the constant itself."""

    @pytest.mark.parametrize("points", [8, 9, 1023, 1024])
    @pytest.mark.parametrize("k", [1, 3, 21])
    def test_ring_ground_state_is_exactly_constant(self, points, k):
        ham = build_hamiltonian(Ring(), default_eigen_grid(Ring(), points=points))
        k = min(k, points)
        result = solve_lowest(ham, k)
        ground = result.states[0].values
        assert result.energies[0] == 0.0 and result.residuals[0] == 0.0
        assert np.all(ground == ground[0]) and ground[0] > 0.0

    def test_floored_level_without_a_constant_null_vector_keeps_its_vector(self):
        # the box shifted so that its ground level sits at zero: the energy
        # is floored, but the walls keep the constant from being a null vector
        ham = build_hamiltonian(Box(), default_eigen_grid(Box(), points=201))
        h = ham.grid.h
        shifted = Hamiltonian(ham.grid, ham.diagonal - (2.0 / h**2) * np.sin(np.pi * h / 2.0) ** 2)
        assert np.any(_apply(shifted, np.ones(shifted.diagonal.size)))
        result = solve_lowest(shifted, 3)
        assert result.energies[0] == 0.0
        np.testing.assert_allclose(
            result.states[0].values, np.sqrt(2.0) * np.sin(np.pi * ham.grid.x), atol=1e-12
        )
