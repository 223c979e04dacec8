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
from qnodes.eigensolver import (
    _BISECTION_TOL,
    _GRID_ERROR,
    _GUARD_LEVELS,
    _KINETIC_2,
    _MAX_EIGEN_POINTS,
    _RESIDUAL_TOL,
    _Mirror,
    _apply,
    _bisect,
    _parity_pairs,
)
from qnodes.grids import quad

# -(1/2) d^2/dq^2 to order 6, times 360 h^2, at offsets 0, 1, 2, 3
_ORDER6 = np.array([490.0, -270.0, 27.0, -2.0])


def _order6_levels(theta, h):
    """The order-6 operator's eigenvalue on the mode of phase step theta:
    its symbol (490 - 540 cos theta + 54 cos 2 theta - 4 cos 3 theta) / (360 h^2),
    written with 1 - cos d theta = 2 sin^2(d theta / 2), which does not
    cancel to roundoff at small theta."""
    s = np.sin
    return (270.0 * s(theta / 2) ** 2 - 27.0 * s(theta) ** 2 + 2.0 * s(1.5 * theta) ** 2) / (90.0 * h**2)


def _three_point_norm1(ham):
    """||T||_1 of the three-point operator `_KINETIC_2` + V: the spectrum
    tests' absolute tolerances are eps ||T||_1."""
    stencil, denominator = _KINETIC_2
    scale = 1.0 / (denominator * ham.grid.h**2)
    couplings = (abs(stencil[0]) + abs(stencil[2])) * scale
    return float(np.max(np.abs(stencil[1] * scale + ham.potential))) + couplings


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


class TestDefaultEigenGrid:
    """The fewest 2^p intervals whose order-6 error (kappa h)^6 / 560 at the
    top level meets `_GRID_ERROR`."""

    @pytest.mark.parametrize(
        "spec, k, points",
        [(Box(), 40, 1025), (Box(), 100, 4097), (Ring(), 21, 512), (Ring(), 41, 1024),
         (Ring(), 1, 64), (Oscillator(), 41, 2049), (Oscillator(), 21, 2049),
         (Oscillator(), 6, 1025), (Oscillator(), 201, 8193)],
        ids=["box-40", "box-100", "ring-21", "ring-41", "ring-1", "oscillator-41",
             "oscillator-21", "oscillator-6", "oscillator-201"],
    )
    def test_rule_sizes(self, spec, k, points):
        grid = default_eigen_grid(spec, k)
        assert grid.points == points
        # the oscillator's mean wavenumber over a classical orbit of p_max
        p_max = math.sqrt(2 * k + 1)
        kappa = {Box: k * np.pi, Ring: max(k // 2, 1), Oscillator: (35 / 128) ** (1 / 6) * p_max}
        kappa = kappa[type(spec)]
        # the error target is met, and not on half as many intervals
        assert (kappa * grid.h) ** 6 / 560.0 <= _GRID_ERROR < (2.0 * kappa * grid.h) ** 6 / 560.0

    @pytest.mark.parametrize("k", [1, 6, 11, 21, 41])
    def test_oscillator_rule_meets_the_error_target(self, k):
        # the classical-orbit estimate holds for the solved levels: the
        # wavenumber sqrt(k + 1/2) of <p^2> would give k = 21 only 1025
        # points, and an error of 1.8e-8
        spec = Oscillator()
        result = solve_lowest(build_hamiltonian(spec, default_eigen_grid(spec, k)), k)
        exact = np.arange(k) + 0.5
        assert np.max(np.abs(result.energies - exact) / exact) <= _GRID_ERROR

    @pytest.mark.parametrize("spec", [Box(), Ring(), Oscillator()], ids=["box", "ring", "oscillator"])
    def test_grid_points_override_the_rule(self, spec):
        points = 1001 if spec.__class__ is not Ring else 1000
        assert default_eigen_grid(spec, 40, points).points == points
        assert default_eigen_grid(spec, 4000, points).points == points

    def test_oscillator_extent_is_unchanged(self):
        assert default_eigen_grid(Oscillator(), 6).upper == 12.0
        assert default_eigen_grid(Oscillator(), 40).upper == math.sqrt(81.0) + 8.0

    @pytest.mark.parametrize(
        "spec, k, message",
        [(Box(), 700, "box eigen grid for 700 levels needs 32769 points"),
         (Ring(), 1201, "ring eigen grid for 1201 levels needs 32768 points"),
         (Oscillator(), 500, "oscillator eigen grid for 500 levels needs 16385 points")],
        ids=["box", "ring", "oscillator"],
    )
    def test_rule_above_the_cap_is_a_grid_error(self, spec, k, message):
        with pytest.raises(GridError, match=f"{message}, above the limit of {_MAX_EIGEN_POINTS}"):
            default_eigen_grid(spec, k)


class TestBuildHamiltonian:
    def test_box_structure(self):
        ham = build_hamiltonian(Box(), GridSpec(0.0, 1.0, 11, "dirichlet"))
        # walls excluded: 9 interior unknowns, zero potential
        assert ham.potential.shape == (9,)
        assert not ham.potential.any()
        assert not ham.periodic
        h = 0.1
        # the three-point operator's blocks, which label the levels: 1/h^2
        # on the diagonal, -1/(2 h^2) couplings (sqrt 2 times that into the
        # self-mirrored middle unknown), nothing beyond them: each block is
        # the whole three-point matrix folded onto its unit vectors
        mirror = _Mirror(9, False)
        even, odd = mirror.bands(ham)
        chain = (np.eye(9) - 0.5 * np.eye(9, k=1) - 0.5 * np.eye(9, k=-1)) / h**2
        for block, parity in ((even, False), (odd, True)):
            np.testing.assert_allclose(block[1], 1.0 / h**2)
            np.testing.assert_array_equal(block[0, 1:], block[2, :-1])
            dense = np.diag(block[1]) + np.diag(block[0, 1:], 1) + np.diag(block[2, :-1], -1)
            units = mirror.unfold(np.eye(block.shape[1]), parity)
            np.testing.assert_allclose(dense, units @ chain @ units.T, rtol=0.0, atol=1e-12 / h**2)
        np.testing.assert_allclose(even[2, :-1], [-0.5 / h**2] * 3 + [-math.sqrt(0.5) / h**2])
        np.testing.assert_allclose(odd[2, :-1], -0.5 / h**2)

    def test_ring_corner_coupling(self):
        ham = build_hamiltonian(Ring(), GridSpec(0.0, 2.0 * np.pi, 8, "periodic"))
        assert ham.periodic
        v = np.zeros(8)
        v[0] = 1.0
        out = _apply(ham, v) * (360.0 * ham.grid.h**2)
        # the seven-point stencil wraps around both ends
        np.testing.assert_allclose(out, [490, -270, 27, -2, 0, -2, 27, -270], rtol=1e-14)
        assert out[-1] == out[1] and out[-3] == out[3]

    @pytest.mark.parametrize("points", [3, 5, 9, 65])
    def test_box_ghost_points_make_sine_modes_exact(self, points):
        # odd reflection in the walls: every sine mode is an eigenvector,
        # with the stencil's symbol as its eigenvalue
        grid = GridSpec(0.0, 1.0, points, "dirichlet")
        ham = build_hamiltonian(Box(), grid)
        n = np.arange(1, points - 1)
        modes = np.sin(np.pi * n[:, None] * grid.x[1:-1])
        expected = _order6_levels(n * np.pi * grid.h, grid.h)[:, None] * modes
        np.testing.assert_allclose(_apply(ham, modes), expected, atol=1e-12 * expected.max())

    def test_oscillator_potential_on_diagonal(self):
        grid = GridSpec(-12.0, 12.0, 101, "open")
        ham = build_hamiltonian(Oscillator(), grid)
        np.testing.assert_array_equal(ham.potential, 0.5 * grid.x**2)
        # unknowns 0 .. 50 carry the blocks; each block diagonal is 1/h^2 + V
        kinetic = 1.0 / grid.h**2
        even, odd = _Mirror(101, False).bands(ham)
        np.testing.assert_allclose(even[1] - kinetic, 0.5 * grid.x[:51] ** 2, atol=1e-12)
        np.testing.assert_allclose(odd[1] - kinetic, 0.5 * grid.x[:50] ** 2, atol=1e-12)

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
        # order 6, observed on grids coarse enough that the error of level 3
        # (1.2e-6 and 1.8e-8) sits far above the roundoff floor (~1e-13)
        spec = Box()
        errs = []
        for points in (33, 32 * factor + 1):
            grid = GridSpec(0.0, spec.length, points, "dirichlet")
            res = solve_lowest(build_hamiltonian(spec, grid), 3)
            errs.append(abs(res.energies[2] - box_energy(spec, 3)) / box_energy(spec, 3))
        assert errs[1] > 1e-10
        assert math.log(errs[0] / errs[1], factor) >= 5.0


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

    def test_rayleigh_ritz_failure_is_a_convergence_error(self, monkeypatch):
        # only the oscillator's blocks take the step's dense eigensolve
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("the algorithm failed to converge")

        monkeypatch.setattr(scipy.linalg, "eigh", fail)
        ham = build_hamiltonian(Oscillator(), default_eigen_grid(Oscillator(), 4))
        with pytest.raises(ConvergenceError, match="Rayleigh-Ritz eigensolver failed: the algorithm"):
            solve_lowest(ham, 4)

    @pytest.mark.parametrize("k", [0, -1])
    def test_no_levels_requested_is_config_error(self, k):
        ham = build_hamiltonian(Box(), GridSpec(0.0, 1.0, 11, "dirichlet"))
        with pytest.raises(ConfigError, match=f"requested {k} eigenpairs"):
            solve_lowest(ham, k)


def _dense_energies(ham):
    """Ascending spectrum of the full order-6 matrix, built from its
    stencil: circulant on the ring, with odd-reflection ghost points f(-p)
    = -f(p) and f(J + p) = -f(J - p) between the box's walls (unknown u is
    point u + 1 of J = n + 1 intervals), truncated on the oscillator."""
    n = ham.potential.size
    i, j = np.indices((n, n))

    def weight(offset):
        return np.where(np.abs(offset) <= 3, _ORDER6[np.minimum(np.abs(offset), 3)], 0.0)

    if ham.periodic:
        kinetic = sum(weight(i - j + s * n) for s in range(-2, 3))
    elif ham.grid.boundary == "dirichlet":
        kinetic = weight(i - j) - weight(i + j + 2) - weight(2 * n - i - j)
    else:
        kinetic = weight(i - j)
    mat = kinetic / (360.0 * ham.grid.h**2) + np.diag(ham.potential)
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

# The order-6 operator is not a Jacobi matrix: on 5 and 7 points (h = 6 and
# 4, wider than the oscillator's ground state) its next-nearest couplings,
# of the other sign, give each of its eigenvectors sign changes at the far
# edges, so the node law is a property of the states a grid resolves.
_UNRESOLVED = {("oscillator", 5), ("oscillator", 7)}


def _chain_id(case):
    spec, points = case
    return f"{type(spec).__name__.lower()}-{points}"


class TestMirrorParitySolve:
    """The box and oscillator even/odd block solve against a dense reference."""

    @pytest.fixture(scope="class", params=OPEN_CHAINS, ids=_chain_id)
    def chain(self, request):
        spec, points = request.param
        ham = _open_hamiltonian(spec, points)
        dim = ham.potential.size
        reference = _dense_energies(ham)
        scale = max(float(np.max(np.abs(reference))), 1.0)
        return ham, reference, scale, solve_lowest(ham, dim)

    def test_energies_match_dense_reference(self, chain):
        ham, reference, scale, _ = chain
        dim = ham.potential.size
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
        result = chain[3]
        for j, state in enumerate(result.states):
            expected = -state.values if j % 2 else state.values
            np.testing.assert_allclose(
                _mirror(state.values, periodic=False), expected, atol=1e-12
            )

    def test_energies_ascend(self, chain):
        ham, _, scale, result = chain
        dim = ham.potential.size
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
        dim = ham.potential.size
        grid = ham.grid
        system = {"dirichlet": "box", "open": "oscillator"}[grid.boundary]
        for j in range(0 if (system, grid.points) in _UNRESOLVED else dim // 2):
            assert count_nodes(result.states[j]).count == j

    @pytest.mark.parametrize("spec", [Box(), Oscillator()], ids=["box", "oscillator"])
    def test_asymmetric_diagonal_fails_the_residual_check(self, spec):
        # the fold reads only the left half of the diagonal; the residual
        # on the full operator is what catches a matrix without the mirror
        ham = _open_hamiltonian(spec, 65)
        grid = ham.grid
        x = grid.x[1:-1] if grid.boundary == "dirichlet" else grid.x
        skewed = Hamiltonian(grid, ham.potential + 0.5 * x)
        with pytest.raises(ConvergenceError, match="residual"):
            solve_lowest(skewed, 4)

    @pytest.mark.parametrize("spec, k", [
        (Box(), 40), (Ring(), 21), (Oscillator(), 6), (Oscillator(), 21), (Oscillator(), 41),
        (Oscillator(), 201),
    ], ids=["box", "ring", "oscillator-6", "oscillator-21", "oscillator-41", "oscillator-201"])
    def test_only_the_oscillator_refines(self, monkeypatch, spec, k):
        # box and ring three-point vectors are discrete sine and Fourier
        # modes, eigenvectors of the order-6 operator too: their residuals
        # meet the tolerance with no Rayleigh-Ritz step.  On its default
        # grid each oscillator block takes one step, on its own levels and
        # `_GUARD_LEVELS` more, which meets the tolerance with a margin of
        # 100; nothing solves a banded system.
        real, solves = scipy.linalg.solve_banded, []

        def spy(*args, **kwargs):
            solves.append(args[1].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "solve_banded", spy)
        steps = _spy_ritz(monkeypatch)
        result = solve_lowest(build_hamiltonian(spec, default_eigen_grid(spec, k)), k)
        assert not solves
        if isinstance(spec, Oscillator):
            assert steps == [(k + 1) // 2 + _GUARD_LEVELS, k // 2 + _GUARD_LEVELS]
        else:
            assert not steps
        tol = _RESIDUAL_TOL * np.max(np.abs(result.energies))
        assert np.all(result.residuals <= 1e-2 * tol)

    def test_only_a_coarse_grids_top_is_solved_dense(self, monkeypatch):
        # 65 points on [-12, 12] (h = 0.375): the 6- and 12-level guards
        # leave the 13 lowest oscillator levels residuals of up to 2e5 and
        # 30 times the tolerance, the 24-level one 1e-5 of it: the guard
        # doubles until it meets it, below the whole block of 33 or 32.
        # Where the first step spans the whole block already, it is the
        # only step, the block's dense order-6 solve (every k meets the
        # dense order-6 spectrum: `test_energies_match_dense_reference`).
        ham = _open_hamiltonian(Oscillator(), 65)
        steps = _spy_ritz(monkeypatch)
        solve_lowest(ham, 13)
        assert not {33, 32} & set(steps)
        assert steps == [count + (_GUARD_LEVELS << i) for count in (7, 6) for i in range(3)]
        steps.clear()
        solve_lowest(ham, 65)
        assert steps == [33, 32]
        # on 513 points (h = 0.047) the first guard step meets the tolerance
        steps.clear()
        solve_lowest(_open_hamiltonian(Oscillator(), 513), 13)
        assert steps == [7 + _GUARD_LEVELS, 6 + _GUARD_LEVELS]

    def test_a_coarser_grid_than_the_rule_doubles_the_guard_once(self, monkeypatch):
        # k = 100 on 1025 points, half the rule's 2049: the 6-level guard
        # leaves residuals of 50 times the tolerance, the 12-level one
        # 3e-4 of it; no step spans a whole block of 513 or 512 levels
        spec = Oscillator()
        ham = build_hamiltonian(spec, default_eigen_grid(spec, 100, points=1025))
        steps = _spy_ritz(monkeypatch)
        result = solve_lowest(ham, 100)
        assert steps == [50 + (_GUARD_LEVELS << i) for i in range(2)] * 2
        tol = _RESIDUAL_TOL * np.max(np.abs(result.energies))
        assert np.all(result.residuals <= 1e-2 * tol)


def _spy_ritz(monkeypatch):
    """The basis sizes of the Rayleigh-Ritz steps `solve_lowest` takes from
    now on, one dense eigensolve each."""
    real, sizes = scipy.linalg.eigh, []

    def spy(a, *args, **kwargs):
        sizes.append(len(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", spy)
    return sizes


class TestExactDiscreteSpectrum:
    def test_box_levels_match_discrete_eigenvalues(self):
        # the order-6 Laplacian with odd-reflection walls has the exact
        # spectrum `_order6_levels(n pi h, h)`; the solver must reach it to
        # eps ||T||_1 of the three-point operator, which separates solver
        # error from the O(h^6) discretization gap
        ham = build_hamiltonian(Box(), default_eigen_grid(Box(), 40))
        assert ham.potential.size == 1023
        h = ham.grid.h
        n = np.arange(1, 41)
        exact = _order6_levels(n * np.pi * h, h)
        norm1 = _three_point_norm1(ham)
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
    def test_floor_is_the_operators_norm(self, points):
        # the floor is eps ||H||_1, the order-6 Rayleigh quotients'
        # roundoff: each row of the ring's stencil sums |weights| to 1088
        ham = build_hamiltonian(Ring(), default_eigen_grid(Ring(), points=points))
        eps = np.finfo(float).eps
        energies, rows, _, floor = _parity_pairs(ham, 5)
        assert floor == pytest.approx(eps * 1088.0 / (360.0 * ham.grid.h**2), rel=1e-15)
        # the raw quotient of the bisected m = 0 vector is within it
        ground = _bisected_ground(ham)
        assert abs(float(ground @ _apply(ham, ground))) <= floor
        assert energies[0] == 0.0


def _bisected_ground(ham):
    """The unit vector inverse iteration gives the ring's even block's lowest
    three-point level, unfolded."""
    mirror = _Mirror(ham.potential.size, ham.periodic)
    even, _ = mirror.bands(ham)
    _, vecs = _bisect(even, 0, 1)
    return mirror.unfold(vecs, False)[0]


# (system, levels, grid points or None for the default eigen grid)
_BISECTION_CASES = [
    (Box(), 40, None), (Box(), 200, None), (Box(), 1999, 2001), (Box(), 9, 11),
    (Box(), 40, 20001), (Oscillator(), 201, None), (Oscillator(), 41, 20001),
    (Oscillator(), 15, 31), (Oscillator(), 2001, 2001), (Ring(), 1, None), (Ring(), 3, None),
    (Ring(), 21, None), (Ring(), 8, 8), (Ring(), 1024, 1024), (Ring(), 201, 4096),
]


def _case_id(case):
    spec, k, points = case
    return f"{type(spec).__name__.lower()}-k{k}-{points or 'default'}"


def _parity_blocks(monkeypatch, ham, k):
    """(diagonal, off-diagonal, level index range, coarse levels, vectors) of
    each bisection `_parity_pairs` runs on a three-point block, as the
    bisection returned them."""
    real, blocks = scipy.linalg.eigh_tridiagonal, []

    def spy(diagonal, off, **kwargs):
        coarse, vecs = real(diagonal, off, **kwargs)
        levels = kwargs["select_range"]
        blocks.append((diagonal.copy(), off.copy(), levels, coarse.copy(), vecs.copy()))
        return coarse, vecs

    with monkeypatch.context() as patch:
        patch.setattr(scipy.linalg, "eigh_tridiagonal", spy)
        _parity_pairs(ham, k)
    return blocks


def _tridiagonal_quotients(diagonal, off, shifts, vecs):
    """Rayleigh quotients w + v.(T - w)v / v.v of the columns of `vecs`
    about `shifts`, and eps ||T||_1, their roundoff floor."""
    gap = diagonal[:, None] * vecs
    gap[:-1] += off[:, None] * vecs[1:]
    gap[1:] += off[:, None] * vecs[:-1]
    gap -= shifts * vecs
    energies = shifts + np.einsum("ij,ij->j", vecs, gap) / np.einsum("ij,ij->j", vecs, vecs)
    rows = np.abs(diagonal) + np.pad(np.abs(off), (0, 1)) + np.pad(np.abs(off), (1, 0))
    return energies, np.finfo(float).eps * float(rows.max())


class TestNaturalUnitBisection:
    """Blocks are bisected to `_BISECTION_TOL`, not to eps ||T||_1, and their
    energies are the order-6 Rayleigh quotients of the inverse-iteration
    vectors."""

    @pytest.mark.parametrize("case", _BISECTION_CASES, ids=_case_id)
    def test_blocks_match_the_full_tolerance_bisection(self, monkeypatch, case):
        spec, k, points = case
        ham = build_hamiltonian(spec, default_eigen_grid(spec, k, points))
        for diagonal, off, levels, coarse, vecs in _parity_blocks(monkeypatch, ham, k):
            ref_e, ref_v = scipy.linalg.eigh_tridiagonal(
                diagonal, off, select="i", select_range=levels
            )
            assert np.max(np.abs(coarse - ref_e)) <= _BISECTION_TOL
            vecs = vecs * np.sign(np.sum(vecs * ref_v, axis=0))
            assert np.max(np.abs(vecs - ref_v)) <= 1e-10
            # the reference bisection and the vectors' three-point quotients
            # are each within about eps ||T||_1 of the true level (1.1 and
            # 0.4 floors on the full 1999-unknown box), so they may differ
            # by up to twice that
            energies, floor = _tridiagonal_quotients(diagonal, off, coarse, vecs)
            assert np.max(np.abs(energies - ref_e)) <= 2.0 * floor

    @pytest.mark.parametrize(
        "case", [c for c in _BISECTION_CASES if not isinstance(c[0], Oscillator)], ids=_case_id
    )
    def test_energies_meet_the_exact_discrete_spectrum(self, case):
        # the order-6 symbol at theta = n pi h (box) or m h (ring, each
        # |m| > 0 twice, as [m = 0, cos 1, sin 1, ...]); the formula itself
        # carries a few eps of relative roundoff near the top of the band
        spec, k, points = case
        ham = build_hamiltonian(spec, default_eigen_grid(spec, k, points))
        h = ham.grid.h
        if isinstance(spec, Box):
            theta = np.arange(1, k + 1) * np.pi * h
        else:
            theta = ((np.arange(k) + 1) // 2) * h
        exact = _order6_levels(theta, h)
        norm1 = _three_point_norm1(ham)
        energies = solve_lowest(ham, k).energies
        eps = np.finfo(float).eps
        np.testing.assert_allclose(energies, exact, rtol=4.0 * eps, atol=eps * norm1)

    def test_fine_box_spectrum_beats_the_bisection(self):
        # on 20001 points eps ||T||_1 is 1.8e-7; a full-tolerance bisection
        # is about 0.4 of that off its levels, the quotients far less
        ham = build_hamiltonian(Box(), default_eigen_grid(Box(), points=20001))
        h = ham.grid.h
        exact = _order6_levels(np.arange(1, 41) * np.pi * h, h)
        norm1 = _three_point_norm1(ham)
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
        shifted = Hamiltonian(ham.grid, ham.potential - _order6_levels(np.pi * h, h))
        assert np.any(_apply(shifted, np.ones(shifted.potential.size)))
        result = solve_lowest(shifted, 3)
        assert result.energies[0] == 0.0
        np.testing.assert_allclose(
            result.states[0].values, np.sqrt(2.0) * np.sin(np.pi * ham.grid.x), atol=1e-12
        )
