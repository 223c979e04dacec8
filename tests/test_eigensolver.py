import math

import numpy as np
import pytest

from qnodes import (
    Box,
    ConfigError,
    Constants,
    ConvergenceError,
    DomainError,
    GridError,
    GridSpec,
    Hamiltonian,
    Oscillator,
    QnodesError,
    Ring,
    SampledFunction,
    SweepConfig,
    box_energy,
    build_hamiltonian,
    count_nodes,
    default_eigen_grid,
    eigen_uncertainties,
    oracle_uncertainties,
    oscillator_energy,
    ring_energy,
    ring_lz_by_quadrature,
    ring_momentum_state,
    run_sweep,
    sample_state,
    solve_lowest,
)
from qnodes import eigensolver
from qnodes.eigensolver import _MAX_EIGEN_POINTS, _Mirror, _parity_pairs, eigen_columns
from qnodes.grids import first_rows, quad
from qnodes.nodal import node_counts
from qnodes.oracle import columns_from_stack, default_grid

_EPS = np.finfo(float).eps


def _chain_matrix(ham):
    """The whole chain's matrix H, each kinetic entry read off T's column
    by `Hamiltonian.kinetic` on every index pair, with no fold."""
    i, j = np.indices((ham.potential.size,) * 2)
    return ham.kinetic(i, j) + np.diag(ham.potential)


def _exact_levels(ham):
    """Every level of the free box's or ring's discrete operator, ascending:
    (n pi)^2 / 2 for the sine modes n = 1 .. J - 1 between walls, m^2 / 2
    for the ring's Fourier modes (each 0 < |m| < N/2 twice, an even N's
    Nyquist m = N/2 once)."""
    grid = ham.grid
    if grid.boundary == "dirichlet":
        return (np.arange(1, grid.points - 1) * np.pi) ** 2 / 2.0
    m = np.abs(np.fft.fftfreq(grid.points, 1.0 / grid.points))
    return np.sort(m**2 / 2.0)


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


# every 2^a 3^b (a >= 1) up to the sizes of the 2049-point limit, and
# every power of two
_SMOOTH = sorted(2**a * 3**b for a in range(1, 13) for b in range(8))
_POWERS = [2**a for a in range(13)]
# the ring counts the rule may take within the 2049-point limit
_RING_SIZES = [s for s in _SMOOTH if 8 <= s <= 2048]


def _rule_size(spec, k):
    """(the box's intervals or the ring's points of the rule for k levels,
    the need it lies above, the fewest size the rule allows)."""
    grid = default_eigen_grid(spec, k)
    if isinstance(spec, Ring):
        return grid.points, 4 * (k // 2), 8
    return grid.points - 1, 2 * k, 4


class TestDefaultEigenGrid:
    """The box's fewest 2^a 3^b intervals above 2k (a >= 1, at least 4), the
    ring's fewest 2^a 3^b points above 4 floor(k/2) (a >= 1, at least 8),
    the oracle's grid for the oscillator's top level."""

    @pytest.mark.parametrize(
        "spec, k, points",
        [(Box(), 6, 17), (Box(), 40, 97), (Box(), 100, 217), (Box(), 347, 769),
         (Ring(), 1, 8), (Ring(), 21, 48), (Ring(), 41, 96), (Ring(), 347, 768),
         (Oscillator(), 6, 115), (Oscillator(), 41, 231), (Oscillator(), 201, 575)],
        ids=["box-6", "box-40", "box-100", "box-347", "ring-1", "ring-21", "ring-41", "ring-347",
             "oscillator-6", "oscillator-41", "oscillator-201"],
    )
    def test_rule_sizes(self, spec, k, points):
        grid = default_eigen_grid(spec, k)
        assert grid.points == points
        if isinstance(spec, Oscillator):
            assert grid == default_grid(spec, k - 1)
            return
        size, need, least = _rule_size(spec, k)
        assert size == max(min(s for s in _SMOOTH if s > need), least)

    @pytest.mark.parametrize("spec", [Box(), Ring()], ids=["box", "ring"])
    def test_rule_takes_the_fewest_smooth_size_up_to_the_limit(self, spec):
        # every box n <= 1023 and ring |m| <= 511: the fewest 2^a 3^b above
        # the need, and never more than the fewest power of two above it
        for k in range(1, 1024):
            size, need, least = _rule_size(spec, k)
            assert size == max(min(s for s in _SMOOTH if s > need), least), k
            assert size <= max(min(p for p in _POWERS if p > need), least), k

    @pytest.mark.parametrize("k", [1, 6, 11, 21, 41])
    def test_oscillator_default_grid_energies_meet_roundoff(self, k):
        spec = Oscillator()
        result = solve_lowest(build_hamiltonian(spec, default_eigen_grid(spec, k)), k)
        exact = np.arange(k) + 0.5
        assert np.max(np.abs(result.energies - exact) / exact) <= 1e-12

    @pytest.mark.parametrize("spec", [Box(), Ring(), Oscillator()], ids=["box", "ring", "oscillator"])
    def test_grid_points_override_the_rule(self, spec):
        points = 1001 if spec.__class__ is not Ring else 1000
        assert default_eigen_grid(spec, 40, points).points == points
        assert default_eigen_grid(spec, 4000, points).points == points

    def test_oscillator_takes_the_oracle_extent(self):
        assert default_eigen_grid(Oscillator(), 6).upper == math.sqrt(11.0) + 10.0
        assert default_eigen_grid(Oscillator(), 41, 1001).upper == math.sqrt(81.0) + 10.0

    @pytest.mark.parametrize(
        "spec, k, message",
        [(Box(), 1024, "box eigen grid for 1024 levels needs 2305 points"),
         (Ring(), 1024, "ring eigen grid for 1024 levels needs 2304 points"),
         (Oscillator(), 1092, "oscillator eigen grid for 1092 levels needs 2051 points")],
        ids=["box", "ring", "oscillator"],
    )
    def test_rule_above_the_cap_is_a_grid_error(self, spec, k, message):
        default_eigen_grid(spec, k - 1)
        with pytest.raises(GridError, match=f"{message}, above the limit of {_MAX_EIGEN_POINTS}"):
            default_eigen_grid(spec, k)

    def test_more_points_than_the_cap_raise_before_the_solve(self, monkeypatch):
        calls = []
        monkeypatch.setattr(np.linalg, "eigh", lambda *args: calls.append(args))
        grid = GridSpec(0.0, 1.0, _MAX_EIGEN_POINTS + 2, "dirichlet")
        message = f"a dense eigensolve on {grid.points} points is above the limit of 2049"
        with pytest.raises(GridError, match=message):
            solve_lowest(Hamiltonian(grid, np.zeros(grid.points - 2)), 1)
        assert calls == []


class TestBuildHamiltonian:
    @pytest.mark.parametrize("points", [3, 5, 9, 17])
    def test_box_kinetic_is_the_sine_dvr(self, points):
        # T = S diag((n pi)^2 / 2) S^T over the orthonormal sampled sine
        # modes n = 1 .. J - 1, J = points - 1: the walls are not unknowns
        ham = build_hamiltonian(Box(), GridSpec(0.0, 1.0, points, "dirichlet"))
        assert ham.potential.shape == (points - 2,) and not ham.potential.any()
        assert not ham.periodic
        intervals = points - 1
        n = np.arange(1, intervals)
        modes = math.sqrt(2.0 / intervals) * np.sin(np.pi * np.outer(n, n) / intervals)
        dvr = modes.T @ np.diag((n * np.pi) ** 2 / 2.0) @ modes
        chain = _chain_matrix(ham)
        np.testing.assert_allclose(chain, dvr, rtol=0.0, atol=8 * _EPS * ham.norm1)
        np.testing.assert_array_equal(np.diag(chain), ham.diagonal)

    @pytest.mark.parametrize("points", [3, 4, 5, 8])
    def test_ring_kinetic_is_the_fourier_grid_matrix(self, points):
        # T = F^-1 diag(m^2 / 2) F with the DFT matrix F written out
        ham = build_hamiltonian(Ring(), GridSpec(0.0, 2.0 * np.pi, points, "periodic"))
        assert ham.periodic
        m = np.fft.fftfreq(points, 1.0 / points)
        dft = np.exp(-2j * np.pi * np.outer(np.arange(points), np.arange(points)) / points)
        fourier = (dft.conj().T @ np.diag(m**2 / 2.0) @ dft).real / points
        chain = _chain_matrix(ham)
        np.testing.assert_allclose(chain, fourier, rtol=0.0, atol=8 * _EPS * ham.norm1)
        # the mirror theta -> -theta maps the corner coupling onto itself
        np.testing.assert_allclose(chain[0, -1], chain[0, 1], rtol=0.0, atol=8 * _EPS * ham.norm1)

    def test_oscillator_kinetic_is_the_fourier_grid_of_its_points(self):
        # the N open points taken as one period: the ring's matrix on N
        # points, rescaled from spacing 2 pi / N to h
        grid = GridSpec(-12.0, 12.0, 101, "open")
        ham = build_hamiltonian(Oscillator(), grid)
        np.testing.assert_array_equal(ham.potential, 0.5 * grid.x**2)
        ring = build_hamiltonian(Ring(), GridSpec(0.0, 2.0 * np.pi, 101, "periodic"))
        scaled = _chain_matrix(ring) * (ring.grid.h / grid.h) ** 2
        kinetic = _chain_matrix(ham) - np.diag(ham.potential)
        np.testing.assert_allclose(kinetic, scaled, rtol=0.0, atol=8 * _EPS * ham.norm1)
        np.testing.assert_array_equal(np.diag(_chain_matrix(ham)), ham.diagonal)

    def test_topology_mismatch(self):
        with pytest.raises(GridError):
            build_hamiltonian(Ring(), GridSpec(0.0, 1.0, 11, "dirichlet"))
        with pytest.raises(GridError):
            build_hamiltonian(Box(), GridSpec(0.0, 1.0, 8, "periodic"))


# Small chains for the fold: box and oscillator grids have an odd point
# count, so their n = 4j + 1 and 4j + 3 unknowns put the self-mirrored
# middle unknown in either parity of the even block's size; the ring's N
# is odd (m = 0 self-mirrored) or even (m = 0 and N/2)
FOLD_CHAINS = (
    [(Box(), p) for p in (5, 7, 9, 11)]
    + [(Oscillator(), p) for p in (5, 7, 9, 11)]
    + [(Ring(), p) for p in (5, 6, 7, 8)]
)


def _chain_id(case):
    spec, points = case
    return f"{type(spec).__name__.lower()}-{points}"


class TestFoldIsExact:
    """The even and odd blocks are the chain's matrix on the mirror's even
    and odd unit vectors, and together hold its whole spectrum."""

    @pytest.fixture(params=FOLD_CHAINS, ids=_chain_id)
    def chain(self, request):
        spec, points = request.param
        ham = build_hamiltonian(spec, default_eigen_grid(spec, points=points))
        return ham, _Mirror(ham.potential.size, ham.periodic)

    def test_blocks_are_the_folded_chain(self, chain):
        ham, mirror = chain
        matrix = _chain_matrix(ham)
        for odd in (False, True):
            units = mirror.unfold(np.eye(mirror.block(ham, odd).shape[0]), odd)
            np.testing.assert_allclose(units @ units.T, np.eye(len(units)), rtol=0.0, atol=1e-15)
            folded = units @ matrix @ units.T
            np.testing.assert_allclose(
                mirror.block(ham, odd), folded, rtol=0.0, atol=4 * _EPS * ham.norm1
            )

    def test_block_levels_are_the_chain_spectrum(self, chain):
        # the block solves and the reference each carry about eps ||H||_1
        ham, _ = chain
        n = ham.potential.size
        energies, _ = _parity_pairs(ham, n)
        reference = np.linalg.eigvalsh(_chain_matrix(ham))
        np.testing.assert_allclose(np.sort(energies), reference, rtol=0.0, atol=4 * _EPS * ham.norm1)

    def test_unfolded_vectors_have_their_blocks_parity(self, chain):
        ham, mirror = chain
        n = ham.potential.size
        reflected = (mirror.reflect - np.arange(n)) % n
        for odd in (False, True):
            _, vecs = np.linalg.eigh(mirror.block(ham, odd))
            rows = mirror.unfold(vecs.T, odd)
            np.testing.assert_array_equal(rows[:, reflected], -rows if odd else rows)


EXACT_CHAINS = [(Box(), p) for p in (3, 5, 9, 65, 1025)] + [(Ring(), p) for p in (3, 4, 7, 8, 64, 1023)]


class TestEnergies:
    def test_box_ground(self, box_result):
        spec, result = box_result
        assert result.energies[0] == pytest.approx(np.pi**2 / 2.0, rel=1e-12)

    def test_box_six_lowest(self, box_result):
        spec, result = box_result
        for i in range(6):
            assert result.energies[i] == pytest.approx(box_energy(spec, i + 1), rel=1e-12)

    def test_oscillator_ladder(self, osc_result):
        spec, result = osc_result
        np.testing.assert_allclose(result.energies[:3], [0.5, 1.5, 2.5], rtol=1e-12)

    def test_ring_spectrum_with_degeneracy(self, ring_result):
        spec, result = ring_result
        np.testing.assert_allclose(result.energies[:3], [0.0, 0.5, 0.5], atol=1e-12)
        # +/- m pairs coincide
        for m in (1, 2, 3):
            lo, hi = result.energies[2 * m - 1], result.energies[2 * m]
            assert abs(hi - lo) <= 1e-12 * max(abs(hi), 1.0)
            assert hi == pytest.approx(ring_energy(spec, m), rel=1e-12)

    @pytest.mark.parametrize("spec, points", EXACT_CHAINS, ids=[_chain_id(c) for c in EXACT_CHAINS])
    def test_box_and_ring_levels_are_exact_on_any_grid(self, spec, points):
        # every sampled sine or Fourier mode the grid holds is an exact
        # eigenvector: all n levels meet the exact ones to a few eps ||H||_1
        ham = build_hamiltonian(spec, default_eigen_grid(spec, points=points))
        result = solve_lowest(ham, ham.potential.size)
        np.testing.assert_allclose(
            result.energies, _exact_levels(ham), rtol=0.0, atol=4 * _EPS * ham.norm1
        )

    def test_oscillator_converges_exponentially(self):
        # on the default grid's extent, ten more points gain four digits
        # or more, down to roundoff
        spec, exact = Oscillator(), np.arange(6) + 0.5
        errors = []
        for points in (41, 51, 61):
            result = solve_lowest(build_hamiltonian(spec, default_eigen_grid(spec, 6, points)), 6)
            errors.append(np.max(np.abs(result.energies - exact) / exact))
        assert errors[1] <= 1e-4 * errors[0]
        assert errors[2] <= 1e-12


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

    def test_out_of_range_ring_level(self, ring_result):
        # m = -5 reads slots 9 and 10; slots 0 .. 8 are solved
        _, result = ring_result
        with pytest.raises(GridError, match="^eigenstate -5 not among the 9 solved$"):
            ring_momentum_state(result, -5)

    @pytest.mark.parametrize(
        "fixture, level, message",
        [
            ("box_result", 0, "box principal quantum number must be >= 1, got 0"),
            ("osc_result", -1, "oscillator quantum number must be >= 0, got -1"),
            ("box_result", 2.5, "quantum number must be an integer, got 2.5"),
            ("osc_result", 2.5, "quantum number must be an integer, got 2.5"),
        ],
    )
    def test_illegal_level_is_rejected_before_any_column(
        self, request, monkeypatch, fixture, level, message
    ):
        # the closed forms' and the oracle's DomainError, not a missing slot's
        # GridError, and no slot's columns are computed first
        spec, result = request.getfixturevalue(fixture)
        monkeypatch.setattr(eigensolver, "eigen_columns", lambda *args: pytest.fail("columns"))
        with pytest.raises(DomainError, match=f"^{message}$"):
            eigen_uncertainties(spec, result, level)

    @pytest.mark.parametrize("fixture, level", [("box_result", 0), ("box_result", -1), ("osc_result", -1)])
    def test_illegal_level_reads_no_slot(self, request, fixture, level):
        # eigen_columns takes validated levels; an illegal one is not among
        # the slots, rather than |n|'s row
        spec, result = request.getfixturevalue(fixture)
        with pytest.raises(GridError, match=f"^eigenstate {level} not among the"):
            eigen_columns(spec, result, [level])


class TestAnotherSystemsGrid:
    """A state on another system's grid raises GridError, not a plausible
    row of the other system (ring m = 1 read as box level 2, box level 3
    as oscillator level 2)."""

    def test_eigen_result_of_another_system(self, box_result, ring_result):
        with pytest.raises(GridError, match="^box states need a dirichlet grid$"):
            eigen_uncertainties(Box(), ring_result[1], 2)
        with pytest.raises(GridError, match="^oscillator states need an open grid$"):
            eigen_uncertainties(Oscillator(), box_result[1], 2)

    def test_oracle_on_another_systems_grid(self):
        with pytest.raises(GridError, match="^oscillator states need an open grid$"):
            oracle_uncertainties(Oscillator(), 2, default_grid(Box(), 2))


class TestSolverFailure:
    @pytest.mark.parametrize("spec", [Box(), Ring(), Oscillator()])
    def test_lapack_failure_is_a_convergence_error(self, monkeypatch, spec):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("eigenvalue 3 did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        ham = build_hamiltonian(spec, default_eigen_grid(spec, 4))
        with pytest.raises(ConvergenceError, match="dense eigensolver failed: eigenvalue 3 did not"):
            solve_lowest(ham, 4)

    @pytest.mark.parametrize("k", [0, -1])
    def test_no_levels_requested_is_config_error(self, k):
        ham = build_hamiltonian(Box(), GridSpec(0.0, 1.0, 11, "dirichlet"))
        with pytest.raises(ConfigError, match=f"requested {k} eigenpairs"):
            solve_lowest(ham, k)


def _mirror(values, periodic=True):
    """Samples of the mirrored function: on a periodic grid f(-theta),
    point j -> N - j; on a box or oscillator grid f(a - x) or f(-x),
    point j -> N - 1 - j."""
    if not periodic:
        return values[::-1]
    return values[(-np.arange(values.size)) % values.size]


class TestRingParitySolve:
    """The even/odd block solve against the whole chain's spectrum, on any N >= 3."""

    @pytest.mark.parametrize("points", [3, 4, 5, 8, 63, 64, 1001, 1024])
    def test_energies_match_dense_reference(self, points):
        ham = build_hamiltonian(Ring(), GridSpec(0.0, 2.0 * np.pi, points, "periodic"))
        reference = np.linalg.eigvalsh(_chain_matrix(ham))
        scale = max(float(np.max(np.abs(reference))), 1.0)
        # every k on the small grids; the edges, both parities of k and a
        # mid-spectrum cut on the large ones
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

        monkeypatch.setattr(np.linalg, "eigh", record)
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


def _resolved(spec, result):
    """The states whose moments pass the grid guards (`eigen_columns`):
    the levels the grid resolves."""
    first = 1 if isinstance(spec, Box) else 0
    passed = []
    for j in range(len(result.energies)):
        try:
            eigen_columns(spec, result, [first + j])
        except QnodesError:
            continue
        passed.append(j)
    return passed


class TestMirrorParitySolve:
    """The box and oscillator even/odd block solve against the whole chain."""

    @pytest.fixture(scope="class", params=OPEN_CHAINS, ids=_chain_id)
    def chain(self, request):
        spec, points = request.param
        ham = _open_hamiltonian(spec, points)
        dim = ham.potential.size
        reference = np.linalg.eigvalsh(_chain_matrix(ham))
        scale = max(float(np.max(np.abs(reference))), 1.0)
        result = solve_lowest(ham, dim)
        return spec, ham, reference, scale, result, _resolved(spec, result)

    def test_energies_match_dense_reference(self, chain):
        # the blocks hold the whole spectrum, and slot j holds the j-th level
        # of the chain over a leading run: all of the box's levels, and the
        # oscillator's up to its grid's first parity crossing
        spec, ham, reference, scale, full, _ = chain
        dim = ham.potential.size
        np.testing.assert_allclose(np.sort(full.energies), reference, rtol=0.0, atol=1e-12 * scale)
        matched = np.abs(full.energies - reference) <= 1e-12 * scale
        run = dim if matched.all() else int(np.argmin(matched))
        least = dim if isinstance(spec, Box) else {5: 3, 7: 3, 65: 43, 2001: 1005}[dim]
        assert run >= least
        # every k up to 65 points; the edges, both parities of k, a
        # mid-spectrum cut and the benchmark's 40 levels on the 2001-point
        # grids
        ks = range(1, dim + 1) if dim <= 65 else (1, 2, 3, 21, 40, dim)
        for k in ks:
            result = solve_lowest(ham, k)
            assert len(result.states) == k
            np.testing.assert_allclose(
                result.energies, full.energies[:k], rtol=0.0, atol=1e-12 * scale
            )
            top = min(k, run)
            np.testing.assert_allclose(
                result.energies[:top], reference[:top], rtol=0.0, atol=1e-12 * scale
            )

    def test_states_alternate_even_odd(self, chain):
        result = chain[4]
        for j, state in enumerate(result.states):
            expected = -state.values if j % 2 else state.values
            np.testing.assert_allclose(
                _mirror(state.values, periodic=False), expected, atol=1e-12
            )

    def test_resolved_levels_ascend(self, chain):
        # a box's levels are its sine modes, all of them in order; beyond
        # the levels the oscillator's grid resolves, its blocks' levels
        # interleave in no fixed order
        spec, _, _, _, result, resolved = chain
        steps = np.diff(result.energies)
        if isinstance(spec, Box):
            assert np.all(steps > 0.0)
        assert np.all(np.diff(result.energies[resolved]) > 0.0)

    def test_resolved_state_j_has_j_nodes(self, chain):
        # the guards ask more than the energies: 65 points resolve the
        # box's n < 32 but no oscillator level (h = 0.42 leaves the ground
        # state's <p^2> a band share of 5e-7); 2001 points resolve both
        spec, ham, _, _, result, resolved = chain
        least = {("box", 65): 31, ("box", 2001): 999, ("oscillator", 2001): 40}
        assert len(resolved) >= least.get((type(spec).__name__.lower(), ham.grid.points), 0)
        for j in resolved:
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

    @pytest.mark.parametrize(
        "spec, points, sizes",
        [(Box(), 65, (32, 31)), (Oscillator(), 65, (33, 32)), (Ring(), 64, (33, 31))],
        ids=["box", "oscillator", "ring"],
    )
    def test_one_dense_solve_per_needed_block(self, monkeypatch, spec, points, sizes):
        real, seen = np.linalg.eigh, []

        def spy(a, *args, **kwargs):
            seen.append(len(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        ham = _open_hamiltonian(spec, points)
        solve_lowest(ham, 1)
        assert seen == [sizes[0]]
        seen.clear()
        solve_lowest(ham, 6)
        assert seen == list(sizes)


class TestZeroEnergyFloor:
    """Ring m = 0 has energy exactly 0; its computed digits are roundoff."""

    @pytest.mark.parametrize("points", [1023, 1024])
    @pytest.mark.parametrize("k", [1, 5, 21])
    def test_ring_ground_energy_is_zero(self, points, k):
        ham = build_hamiltonian(Ring(), default_eigen_grid(Ring(), points=points))
        result = solve_lowest(ham, k)
        assert result.energies[0] == 0.0
        assert np.all(result.energies[1:] > 0.4)
        assert result.residuals[0] == 0.0

    def test_sweep_eigen_row_reports_zero(self):
        from qnodes.report import SweepConfig, run_sweep

        rows = run_sweep(SweepConfig(system=Ring(), levels=(-2, -1, 0, 1, 2), paths=("eigen",)))
        energies = {row.level: row.energy for row in rows}
        assert energies[0] == 0.0
        assert energies[1] > 0.4 and energies[-1] > 0.4

    def test_ground_is_zero_on_every_grid(self):
        # the dense solve's own m = 0 level is roundoff, at times beyond
        # eps ||H||_1 (-1.0e-12 on 164 points): the free ring's state 0 is
        # the constant by symmetry, not by a test on its energy
        for points in range(3, 257):
            ham = build_hamiltonian(Ring(), default_eigen_grid(Ring(), points=points))
            raw, _ = _parity_pairs(ham, 1)
            assert abs(raw[0]) <= 1e-12 * ham.norm1
            assert solve_lowest(ham, min(3, points)).energies[0] == 0.0, points


class TestConstantNullVector:
    """The free ring's state 0 is the constant itself."""

    @pytest.mark.parametrize("points", [8, 9, 1023, 1024])
    @pytest.mark.parametrize("k", [1, 3, 21])
    def test_ring_ground_state_is_exactly_constant(self, points, k):
        ham = build_hamiltonian(Ring(), default_eigen_grid(Ring(), points=points))
        k = min(k, points)
        result = solve_lowest(ham, k)
        ground = result.states[0].values
        assert result.energies[0] == 0.0 and result.residuals[0] == 0.0
        assert np.all(ground == ground[0]) and ground[0] > 0.0

    @pytest.mark.parametrize("points", _RING_SIZES)
    def test_m0_columns_equal_the_real_state(self, points):
        # the m = 0 row is state 0 in the ring's complex stack; on a
        # 2^a 3^b grid the complex FFT keeps the constant's nonzero
        # wavenumbers exactly 0, as the real one does, so its columns are
        # those of the real state bit for bit
        ham = build_hamiltonian(Ring(), default_eigen_grid(Ring(), points=points))
        result = solve_lowest(ham, 3)
        ground = first_rows(result.stack, 1)  # the real state 0, a stack of one
        columns = eigen_columns(Ring(), result, [-1, 0, 1])
        real = columns_from_stack(Ring(), ground)
        real |= {"energy": result.energies[:1], "nodes": node_counts(ground)}
        assert set(columns) == set(real)
        for name, values in real.items():
            assert columns[name][1:2].tobytes() == values.tobytes(), name
        psi = ring_momentum_state(result, 0)
        assert np.iscomplexobj(psi.values) and np.array_equal(psi.values, result.states[0].values)

    def test_floored_level_without_a_constant_null_vector_keeps_its_vector(self):
        # the box shifted so that its ground level sits at zero: the energy
        # is roundoff, and the walls keep the constant from being a null vector
        ham = build_hamiltonian(Box(), default_eigen_grid(Box(), points=201))
        shifted = Hamiltonian(ham.grid, ham.potential - np.pi**2 / 2.0)
        result = solve_lowest(shifted, 3)
        assert abs(result.energies[0]) <= 4 * np.finfo(float).eps * shifted.norm1
        np.testing.assert_allclose(
            result.states[0].values, np.sqrt(2.0) * np.sin(np.pi * ham.grid.x), atol=1e-12
        )


class TestSmoothRingGrids:
    """The property the ring's grid rule rests on: on every 2^a 3^b count
    the FFT moments of the constant are exactly 0, so the m = 0 row reads
    0.0 for energy, Delta L_z and product on the oracle and eigen paths."""

    @staticmethod
    def _m0_columns(points):
        # the oracle's sampled m = 0 state, and the eigen path's state 0
        # (the unit chain constant over sqrt h) in a complex stack
        grid = GridSpec(0.0, 2.0 * math.pi, points, "periodic")
        oracle = columns_from_stack(Ring(), sample_state(Ring(), 0, grid))
        constant = np.full((3, points), 1.0 / math.sqrt(points), complex) * (1.0 / math.sqrt(grid.h))
        return oracle, columns_from_stack(Ring(), SampledFunction(grid, constant))

    def test_m0_moments_are_zero_on_every_smooth_count(self):
        assert len(_RING_SIZES) == 38
        for points in _RING_SIZES:
            for columns in self._m0_columns(points):
                for name in ("energy", "delta_p", "product"):
                    assert np.all(columns[name] == 0.0), (points, name)

    def test_radix_5_counts_break_the_zeros(self):
        # why the rule stops at 3: a radix-5 pass leaves roundoff in the
        # constant's transform (Delta L_z about 1e-15 on 40 points)
        for points in (40, 80):
            for columns in self._m0_columns(points):
                assert 0.0 < columns["delta_p"][0] < 1e-14, points

    @pytest.mark.parametrize("points", [s for s in _RING_SIZES if s <= 216])
    def test_m0_sweep_rows_are_zero(self, points):
        cfg = SweepConfig(Ring(), (-1, 0, 1), ("analytic", "oracle", "eigen"), grid_points=points)
        rows = [row for row in run_sweep(cfg) if row.level == 0]
        assert [row.path for row in rows] == ["analytic", "oracle", "eigen"]
        for row in rows:
            assert (row.energy, row.delta_p, row.product) == (0.0, 0.0, 0.0), (points, row.path)
