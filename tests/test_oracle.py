import math

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from qnodes import (
    Box,
    GridError,
    GridSpec,
    NormalizationError,
    Oscillator,
    Ring,
    RingSuperposition,
    SampledFunction,
    box_uncertainties,
    momentum_moments,
    oracle_uncertainties,
    oscillator_uncertainties,
    position_moments,
    quad,
    ring_lz_by_quadrature,
    ring_lz_stats,
    ring_theta_by_quadrature,
    ring_uncertainties,
    sample_state,
)
import qnodes.grids
import qnodes.oracle
import qnodes.special
from qnodes.eigensolver import build_hamiltonian, default_eigen_grid, solve_lowest
from qnodes.grids import _edge_rows, _fd_weights, _parseval_weights, derivative, spectral_moments
from qnodes.oracle import (
    _cosine_weights,
    _theta_weights,
    columns_from_stack,
    default_grid,
    sample_levels,
)
from qnodes.report import SweepConfig, run_sweep


class TestQuad:
    def test_constant(self):
        g = GridSpec(0.0, 1.0, 101, "open")
        assert quad(g, np.ones(101)) == pytest.approx(1.0, rel=1e-15)

    def test_decayed_gaussian_exact(self):
        # spacing 1/2 resolves exp(-x^2) to exp(-pi^2/h^2); a rule mixing in
        # the spacing 2h, as Simpson's does, would be off by about 6e-5
        g = GridSpec(-12.0, 12.0, 49, "open")
        assert quad(g, np.exp(-(g.x**2))) == pytest.approx(math.sqrt(math.pi), rel=4e-16)

    def test_box_ground_norm(self):
        g = GridSpec(0.0, 1.0, 1001, "open")
        y = 2.0 * np.sin(np.pi * g.x) ** 2
        assert quad(g, y) == pytest.approx(1.0, abs=1e-10)

    def test_wrong_value_count_rejected(self):
        with pytest.raises(GridError):
            quad(GridSpec(0.0, 1.0, 101, "open"), np.ones(99))

    def test_even_point_count_rejected(self):
        with pytest.raises(GridError):
            GridSpec(0.0, 1.0, 100, "open")

    @pytest.mark.parametrize("top", [1, 7, 31, 255, 1023])
    def test_box_sine_squares_exact(self, top):
        # every n < J/2 on the rule's J intervals for level `top`, sampled
        # with the argument reduced exactly so that the error is the rule's
        g = default_grid(Box(), top)
        intervals = g.points - 1
        n = np.arange(1, (intervals + 1) // 2)[:, None]
        y = np.sin(np.pi * (n * np.arange(g.points) % (2 * intervals)) / intervals) ** 2
        assert np.max(np.abs(quad(g, y) - 0.5)) <= 2 * np.spacing(0.5)

    def test_periodic_rectangle_rule(self):
        g = GridSpec(0.0, 2.0 * np.pi, 64, "periodic")
        y = np.cos(3.0 * g.x) ** 2
        assert quad(g, y) == pytest.approx(np.pi, rel=1e-13)


class TestPositionMoments:
    def test_box_ground_center(self):
        psi = sample_state(Box(), 1, GridSpec(0.0, 1.0, 2001, "dirichlet"))
        mean_x, _ = position_moments(psi)
        assert mean_x == pytest.approx(0.5, abs=1e-10)

    def test_box_n3_second_moment(self):
        psi = sample_state(Box(), 3)
        _, var_x = position_moments(psi)
        assert var_x == pytest.approx(1.0 / 12.0 - 1.0 / (18.0 * np.pi**2), abs=1e-9)

    def test_oscillator_even_density(self):
        psi = sample_state(Oscillator(), 2, GridSpec(-12.0, 12.0, 4001, "open"))
        mean_x, _ = position_moments(psi)
        assert mean_x == pytest.approx(0.0, abs=1e-10)

    def test_unnormalized_rejected(self):
        g = GridSpec(0.0, 1.0, 101, "open")
        with pytest.raises(NormalizationError):
            position_moments(SampledFunction(g, 2.0 * np.ones(101)))

    @pytest.mark.parametrize("m, points", [(3, 16), (10, 48)])
    def test_ring_takes_the_theta_series(self, m, points):
        # theta is not periodic: the rectangle rule gives <theta> = pi - pi/16
        # on 16 points; the Fourier series of theta on [0, 2 pi) is exact
        psi = sample_state(Ring(), m)
        assert psi.grid.points == points
        mean, var = position_moments(psi)
        assert mean == pytest.approx(math.pi, rel=1e-12)
        assert var == pytest.approx(math.pi**2 / 3.0, rel=1e-12)
        theta_mean, spread = ring_theta_by_quadrature(psi)
        assert (mean, math.sqrt(var)) == (theta_mean, spread)

    def test_ring_off_its_branch_rejected(self):
        grid = GridSpec(-math.pi, math.pi, 32, "periodic")
        psi = SampledFunction(grid, np.full(32, 1.0 / math.sqrt(2.0 * math.pi)))
        with pytest.raises(GridError, match="branch"):
            position_moments(psi)


class TestRingSineIsBoxLevel:
    """sin m theta / sqrt(pi) on [0, 2 pi) is box level n = 2m in a box of
    length 2 pi: the periodic and the Dirichlet branch of each moment
    function must agree, and sqrt(Var x <p^2>) is sqrt(m^2 pi^2/3 - 1/2)."""

    @pytest.mark.parametrize(
        "m, points",
        [(m, n) for m in (1, 2, 5, 20, 100) for n in (48, 96, 768) if 4 * m < n],
    )
    def test_both_branches_agree(self, m, points):
        moments = []
        for grid in (
            GridSpec(0.0, 2.0 * math.pi, points, "periodic"),
            GridSpec(0.0, 2.0 * math.pi, points + 1, "dirichlet"),
        ):
            psi = SampledFunction(grid, np.sin(m * grid.x) / math.sqrt(math.pi))
            mean_x, var_x = position_moments(psi)
            moments.append((mean_x, var_x, momentum_moments(psi)[1]))
        ring, box = moments
        assert ring == pytest.approx(box, rel=1e-14, abs=0.0)
        assert math.sqrt(ring[1] * ring[2]) == pytest.approx(
            math.sqrt(m**2 * math.pi**2 / 3.0 - 0.5), rel=1e-14, abs=0.0
        )


class TestMomentumMoments:
    def test_box_ground_p2(self):
        psi = sample_state(Box(), 1)
        mean_p, mean_p2, _ = momentum_moments(psi)
        assert mean_p == pytest.approx(0.0, abs=1e-10)
        assert mean_p2 == pytest.approx(np.pi**2, rel=1e-6)

    def test_oscillator_ground_p2(self):
        psi = sample_state(Oscillator(), 0)
        _, mean_p2, _ = momentum_moments(psi)
        assert mean_p2 == pytest.approx(0.5, abs=1e-8)

    def test_coarse_grid_rejected(self):
        # on 50 intervals n = 25 and above put all of <p^2> at or above
        # half the Nyquist wavenumber; n = 20 lies below it and is exact
        grid = GridSpec(0.0, 1.0, 51, "dirichlet")
        with pytest.raises(GridError, match=r"carry 1\.000e\+00 of <p\^2>, above 1e-10"):
            momentum_moments(sample_state(Box(), 30, grid))
        assert momentum_moments(sample_state(Box(), 20, grid))[1] == pytest.approx(
            (20.0 * np.pi) ** 2, rel=1e-14
        )

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_p2_is_the_sine_series_sum(self, n):
        _, p2, _ = momentum_moments(sample_state(Box(), n))
        assert p2 == pytest.approx((n * np.pi) ** 2, rel=1e-14)

    def test_complex_dirichlet_sample_rejected(self):
        psi = sample_state(Box(), 2)
        with pytest.raises(GridError, match="Dirichlet samples must be real"):
            momentum_moments(SampledFunction(psi.grid, psi.values * 1j))


def _complex_parseval(psi):
    """(<p>, <p^2>) of a real open-grid or Dirichlet sample from the
    complex FFT of one period, summed over every bin: the values without
    the duplicate end point, or the odd extension of the interior, whose
    period holds the grid twice."""
    y = psi.values.astype(complex)
    m, h, half = y.size - 1, psi.grid.h, 1.0
    if psi.grid.boundary == "dirichlet":
        y = np.concatenate([[0.0], y[1:-1], [0.0], -y[-2:0:-1]])
        m, half = 2 * m, 0.5
    else:
        y = y[:-1]
    kappa = 2.0 * np.pi * np.fft.fftfreq(m, d=h)
    power = np.abs(np.fft.fft(y)) ** 2 * h / m * half
    return float(np.sum(kappa * power)), float(np.sum(kappa**2 * power))


def _dirichlet_reference(grid, y):
    """(<p^2>, high-band share, <x>, Var x) of real samples `y` on a
    Dirichlet grid, from scipy's DST-I of the interior samples and DCT-I
    of the density: psi = sum_k b_k sin k pi u and |psi|^2 = a_0 / 2 +
    sum_j a_j cos j pi u (a_J halved), u = (x - lower) / L."""
    j, length = grid.points - 1, grid.upper - grid.lower
    k = np.arange(1, j)
    b = scipy.fft.dst(y[1:-1], type=1) / j
    power = (k * np.pi / length) ** 2 * b**2 * length / 2.0
    p2 = power.sum()
    share = power[k >= j / 2].sum() / max(p2, 1.0)
    a = scipy.fft.dct(y**2, type=1) / j
    a[-1] /= 2.0
    jj = np.arange(1, j + 1)
    u1 = np.sum(a[1:] * ((-1.0) ** jj - 1.0) / (jj * np.pi) ** 2)
    u2 = a[0] / 24.0 + np.sum(a[1:] * ((-1.0) ** jj + 1.0) / (jj * np.pi) ** 2)
    mean_u, mean_u2 = u1 / (a[0] / 2.0), u2 / (a[0] / 2.0)
    mean_x = grid.lower + length * (0.5 + mean_u)
    return p2, share, mean_x, length**2 * (mean_u2 - mean_u**2)


class TestSineAndCosineSeries:
    """Dirichlet moments: numpy's `rfft` of the odd and even extensions
    against scipy's DST-I and DCT-I, and stacks against their rows."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 40),
        st.floats(-2.0, 2.0),
        st.floats(0.1, 5.0),
        st.integers(0, 2**32 - 1),
    )
    def test_moments_match_scipy_transforms(self, half, lower, length, seed):
        grid = GridSpec(lower, lower + length, 2 * half + 1, "dirichlet")
        y = np.random.default_rng(seed).standard_normal(grid.points)
        y[0] = y[-1] = 0.0
        y /= math.sqrt(quad(grid, y**2))
        psi = SampledFunction(grid, y)
        p2, share, mean_x, var_x = _dirichlet_reference(grid, y)
        _, got_p2, got_share, _ = spectral_moments(psi)
        got_mean, got_var = position_moments(psi)
        assert got_p2 == pytest.approx(p2, rel=1e-12)
        assert got_share == pytest.approx(share, rel=1e-10, abs=1e-15)
        assert got_mean == pytest.approx(mean_x, rel=1e-12, abs=1e-12 * length)
        assert got_var == pytest.approx(var_x, rel=1e-10, abs=1e-12 * length**2)

    @pytest.mark.parametrize("source", ["samples", "eigenvectors"])
    def test_stack_rows_equal_single_samples(self, source):
        if source == "samples":
            (stack,) = sample_levels(Box(), [range(1, 41)], default_grid(Box(), 40))
        else:
            stack = solve_lowest(build_hamiltonian(Box(), default_eigen_grid(Box(), 40)), 40).stack
        columns = columns_from_stack(Box(), stack)
        stacked = (*position_moments(stack), *momentum_moments(stack))
        for i, row in enumerate(stack.values):
            psi = SampledFunction(stack.grid, row)
            single = (*position_moments(psi), *momentum_moments(psi))
            assert [float(v[i]) for v in stacked] == list(single), i
            record = qnodes.oracle.record_from_samples(Box(), i + 1, psi)
            for name, values in columns.items():
                assert values[i] == getattr(record, name), (i, name)

    def test_default_grid_rows_match_closed_forms(self):
        rows = run_sweep(SweepConfig(Box(), tuple(range(1, 101)), ("analytic", "oracle")))
        analytic, oracle = rows[0::2], rows[1::2]
        for a, o in zip(analytic, oracle):
            for field in ("energy", "delta_q", "delta_p", "product"):
                want, got = getattr(a, field), getattr(o, field)
                assert abs(got - want) <= 1e-14 * abs(want), (a.level, field)

    @pytest.mark.parametrize("top, points", [(1, 5), (7, 17), (40, 97), (100, 217), (524287, 2**20 + 1)])
    def test_box_grid_sized_by_band_limit(self, top, points):
        assert default_grid(Box(), top).points == points
        assert default_grid(Box(), top, 4001).points == 4001

    def test_box_grid_limit(self):
        with pytest.raises(GridError, match=r"n = 524288 needs at least 1048577 intervals, above the limit of 1048576"):
            default_grid(Box(), 524288)

    @pytest.mark.parametrize(
        "spec, level, points, message",
        [
            (Ring(), 14, 16, r"the 16-point ring grid aliases \|m\| = 14 \(every \|m\| >= 9\)"),
            (Ring(), -9, 17, r"the 17-point ring grid aliases \|m\| = 9 \(every \|m\| >= 9\)"),
            (Box(), 50, 51, r"the 51-point box grid aliases n = 50 \(every n >= 50\)"),
            (Box(), 90, 51, r"the 51-point box grid aliases n = 90 \(every n >= 50\)"),
        ],
        ids=["ring-14-on-16", "ring-9-on-17", "box-50-on-51", "box-90-on-51"],
    )
    def test_aliased_level_rejected_when_sampled(self, spec, level, points, message):
        with pytest.raises(GridError, match=message):
            sample_state(spec, level, default_grid(spec, 0, points))


class TestResolutionGuard:
    """Open and periodic grids: Parseval moments behind a high-band guard
    (above 7/8 of the Nyquist wavenumber on open grids, half on periodic)."""

    @pytest.mark.parametrize("n, points", [(0, 93), (2, 97), (200, 575)])
    def test_oscillator_grid_sized_by_band_limit(self, n, points):
        grid = default_grid(Oscillator(), n)
        assert grid.points == points
        assert grid.h <= math.pi / grid.upper
        assert default_grid(Oscillator(), n, 8001).points == 8001

    @pytest.mark.parametrize("points", [185, 801, 1149])
    def test_open_grid_exactly_antisymmetric(self, points):
        x = GridSpec(-30.0, 30.0, points, "open").x
        assert np.array_equal(x[::-1], -x)
        assert x[points // 2] == 0.0

    @pytest.mark.parametrize("boundary, points, first", [("open", 65, 29), ("periodic", 64, 17)])
    def test_high_band_starts_above_its_fraction_of_nyquist(self, boundary, points, first):
        # 64 samples per period, Nyquist bin 32: the band guard's high band
        # starts above 7/8 of it (bin 28) on open grids, above half (bin 16)
        # on periodic ones, for real and complex samples alike
        grid = GridSpec(0.0, 64.0, points, boundary)
        phase = 2.0 * math.pi * np.arange(points) / 64
        for k, share in ((first - 1, 0.0), (first, 1.0)):
            for y in (np.cos(k * phase), np.exp(1j * k * phase)):
                got = spectral_moments(SampledFunction(grid, y))[2]
                assert got == pytest.approx(share, abs=1e-12), (k, y.dtype)

    def test_default_grid_share_far_below_threshold(self):
        worst = max(qnodes.grids.spectral_moments(psi)[2] for psi in _sweep_oscillator_samples())
        assert worst <= 1e-20

    def test_under_resolved_sample_rejected(self):
        wide = default_grid(Oscillator(), 200)
        grid = GridSpec(wide.lower, wide.upper, 473, "open")
        y = list(qnodes.special.oscillator_ladder(grid.x, 200))[-1]
        psi = SampledFunction(grid, y / math.sqrt(quad(grid, y**2)))
        message = r"above 7/8 of the Nyquist wavenumber carry 2\.001e-10 of <p\^2>, above 1e-10"
        with pytest.raises(GridError, match=message):
            momentum_moments(psi)

    def test_undecayed_sample_rejected(self):
        # a ground state cut off at x = +-3, renormalized on the grid
        grid = GridSpec(-3.0, 3.0, 201, "open")
        y = np.exp(-(grid.x**2) / 2.0)
        psi = SampledFunction(grid, y / math.sqrt(quad(grid, y**2)))
        with pytest.raises(GridError, match="not decayed"):
            momentum_moments(psi)

    def test_folded_mean_off_centre(self):
        # a packet at x = 1.5 on a grid centred on 2: the fold keeps the centre
        grid = GridSpec(-10.0, 14.0, 801, "open")
        psi = SampledFunction(grid, np.pi**-0.25 * np.exp(-((grid.x - 1.5) ** 2) / 2.0))
        mean_x, var_x = position_moments(psi)
        assert mean_x == pytest.approx(float(quad(grid, grid.x * psi.density)), rel=1e-14)
        assert mean_x == pytest.approx(1.5, rel=1e-13)
        assert var_x == pytest.approx(0.5, rel=1e-13)

    def test_periodic_sample_takes_parseval(self):
        grid = GridSpec(0.0, 2.0 * math.pi, 64, "periodic")
        psi = SampledFunction(grid, (np.exp(3j * grid.x) + np.exp(-1j * grid.x)) / math.sqrt(4 * math.pi))
        mean_p, mean_p2, _ = momentum_moments(psi)
        assert mean_p == pytest.approx(1.0, rel=1e-13)
        assert mean_p2 == pytest.approx(5.0, rel=1e-13)


class TestRingBandLimit:
    """Ring grids sized by the largest |m|, and L_z by one Parseval FFT
    behind the same half-band guard as <p^2>."""

    @pytest.mark.parametrize("top, points", [(0, 8), (1, 8), (3, 16), (10, 48), (20, 96)])
    def test_ring_grid_sized_by_band_limit(self, top, points):
        assert default_grid(Ring(), top).points == points
        assert default_grid(Ring(), -top).points == points
        assert default_grid(Ring(), top, 4096).points == 4096

    def test_ring_grid_limit(self):
        assert default_grid(Ring(), 262143).points == 2**20
        with pytest.raises(GridError, match=r"\|m\| = 262144 needs at least 1048577 points, above the limit of 1048576"):
            default_grid(Ring(), 262144)

    def test_m0_record_exactly_zero(self):
        for top in range(65):
            rec = oracle_uncertainties(Ring(), 0, default_grid(Ring(), top))
            assert (rec.energy, rec.delta_p, rec.product) == (0.0, 0.0, 0.0), top

    @pytest.mark.parametrize("top", [0, 1, 3, 10, 20, 64])
    def test_every_level_far_below_threshold(self, top):
        grid = default_grid(Ring(), top)
        for m in range(-top, top + 1):
            assert qnodes.grids.spectral_moments(sample_state(Ring(), m, grid))[2] <= 1e-20, m

    def test_superposition_grid_follows_largest_m(self):
        state = RingSuperposition(((40, math.sqrt(0.3)), (-40, 1j * math.sqrt(0.7))))
        psi = sample_state(Ring(), state)
        assert psi.grid.points == 162
        mean_q, spread_q, mean2_q = ring_lz_by_quadrature(psi)
        mean_c, spread_c = ring_lz_stats(Ring(), state)
        assert mean_q == pytest.approx(mean_c, abs=1e-12)
        assert spread_q == pytest.approx(spread_c, abs=1e-12)
        assert mean2_q == pytest.approx(1600.0, rel=1e-14)

    def test_aliased_state_rejected(self):
        # e^{10 i theta} on 16 points reads as e^{-6 i theta}, above N/4;
        # `sample_state` refuses the level (beyond N/2), its samples do not pass
        grid = GridSpec(0.0, 2.0 * math.pi, 16, "periodic")
        with pytest.raises(GridError, match=r"aliases \|m\| = 10 \(every \|m\| >= 9\)"):
            sample_state(Ring(), 10, grid)
        (psi,) = sample_levels(Ring(), [[10]], grid)
        with pytest.raises(GridError, match=r"carry 1\.000e\+00 of <L_z\^2>, above 1e-10"):
            ring_lz_by_quadrature(psi)

    def test_theta_weights_read_only(self):
        psi = sample_state(Ring(), 3)
        ring_theta_by_quadrature(psi)
        assert not _theta_weights(psi.grid.points).flags.writeable


def _sweep_oscillator_samples():
    grid = default_grid(Oscillator(), 200)
    (stack,) = sample_levels(Oscillator(), [range(201)], grid)
    return [SampledFunction(grid, row) for row in stack.values]


def _box_eigenvectors():
    return solve_lowest(build_hamiltonian(Box(), default_eigen_grid(Box(), 40)), 40).states


@pytest.mark.parametrize(
    "samples", [_sweep_oscillator_samples, _box_eigenvectors], ids=["oscillator-0:200", "box-eigen-40"]
)
class TestRealSampleShortcut:
    """The real-sample branch of `momentum_moments` against the general
    formula on the samples the sweeps feed it: to roundoff against the
    full complex FFT of one period (of the odd extension between hard
    walls), where a real sample takes an `rfft`."""

    def test_mean_p_is_zero(self, samples):
        for psi in samples():
            general, p2 = _complex_parseval(psi)
            assert abs(general) <= 1e-14 * math.sqrt(p2)
            assert momentum_moments(psi)[0] == 0.0

    def test_mean_p2_matches_general_formula(self, samples):
        for psi in samples():
            general = _complex_parseval(psi)[1]
            assert momentum_moments(psi)[1] == pytest.approx(general, rel=1e-14)


@pytest.mark.parametrize(
    "samples", [_sweep_oscillator_samples, _box_eigenvectors], ids=["oscillator-0:200", "box-eigen-40"]
)
class TestKernelBits:
    """The derivative edges and the density against their plain formulas,
    bit for bit, on the samples the sweeps feed them."""

    @pytest.mark.parametrize("fn, deriv, width", [(derivative, 1, 7)], ids=["d1"])
    def test_edge_values_are_single_row_products(self, samples, fn, deriv, width):
        for psi in samples():
            y, n, scale = psi.values, psi.grid.points, psi.grid.h**deriv
            out = fn(psi)
            for i in range(3):
                left = _fd_weights(tuple(range(-i, width - i)), deriv)
                right = _fd_weights(tuple(range(-(width - 1 - i), i + 1)), deriv)
                assert out[i] == left @ y[:width] / scale
                assert out[n - 1 - i] == right @ y[-width:] / scale

    def test_real_density_is_abs_squared(self, samples):
        for psi in samples():
            assert np.array_equal(psi.density, np.abs(psi.values) ** 2)


@pytest.mark.parametrize(
    "state", [3, -7, RingSuperposition(((0, 0.6), (2, 0.8j)))], ids=["m3", "m-7", "superposition"]
)
def test_complex_density_is_abs_squared(state):
    psi = sample_state(Ring(), state)
    assert np.iscomplexobj(psi.values)
    assert np.array_equal(psi.density, np.abs(psi.values) ** 2)


def test_sweep_leaves_shared_arrays_read_only(monkeypatch):
    # the kernels write in place only into fresh temporaries; momentum
    # moments are taken once per stack, whose rows are the sweep's levels
    seen = []
    moments_ = qnodes.oracle.momentum_moments

    def spy(psi):
        seen.append(psi)
        return moments_(psi)

    monkeypatch.setattr(qnodes.oracle, "momentum_moments", spy)
    run_sweep(SweepConfig(Oscillator(), tuple(range(21)), ("analytic", "oracle")))
    run_sweep(SweepConfig(Box(), (1, 2, 3), ("analytic", "oracle", "eigen")))
    assert [psi.values.shape[0] for psi in seen] == [21, 3, 3]
    for psi in seen:
        assert not psi.grid.x.flags.writeable
        assert not psi.values.flags.writeable
        assert not psi.density.flags.writeable
        assert not psi.norm.flags.writeable
    for rows in _edge_rows():
        assert all(not w.flags.writeable for w in rows)
    for grid, real in ((seen[0].grid, True), (seen[0].grid, False), (seen[1].grid, True)):
        weights = _parseval_weights(grid, real)[:-1]
        assert all(not w.flags.writeable for w in weights)
    assert not _cosine_weights(seen[1].grid.points).flags.writeable


def _box_stack(levels):
    (stack,) = sample_levels(Box(), [levels], default_grid(Box()))
    return stack


class TestSampleOwnsDensity:
    def test_density_and_norm_built_once(self, monkeypatch):
        psi = sample_state(Box(), 2)
        calls = []
        quad_ = qnodes.grids.quad

        def counted(grid, y):
            calls.append(y)
            return quad_(grid, y)

        monkeypatch.setattr(qnodes.grids, "quad", counted)
        assert psi.density is psi.density
        assert np.array_equal(psi.density, np.abs(psi.values) ** 2)
        assert psi.norm == psi.norm == pytest.approx(1.0, abs=1e-12)
        assert len(calls) == 1

    def test_stack_density_and_norms_built_once(self, monkeypatch):
        # one |psi|^2 and one quadrature for the whole stack, a norm per row
        stack = _box_stack([1, 2, 5])
        calls = []
        quad_ = qnodes.grids.quad

        def counted(grid, y):
            calls.append(y)
            return quad_(grid, y)

        monkeypatch.setattr(qnodes.grids, "quad", counted)
        assert stack.density is stack.density
        assert np.array_equal(stack.density, np.abs(stack.values) ** 2)
        assert stack.norm is stack.norm
        assert len(calls) == 1 and calls[0].shape == (3, stack.grid.points)
        rows = [SampledFunction(stack.grid, row) for row in stack.values]
        assert stack.norm.tolist() == [psi.norm for psi in rows]

    def test_density_and_norm_read_only(self):
        psi = sample_state(Box(), 2)
        with pytest.raises(ValueError):
            psi.density[0] = 1.0
        with pytest.raises(AttributeError):
            psi.norm = 2.0
        with pytest.raises(AttributeError):
            psi.density = np.zeros(psi.grid.points)

    def test_values_read_only(self):
        source = np.ones(101)
        psi = SampledFunction(GridSpec(0.0, 1.0, 101, "open"), source)
        with pytest.raises(ValueError):
            psi.values[0] = 0.0
        assert source.flags.writeable  # the caller's own array is untouched


class TestIntegerSamples:
    """Integer samples are promoted once, when sampled: every derivative
    and spectral moment matches the same values given as floats."""

    y = np.array([0, 1, 1, 2, 3, 3, 4, 5, 5, 6, 7, 7, 8])

    @pytest.mark.parametrize("op", [derivative])
    def test_open_grid(self, op):
        grid = GridSpec(0.0, 3.0, 13, "open")
        got = op(SampledFunction(grid, self.y))
        assert got.dtype == np.float64
        assert np.array_equal(got, op(SampledFunction(grid, self.y.astype(float))))

    @pytest.mark.parametrize("boundary", ["open", "dirichlet"])
    def test_spectral_moments(self, boundary):
        grid = GridSpec(0.0, 3.0, 13, boundary)
        got = spectral_moments(SampledFunction(grid, self.y))
        assert got == spectral_moments(SampledFunction(grid, self.y.astype(float)))

    def test_periodic_grid(self):
        grid = GridSpec(0.0, 3.0, 12, "periodic")
        got = derivative(SampledFunction(grid, self.y[:12]))
        assert np.array_equal(got, derivative(SampledFunction(grid, self.y[:12].astype(float))))

    @pytest.mark.parametrize("dtype", [np.float32, np.complex64, np.float64, np.complex128])
    def test_inexact_samples_keep_their_dtype(self, dtype):
        psi = SampledFunction(GridSpec(0.0, 3.0, 13, "open"), self.y.astype(dtype))
        assert psi.values.dtype == dtype


class TestMovingWavePacket:
    """Complex samples take the general <p> product: a Gaussian packet
    pi^(-1/4) exp(-x^2/2) exp(i k0 x) has <p> = k0 and <p^2> = k0^2 + 1/2."""

    @pytest.mark.parametrize("k0", [0.5, 3.0])
    def test_moments(self, k0):
        grid = default_grid(Oscillator(), 0)
        x = grid.x
        psi = SampledFunction(grid, np.pi**-0.25 * np.exp(-(x**2) / 2.0) * np.exp(1j * k0 * x))
        mean_p, mean_p2, _ = momentum_moments(psi)
        assert mean_p == pytest.approx(k0, abs=1e-8)
        assert mean_p2 == pytest.approx(k0**2 + 0.5, abs=1e-8)


class TestRingQuadrature:
    spec = Ring()

    def test_definite_m_sharp(self):
        psi = sample_state(self.spec, 4)
        mean, spread, _ = ring_lz_by_quadrature(psi)
        assert mean == pytest.approx(4.0, rel=1e-12)
        assert spread == pytest.approx(0.0, abs=1e-10)

    def test_superposition_matches_coefficients(self):
        c = 1.0 / math.sqrt(2.0)
        state = RingSuperposition(((2, c), (-1, 1j * c)))
        psi = sample_state(self.spec, state)
        mean_q, spread_q, _ = ring_lz_by_quadrature(psi)
        mean_c, spread_c = ring_lz_stats(self.spec, state)
        assert mean_q == pytest.approx(mean_c, abs=1e-8)
        assert spread_q == pytest.approx(spread_c, abs=1e-8)

    def test_theta_uniform(self):
        psi = sample_state(self.spec, 3)
        mean, spread = ring_theta_by_quadrature(psi)
        assert mean == pytest.approx(math.pi, rel=1e-10)
        assert spread == pytest.approx(2.0 * math.pi / math.sqrt(12.0), abs=1e-8)

    def test_nonperiodic_grid_rejected(self):
        g = GridSpec(0.0, 1.0, 101, "open")
        with pytest.raises(GridError):
            ring_lz_by_quadrature(SampledFunction(g, np.ones(101)))


class TestOracleVsAnalytic:
    @pytest.mark.parametrize("n", [1, 2, 5, 10, 20])
    def test_box(self, n):
        ana = box_uncertainties(Box(), n)
        ora = oracle_uncertainties(Box(), n)
        for field in ("delta_q", "delta_p", "product", "energy"):
            a, o = getattr(ana, field), getattr(ora, field)
            assert abs(o - a) / max(abs(a), 1.0) < 1e-6, field

    @pytest.mark.parametrize("n", [0, 1, 5, 12, 20])
    def test_oscillator(self, n):
        ana = oscillator_uncertainties(Oscillator(), n)
        ora = oracle_uncertainties(Oscillator(), n)
        for field in ("delta_q", "delta_p", "product", "energy"):
            a, o = getattr(ana, field), getattr(ora, field)
            assert abs(o - a) / max(abs(a), 1.0) < 1e-6, field

    @pytest.mark.parametrize("m", [0, 1, -4, 10])
    def test_ring(self, m):
        ana = ring_uncertainties(Ring(), m)
        ora = oracle_uncertainties(Ring(), m)
        for field in ("delta_q", "delta_p", "product", "energy"):
            a, o = getattr(ana, field), getattr(ora, field)
            assert abs(o - a) / max(abs(a), 1.0) < 1e-6, field

    def test_nondefault_parameters(self):
        spec = Box(length=2.0, mass=0.5)
        ana = box_uncertainties(spec, 3)
        ora = oracle_uncertainties(spec, 3)
        assert ora.product == pytest.approx(ana.product, rel=1e-6)


def _bits(values) -> bytes:
    """The bytes of `values` (floats, or arrays of one shape) as one array."""
    return np.array(values).tobytes()


class TestOneMomentPipeline:
    @pytest.mark.parametrize("moments", [momentum_moments, position_moments])
    def test_one_transform_per_box_moment(self, monkeypatch, moments):
        # one DST-I of the samples, or one DCT-I of the density
        calls = []
        rfft = np.fft.rfft

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return rfft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", counted)
        psi = sample_state(Box(), 3)
        moments(psi)
        assert calls == [(2 * (psi.grid.points - 1),)]

    @pytest.mark.parametrize("spec, state", [(Box(), 3), (Oscillator(), 4), (Ring(), -2)])
    def test_norm_checked_once_per_record(self, monkeypatch, spec, state):
        # count quadratures of |psi|^2 itself, wherever they are taken
        psi = sample_state(spec, state)
        density = np.abs(psi.values) ** 2
        calls = []
        quad_ = qnodes.grids.quad

        def counted(grid, y):
            if np.array_equal(y, density):
                calls.append(y)
            return quad_(grid, y)

        for module in (qnodes.grids, qnodes.oracle):
            monkeypatch.setattr(module, "quad", counted)
        qnodes.oracle.record_from_samples(spec, state, psi)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "spec, levels", [(Box(), [1, 3, 4]), (Oscillator(), [0, 4, 9]), (Ring(), [-2, 0, 5])]
    )
    def test_norm_checked_once_per_stack(self, monkeypatch, spec, levels):
        # a stack's records take one quadrature of its |psi|^2, all rows at once
        (stack,) = sample_levels(spec, [levels], default_grid(spec, max(levels, key=abs)))
        density = np.abs(stack.values) ** 2
        calls = []
        quad_ = qnodes.grids.quad

        def counted(grid, y):
            if np.array_equal(y, density):
                calls.append(y)
            return quad_(grid, y)

        for module in (qnodes.grids, qnodes.oracle):
            monkeypatch.setattr(module, "quad", counted)
        assert len(qnodes.oracle.columns_from_stack(spec, stack)["energy"]) == 3
        assert len(calls) == 1

    @pytest.mark.parametrize("spec, state", [(Box(), 3), (Oscillator(), 4), (Ring(), 3)])
    def test_record_uses_the_public_moment_functions(self, monkeypatch, spec, state):
        calls = []
        for name in ("position_moments", "momentum_moments"):
            original = getattr(qnodes.oracle, name)

            def counted(psi, name=name, original=original):
                calls.append(name)
                return original(psi)

            monkeypatch.setattr(qnodes.oracle, name, counted)
        oracle_uncertainties(spec, state)
        assert sorted(calls) == ["momentum_moments", "position_moments"]

    @pytest.mark.parametrize("stacked", [False, True], ids=["sample", "stack"])
    @pytest.mark.parametrize(
        "states",
        [
            [-7, 0, 3],
            [
                RingSuperposition(((2, 1.0 / math.sqrt(2.0)), (-1, 1j / math.sqrt(2.0)))),
                RingSuperposition(((7, math.sqrt(0.3)), (0, math.sqrt(0.7)))),
            ],
        ],
        ids=["definite-m", "superposition"],
    )
    def test_ring_functions_are_views_of_the_moments(self, states, stacked):
        # L_z and theta are the periodic grid's p and x, bit for bit
        grid = default_grid(Ring(), 7)
        rows = np.array([sample_state(Ring(), state, grid).values for state in states])
        for values in [rows] if stacked else rows:
            psi = SampledFunction(grid, values)
            mean_p, mean_p2, var_p = momentum_moments(psi)
            mean_x, var_x = position_moments(psi)
            lz, theta = ring_lz_by_quadrature(psi), ring_theta_by_quadrature(psi)
            assert _bits(lz) == _bits((mean_p, np.sqrt(var_p), mean_p2))
            assert _bits(theta) == _bits((mean_x, np.sqrt(var_x)))
            assert type(lz[0]) is type(mean_p) and type(theta[0]) is type(mean_x)

    def test_unnormalized_sample_rejected_by_record(self):
        psi = sample_state(Box(), 2)
        with pytest.raises(NormalizationError):
            qnodes.oracle.record_from_samples(
                Box(), 2, SampledFunction(psi.grid, 1.1 * psi.values)
            )
