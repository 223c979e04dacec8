import math

import numpy as np
import pytest
import scipy.integrate

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
import qnodes.oracle
from qnodes.oracle import p2_by_second_derivative


class TestQuad:
    def test_constant(self):
        g = GridSpec(0.0, 1.0, 101, "open")
        assert quad(SampledFunction(g, np.ones(101))) == pytest.approx(1.0, rel=1e-15)

    def test_x_squared_exact(self):
        g = GridSpec(0.0, 1.0, 101, "open")
        assert quad(SampledFunction(g, g.x**2)) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_box_ground_norm(self):
        g = GridSpec(0.0, 1.0, 1001, "open")
        y = 2.0 * np.sin(np.pi * g.x) ** 2
        assert quad(SampledFunction(g, y)) == pytest.approx(1.0, abs=1e-10)

    def test_even_point_count_rejected(self):
        with pytest.raises(GridError):
            GridSpec(0.0, 1.0, 100, "open")

    def test_refinement_order_at_least_three(self):
        f = lambda x: np.exp(np.sin(3.0 * x))
        exact, _ = scipy.integrate.quad(f, 0.0, 1.0, epsabs=1e-14)
        errs = []
        for points in (101, 201):
            g = GridSpec(0.0, 1.0, points, "open")
            errs.append(abs(quad(SampledFunction(g, f(g.x))) - exact))
        assert errs[0] / errs[1] >= 8.0

    def test_periodic_rectangle_rule(self):
        g = GridSpec(0.0, 2.0 * np.pi, 64, "periodic")
        y = np.cos(3.0 * g.x) ** 2
        assert quad(SampledFunction(g, y)) == pytest.approx(np.pi, rel=1e-13)


class TestPositionMoments:
    def test_box_ground_center(self):
        psi = sample_state(Box(), 1, GridSpec(0.0, 1.0, 2001, "dirichlet"))
        mean_x, _ = position_moments(psi)
        assert mean_x == pytest.approx(0.5, abs=1e-10)

    def test_box_n3_second_moment(self):
        psi = sample_state(Box(), 3)
        _, mean_x2 = position_moments(psi)
        assert mean_x2 == pytest.approx(1.0 / 3.0 - 1.0 / (18.0 * np.pi**2), abs=1e-9)

    def test_oscillator_even_density(self):
        psi = sample_state(Oscillator(), 2, GridSpec(-12.0, 12.0, 4001, "open"))
        mean_x, _ = position_moments(psi)
        assert mean_x == pytest.approx(0.0, abs=1e-10)

    def test_unnormalized_rejected(self):
        g = GridSpec(0.0, 1.0, 101, "open")
        with pytest.raises(NormalizationError):
            position_moments(SampledFunction(g, 2.0 * np.ones(101)))


class TestMomentumMoments:
    def test_box_ground_p2(self):
        psi = sample_state(Box(), 1)
        mean_p, mean_p2 = momentum_moments(psi)
        assert mean_p == pytest.approx(0.0, abs=1e-10)
        assert mean_p2 == pytest.approx(np.pi**2, rel=1e-6)

    def test_oscillator_ground_p2(self):
        psi = sample_state(Oscillator(), 0)
        _, mean_p2 = momentum_moments(psi)
        assert mean_p2 == pytest.approx(0.5, abs=1e-8)

    def test_coarse_grid_rejected(self):
        psi = sample_state(Box(), 18, GridSpec(0.0, 1.0, 51, "dirichlet"))
        with pytest.raises(GridError):
            momentum_moments(psi)

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_two_p2_forms_agree(self, n):
        psi = sample_state(Box(), n)
        _, p2 = momentum_moments(psi)
        assert p2_by_second_derivative(psi) == pytest.approx(p2, rel=1e-6)


class TestRingQuadrature:
    spec = Ring()

    def test_definite_m_sharp(self):
        psi = sample_state(self.spec, 4)
        mean, spread = ring_lz_by_quadrature(psi)
        assert mean == pytest.approx(4.0, rel=1e-12)
        assert spread == pytest.approx(0.0, abs=1e-10)

    def test_superposition_matches_coefficients(self):
        c = 1.0 / math.sqrt(2.0)
        state = RingSuperposition(((2, c), (-1, 1j * c)))
        psi = sample_state(self.spec, state)
        mean_q, spread_q = ring_lz_by_quadrature(psi)
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


class TestOneMomentPipeline:
    def test_one_derivative_per_momentum_moment(self, monkeypatch):
        calls = []
        derivative = qnodes.oracle.derivative

        def counted(f):
            calls.append(f)
            return derivative(f)

        monkeypatch.setattr(qnodes.oracle, "derivative", counted)
        momentum_moments(sample_state(Box(), 3))
        assert len(calls) == 1

    @pytest.mark.parametrize("spec, state", [(Box(), 3), (Oscillator(), 4), (Ring(), -2)])
    def test_norm_checked_once_per_record(self, monkeypatch, spec, state):
        calls = []
        check = qnodes.oracle._check_normalized

        def counted(psi):
            calls.append(psi)
            check(psi)

        monkeypatch.setattr(qnodes.oracle, "_check_normalized", counted)
        oracle_uncertainties(spec, state)
        assert len(calls) == 1

    def test_unnormalized_sample_rejected_by_record(self):
        psi = sample_state(Box(), 2)
        with pytest.raises(NormalizationError):
            qnodes.oracle.record_from_samples(
                Box(), 2, SampledFunction(psi.grid, 1.1 * psi.values)
            )
