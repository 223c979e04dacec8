import math

import numpy as np
import pytest
import scipy.integrate

from qnodes import (
    Box,
    Constants,
    DomainError,
    Oscillator,
    Ring,
    RingSuperposition,
    Scales,
    UncertaintyRecord,
    box_energy,
    box_psi,
    box_uncertainties,
    momentum_moments,
    oscillator_energy,
    oscillator_uncertainties,
    position_moments,
    ring_density,
    ring_energy,
    ring_lz_stats,
    ring_psi,
    ring_theta_by_quadrature,
    ring_uncertainties,
    sample_state,
)
from qnodes.analytic import UNIFORM_THETA_SPREAD

UNIFORM = 2.0 * math.pi / math.sqrt(12.0)


class TestBoxWavefunction:
    spec = Box()

    def test_midpoint_ground_state(self):
        assert box_psi(self.spec, 1, 0.5) == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_node_at_midpoint(self):
        assert box_psi(self.spec, 2, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_boundary_condition(self):
        assert box_psi(self.spec, 1, 0.0) == 0.0
        assert box_psi(self.spec, 1, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_outside_domain_rejected(self):
        with pytest.raises(DomainError):
            box_psi(self.spec, 1, 1.5)
        with pytest.raises(DomainError):
            box_psi(self.spec, 1, -0.1)


class TestBoxMoments:
    """Moments of box states: <x^2> = Delta x^2 + (a/2)^2 and <p^2> =
    Delta p^2 from the closed-form spreads; <x> and <p> by quadrature."""

    spec = Box()

    def test_mean_x_is_center(self):
        mean_x, _ = position_moments(sample_state(self.spec, 1))
        assert mean_x == pytest.approx(0.5, abs=1e-15)

    def test_mean_x2_against_quadrature(self):
        # independent oracle: direct integral of x^2 |psi_1|^2
        oracle, _ = scipy.integrate.quad(
            lambda x: x**2 * 2.0 * math.sin(math.pi * x) ** 2, 0.0, 1.0
        )
        got = box_uncertainties(self.spec, 1).delta_q ** 2 + 0.5**2
        assert got == pytest.approx(oracle, abs=1e-12)
        assert got == pytest.approx(0.2826727415121644, rel=1e-12)

    def test_mean_p2_n2(self):
        got = box_uncertainties(self.spec, 2).delta_p ** 2
        assert got == pytest.approx(4.0 * math.pi**2, rel=1e-15)
        # cross-check via integral of |psi'|^2
        oracle, _ = scipy.integrate.quad(
            lambda x: (2.0 * math.pi * math.sqrt(2.0) * math.cos(2 * math.pi * x)) ** 2,
            0.0,
            1.0,
        )
        assert got == pytest.approx(oracle, rel=1e-12)

    def test_mean_p_zero(self):
        # a real state: the real part of psi* (-i) psi' is exactly zero
        assert momentum_moments(sample_state(self.spec, 3))[0] == 0.0

    @pytest.mark.parametrize("n", [1, 2, 5, 17])
    def test_variances_nonnegative(self, n):
        psi = sample_state(self.spec, n)
        _, var_x = position_moments(psi)
        mean_p, mean_p2, _ = momentum_moments(psi)
        assert var_x >= 0.0
        assert mean_p2 - mean_p**2 >= 0.0


class TestBoxUncertainties:
    spec = Box()

    def test_ground_state_product(self):
        # pi sqrt(1/12 - 1/(2 pi^2)) evaluated independently
        expected = math.pi * math.sqrt(1.0 / 12.0 - 1.0 / (2.0 * math.pi**2))
        rec = box_uncertainties(self.spec, 1)
        assert rec.product == pytest.approx(expected, rel=1e-15)
        assert rec.product == pytest.approx(0.5678618083866118, rel=1e-13)

    def test_delta_p_n2(self):
        assert box_uncertainties(self.spec, 2).delta_p == pytest.approx(
            2.0 * math.pi, rel=1e-15
        )

    def test_delta_x_limit(self):
        assert box_uncertainties(self.spec, 10**6).delta_q == pytest.approx(
            1.0 / math.sqrt(12.0), rel=1e-10
        )

    def test_delta_p_exactly_linear(self):
        for n in range(1, 51):
            assert box_uncertainties(self.spec, 2 * n).delta_p == pytest.approx(
                2.0 * box_uncertainties(self.spec, n).delta_p, rel=1e-15
            )

    def test_delta_x_increasing_and_bounded(self):
        values = [box_uncertainties(self.spec, n).delta_q for n in range(1, 51)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(v < 1.0 / math.sqrt(12.0) for v in values)

    def test_product_monotone(self):
        values = [box_uncertainties(self.spec, n).product for n in range(1, 51)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_node_prediction_attached(self):
        assert box_uncertainties(self.spec, 4).nodes_predicted == 3

    def test_energy(self):
        assert box_energy(self.spec, 1) == pytest.approx(math.pi**2 / 2.0, rel=1e-15)

    def test_length_scaling(self):
        wide = Box(length=3.0)
        assert box_uncertainties(wide, 1).delta_p == pytest.approx(
            math.pi / 3.0, rel=1e-15
        )


class TestRing:
    spec = Ring()

    def test_m0_constant(self):
        assert ring_psi(self.spec, 0, 1.234) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi), rel=1e-15
        )

    def test_m1_at_pi(self):
        assert ring_psi(self.spec, 1, math.pi) == pytest.approx(
            -1.0 / math.sqrt(2.0 * math.pi), abs=1e-15
        )

    def test_m2_at_zero(self):
        assert ring_psi(self.spec, 2, 0.0) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi), rel=1e-15
        )

    def test_periodicity(self):
        for m in (-3, 2):
            a = ring_psi(self.spec, m, 1.1)
            b = ring_psi(self.spec, m, 1.1 + 2.0 * math.pi)
            assert a == pytest.approx(b, rel=1e-12)

    def test_energy_values(self):
        assert ring_energy(self.spec, 0) == 0.0
        assert ring_energy(self.spec, 2) == pytest.approx(2.0, rel=1e-15)
        assert ring_energy(self.spec, -2) == ring_energy(self.spec, 2)

    def test_density_flat(self):
        theta = np.linspace(0.0, 2.0 * np.pi, 101)
        rho0 = ring_density(self.spec, 0, 0.0)
        assert rho0 == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-15)
        rho = ring_density(self.spec, 5, theta)
        assert np.max(rho) == np.min(rho)

    def test_density_normalized(self):
        theta = np.linspace(0.0, 2.0 * np.pi, 1001)
        total = scipy.integrate.simpson(ring_density(self.spec, 3, theta), x=theta)
        assert total == pytest.approx(1.0, abs=1e-12)


class TestRingLzStats:
    spec = Ring()

    def test_definite_m(self):
        assert ring_lz_stats(self.spec, 3) == (3.0, 0.0)
        assert ring_lz_stats(self.spec, 0) == (0.0, 0.0)

    def test_symmetric_pair(self):
        c = 1.0 / math.sqrt(2.0)
        mean, spread = ring_lz_stats(self.spec, RingSuperposition(((1, c), (-1, c))))
        # two equally likely outcomes +hbar and -hbar
        assert mean == pytest.approx(0.0, abs=1e-15)
        assert spread == pytest.approx(1.0, rel=1e-12)

    def test_hbar_scaling(self):
        from qnodes import Constants

        spec = Ring(constants=Constants(hbar=2.0))
        assert ring_lz_stats(spec, 3) == (6.0, 0.0)


class TestRingThetaStats:
    """The closed-form ring Delta theta against the oracle's quadrature."""

    spec = Ring()

    def theta_stats(self, state):
        return ring_theta_by_quadrature(sample_state(self.spec, state))

    def test_definite_m_uniform(self):
        mean, spread = self.theta_stats(7)
        assert mean == pytest.approx(math.pi, rel=1e-12)
        assert spread == pytest.approx(UNIFORM, abs=1e-12)

    def test_superposition_peaked_at_branch_cut(self):
        # |c0 + c1 e^{i theta}|^2 peaks at theta = 0: on the fixed branch
        # [0, 2 pi) the mass sits at both ends, so the naive spread exceeds
        # the uniform value.  Closed form: variance = pi^2/3 + 2.
        c = 1.0 / math.sqrt(2.0)
        _, spread = self.theta_stats(RingSuperposition(((0, c), (1, c))))
        assert spread == pytest.approx(math.sqrt(math.pi**2 / 3.0 + 2.0), rel=1e-9)
        assert spread > UNIFORM

    def test_superposition_peaked_mid_branch(self):
        # the i phase moves the density peak to 3 pi/2: variance pi^2/3 - 1
        c = 1.0 / math.sqrt(2.0)
        _, spread = self.theta_stats(RingSuperposition(((0, c), (1, 1j * c))))
        assert spread == pytest.approx(math.sqrt(math.pi**2 / 3.0 - 1.0), rel=1e-9)
        assert spread < UNIFORM

    @pytest.mark.parametrize("m", range(-10, 11))
    def test_quadrature_cross_checks_closed_form(self, m):
        # ring_uncertainties returns the closed form; the quadrature of the
        # uniform density must reproduce it for every definite m
        _, spread = self.theta_stats(m)
        assert abs(spread - UNIFORM) <= 1e-15 * UNIFORM
        assert ring_uncertainties(self.spec, m).delta_q == UNIFORM_THETA_SPREAD == UNIFORM

    def test_ring_record_no_bound_claim(self):
        rec = ring_uncertainties(self.spec, 4)
        assert rec.delta_p == 0.0
        assert rec.product == 0.0
        assert rec.nodes_predicted == 8


class TestOscillator:
    spec = Oscillator()

    def test_energies(self):
        assert oscillator_energy(self.spec, 0) == 0.5
        assert oscillator_energy(self.spec, 4) == 4.5
        assert oscillator_energy(Oscillator(omega=2.0), 0) == 1.0

    def test_ground_state_saturates_bound(self):
        rec = oscillator_uncertainties(self.spec, 0)
        assert rec.product == rec.bound == 0.5
        assert rec.delta_q == pytest.approx(math.sqrt(0.5), rel=1e-15)
        assert rec.delta_p == pytest.approx(math.sqrt(0.5), rel=1e-15)

    def test_product_ladder(self):
        assert oscillator_uncertainties(self.spec, 3).product == pytest.approx(
            3.5, rel=1e-15
        )

    def test_product_exact_in_n(self):
        for n in range(0, 101):
            rec = oscillator_uncertainties(self.spec, n)
            assert rec.product == (n + 0.5) * 1.0

    def test_product_monotone(self):
        values = [oscillator_uncertainties(self.spec, n).product for n in range(51)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_expectations_symmetry(self):
        # <x> = <p> = 0 by parity, so <x^2> = Delta x^2 and <p^2> = Delta p^2;
        # the open grid is exactly antisymmetric, so both are an exact 0.0
        for n in range(21):
            psi = sample_state(self.spec, n)
            assert position_moments(psi)[0] == 0.0, n
            assert momentum_moments(psi)[0] == 0.0, n
        rec = oscillator_uncertainties(self.spec, 2)
        assert rec.delta_q**2 == pytest.approx(2.5, rel=1e-15)
        assert rec.delta_p**2 == pytest.approx(2.5, rel=1e-15)

    def test_parameter_scaling(self):
        spec = Oscillator(mass=2.0, omega=0.5)
        rec = oscillator_uncertainties(spec, 1)
        assert rec.delta_q == pytest.approx(math.sqrt(1.5 / 1.0), rel=1e-15)
        assert rec.delta_p == pytest.approx(math.sqrt(1.5), rel=1e-15)
        assert rec.product == pytest.approx(1.5, rel=1e-15)


class TestOverflowingValues:
    """Finite natural-unit values whose physical value is too large for a double."""

    def test_box_energy_raises_domain_error(self):
        # energy scale 1e307: E_1 ~ 4.9e307 is representable, E_2 is not
        spec = Box(mass=1e-107, constants=Constants(1e100))
        assert box_energy(spec, 1) == pytest.approx(0.5 * math.pi**2 * 1e307, rel=1e-15)
        with pytest.raises(
            DomainError,
            match=r"^energy 19\.739208802178716 overflows to inf at the energy scale 1e\+307$",
        ):
            box_energy(spec, 2)

    @pytest.mark.parametrize(
        "energy, spec, level",
        [
            (ring_energy, Ring(moment_of_inertia=1e-307), 10),
            (oscillator_energy, Oscillator(omega=1e307), 18),
        ],
    )
    def test_every_energy_function_raises(self, energy, spec, level):
        with pytest.raises(DomainError, match="overflows to inf at the energy scale"):
            energy(spec, level)

    def test_record_names_the_overflowing_column(self):
        record = UncertaintyRecord(
            delta_q=1.0, delta_p=2.0, product=2.0, bound=0.5, energy=1.0, nodes_predicted=0
        )
        units = Scales(length=1.0, momentum=1e308, energy=1.0, hbar=1.0)
        with pytest.raises(
            DomainError, match=r"^delta_p 2\.0 overflows to inf at the momentum scale 1e\+308$"
        ):
            record.rescaled(units)
