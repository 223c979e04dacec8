import math

import numpy as np
import pytest
import scipy.integrate
from numpy.polynomial.hermite import hermval

from qnodes import DomainError, Oscillator, default_grid, oscillator_psi
from qnodes.special import MAX_OSCILLATOR_N, oscillator_ladder


def hermite_closed_form(n, x):
    """H_n(x) by numpy's Clenshaw evaluation of the Hermite series."""
    coef = np.zeros(n + 1)
    coef[n] = 1.0
    return hermval(x, coef)


def hermite_factor(n, x):
    """H_n(x) recovered from psi_n(x) = H_n(x) e^{-x^2/2} / sqrt(2^n n! sqrt(pi))."""
    x = np.asarray(x, dtype=float)
    norm = math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))
    return oscillator_psi(Oscillator(), n, x) * norm * np.exp(0.5 * x**2)


class TestHermite:
    """The physicists' Hermite polynomial inside oscillator_psi."""

    def test_h0_is_one(self):
        assert hermite_factor(0, 0.7) == pytest.approx(1.0, rel=1e-15)

    def test_h2_at_one(self):
        # 4x^2 - 2 at x = 1
        assert hermite_factor(2, 1.0) == pytest.approx(2.0, abs=1e-14)

    def test_h3_at_half(self):
        # 8x^3 - 12x at x = 0.5
        assert hermite_factor(3, 0.5) == pytest.approx(-5.0, abs=1e-13)

    @pytest.mark.parametrize("n", [1, 4, 9, 15])
    def test_matches_numpy_hermval(self, n):
        x = np.linspace(-3.0, 3.0, 41)
        np.testing.assert_allclose(hermite_factor(n, x), hermite_closed_form(n, x), rtol=1e-12)

    def test_recurrence_invariant(self):
        x = np.linspace(-2.0, 2.0, 17)
        for k in range(1, 12):
            lhs = hermite_factor(k + 1, x)
            rhs = 2.0 * x * hermite_factor(k, x) - 2.0 * k * hermite_factor(k - 1, x)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-10)

    def test_negative_degree_rejected(self):
        with pytest.raises(DomainError):
            oscillator_psi(Oscillator(), -1, 0.0)

    def test_overflow_raises(self):
        # H_400 leaves double range on this argument; no such degree is built
        with pytest.raises(OverflowError):
            oscillator_psi(Oscillator(), 400, 900.0)


class TestOscillatorPsi:
    spec = Oscillator()

    def test_ground_state_peak(self):
        assert oscillator_psi(self.spec, 0, 0.0) == pytest.approx(
            np.pi**-0.25, rel=1e-14
        )

    def test_first_excited_node_at_origin(self):
        assert oscillator_psi(self.spec, 1, 0.0) == 0.0

    @pytest.mark.parametrize("n", range(0, 21))
    def test_unit_norm(self, n):
        x = np.linspace(-12.0, 12.0, 4001)
        norm = scipy.integrate.simpson(oscillator_psi(self.spec, n, x) ** 2, x=x)
        assert norm == pytest.approx(1.0, abs=1e-10)

    def test_orthonormality_up_to_15(self):
        x = np.linspace(-14.0, 14.0, 4001)
        states = [oscillator_psi(self.spec, n, x) for n in range(16)]
        for i in range(16):
            for j in range(i, 16):
                overlap = scipy.integrate.simpson(states[i] * states[j], x=x)
                expected = 1.0 if i == j else 0.0
                assert overlap == pytest.approx(expected, abs=1e-8)

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 10])
    def test_parity(self, n):
        x = np.linspace(0.1, 6.0, 37)
        left = oscillator_psi(self.spec, n, -x)
        right = oscillator_psi(self.spec, n, x)
        np.testing.assert_array_equal(left, (-1.0) ** n * right)

    def test_scales_with_parameters(self):
        # ground state value (m w / pi hbar)^{1/4} at the origin
        spec = Oscillator(mass=2.0, omega=3.0)
        assert oscillator_psi(spec, 0, 0.0) == pytest.approx(
            (6.0 / np.pi) ** 0.25, rel=1e-14
        )

    def test_degree_cap(self):
        with pytest.raises(OverflowError):
            oscillator_psi(self.spec, 201, 0.0)

    @pytest.mark.parametrize("n", [2, 5, 10, 20])
    def test_matches_hermite_closed_form(self, n):
        # past the turning point sqrt(2n + 1) into the decaying tail
        x = np.linspace(-8.0, 8.0, 161)
        expected = hermite_closed_form(n, x) * np.exp(-0.5 * x**2)
        expected /= math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))
        got = oscillator_psi(self.spec, n, x)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-14)

    def test_high_degree_stable(self):
        x = np.linspace(-25.0, 25.0, 6001)
        psi = oscillator_psi(self.spec, 200, x)
        assert np.all(np.isfinite(psi))
        norm = scipy.integrate.simpson(psi**2, x=x)
        assert norm == pytest.approx(1.0, abs=1e-6)


class TestOscillatorLadder:
    """The ladder is in natural units: oscillator_psi of Oscillator()."""

    spec = Oscillator()

    def test_every_level_equals_oscillator_psi_bit_for_bit(self):
        x = default_grid(self.spec, MAX_OSCILLATOR_N, 1001).x
        count = 0
        for n, phi in enumerate(oscillator_ladder(x, MAX_OSCILLATOR_N)):
            assert np.array_equal(phi, oscillator_psi(self.spec, n, x)), n
            count += 1
        assert count == MAX_OSCILLATOR_N + 1

    def test_yielded_levels_are_distinct_arrays(self):
        x = np.linspace(-5.0, 5.0, 11)
        levels = list(oscillator_ladder(x, 3))
        assert len({id(phi) for phi in levels}) == 4
        assert np.array_equal(levels[1], oscillator_psi(self.spec, 1, x))

    def test_negative_top_level_rejected(self):
        with pytest.raises(DomainError):
            next(oscillator_ladder(0.0, -1))

    def test_degree_cap(self):
        with pytest.raises(OverflowError):
            next(oscillator_ladder(0.0, MAX_OSCILLATOR_N + 1))
