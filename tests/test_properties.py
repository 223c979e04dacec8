"""Property-based checks of the numerical invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnodes import (
    Box,
    GridSpec,
    Oscillator,
    Ring,
    RingSuperposition,
    box_uncertainties,
    oscillator_psi,
    oscillator_uncertainties,
    predicted_node_count,
    quad,
    ring_lz_stats,
    validate_state,
)

levels_box = st.integers(min_value=1, max_value=60)
levels_osc = st.integers(min_value=0, max_value=60)
levels_ring = st.integers(min_value=-20, max_value=20)


@given(levels_box)
def test_box_product_above_bound(n):
    rec = box_uncertainties(Box(), n)
    assert rec.product >= rec.bound


@given(levels_box)
def test_box_delta_p_linear(n):
    spec = Box()
    assert box_uncertainties(spec, 2 * n).delta_p == pytest.approx(
        2.0 * box_uncertainties(spec, n).delta_p, rel=1e-13
    )


@given(levels_osc)
def test_oscillator_product_is_ladder(n):
    rec = oscillator_uncertainties(Oscillator(), n)
    assert rec.product == n + 0.5


@given(levels_box)
def test_box_product_strictly_increasing(n):
    spec = Box()
    assert box_uncertainties(spec, n + 1).product > box_uncertainties(spec, n).product


@given(levels_ring)
def test_ring_node_count_even_in_m(m):
    spec = Ring()
    assert predicted_node_count(spec, m) == predicted_node_count(spec, -m)


@given(levels_ring)
def test_validate_state_idempotent(m):
    spec = Ring()
    assert validate_state(spec, validate_state(spec, m)) == m


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=-6, max_value=6),
            st.complex_numbers(
                max_magnitude=1.0, allow_nan=False, allow_infinity=False
            ),
        ),
        min_size=1,
        max_size=5,
        unique_by=lambda t: t[0],
    ).filter(lambda terms: sum(abs(c) ** 2 for _, c in terms) > 1e-3)
)
def test_superposition_lz_spread_matches_enumeration(terms):
    norm = math.sqrt(sum(abs(c) ** 2 for _, c in terms))
    state = RingSuperposition(tuple((m, c / norm) for m, c in terms))
    mean, spread = ring_lz_stats(Ring(), state)
    # brute-force enumeration over measurement outcomes
    probs = [(m, abs(c / norm) ** 2) for m, c in terms]
    mean_bf = sum(p * m for m, p in probs)
    var_bf = sum(p * (m - mean_bf) ** 2 for m, p in probs)
    assert mean == pytest.approx(mean_bf, abs=1e-9)
    assert spread == pytest.approx(math.sqrt(max(var_bf, 0.0)), abs=1e-9)


coefficient = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


@given(
    st.integers(min_value=3, max_value=64),
    st.lists(st.tuples(coefficient, coefficient), min_size=1, max_size=64),
    st.floats(min_value=0.5, max_value=20.0),
)
def test_rectangle_rule_exact_for_trig_polynomials(points, coeffs, length):
    # sum_k a_k cos(k w x) + b_k sin(k w x) over one period 2 pi / w, sampled
    # at exact phases: every degree below the point count integrates to a_0
    # times the period
    a, b = np.array(coeffs[:points]).T
    grid = GridSpec(0.0, length, points, "periodic")
    phase = 2.0 * math.pi * np.arange(a.size)[:, None] * np.arange(points) / points
    got = quad(grid, a @ np.cos(phase) + b @ np.sin(phase))
    scale = length * (np.abs(a).sum() + np.abs(b).sum() + 1.0)
    assert got == pytest.approx(a[0] * length, abs=1e-14 * scale)


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=25), st.floats(min_value=0.0, max_value=8.0))
def test_oscillator_parity_pointwise(n, x):
    spec = Oscillator()
    left = oscillator_psi(spec, n, -x)
    right = oscillator_psi(spec, n, x)
    assert left == (-1.0) ** n * right
