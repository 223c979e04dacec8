import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qnodes import (
    Box,
    DegenerateError,
    GridError,
    GridSpec,
    Oscillator,
    Ring,
    SampledFunction,
    count_nodes,
    predicted_node_count,
    sample_state,
)
from qnodes.nodal import ZERO_RTOL, node_counts
from qnodes.oracle import default_grid, sample_levels


def real_samples(spec, idx, grid=None):
    psi = sample_state(spec, idx, grid)
    return SampledFunction(psi.grid, np.real(psi.values))


class TestCountNodes:
    def test_box_n3(self):
        report = count_nodes(real_samples(Box(), 3, GridSpec(0.0, 1.0, 2001, "dirichlet")))
        assert report.count == 2

    def test_oscillator_ground_nodeless(self):
        assert count_nodes(real_samples(Oscillator(), 0)).count == 0

    def test_ring_m2(self):
        report = count_nodes(real_samples(Ring(), 2))
        assert report.count == 4

    @pytest.mark.parametrize(
        "spec,levels",
        [
            (Box(), range(1, 21)),
            (Oscillator(), range(0, 21)),
            (Ring(), range(-10, 11)),
        ],
    )
    def test_node_law_all_levels(self, spec, levels):
        for idx in levels:
            got = count_nodes(real_samples(spec, idx)).count
            assert got == predicted_node_count(spec, idx), idx

    @pytest.mark.parametrize(
        "spec, idx", [(Box(), 3), (Oscillator(), 4), (Ring(), 2)], ids=["box", "oscillator", "ring"]
    )
    def test_one_sample_counts_as_a_stack_of_one(self, spec, idx):
        psi = sample_state(spec, idx)
        assert node_counts(psi).tolist() == [count_nodes(psi).count]

    def test_stack_rejected(self):
        # the rows' nodes would pool: levels 1, 2, 3 read as one state with 3
        stack = next(sample_levels(Box(), [[1, 2, 3]], default_grid(Box(), 5)))
        with pytest.raises(GridError, match="node_counts"):
            count_nodes(stack)
        assert node_counts(stack).tolist() == [0, 1, 2]

    def test_invariant_under_refinement(self):
        for points in (2001, 8001):
            grid = GridSpec(0.0, 1.0, points, "dirichlet")
            assert count_nodes(real_samples(Box(), 7, grid)).count == 6

    def test_box_node_locations(self):
        grid = GridSpec(0.0, 1.0, 4001, "dirichlet")
        report = count_nodes(real_samples(Box(), 5, grid))
        expected = np.array([1, 2, 3, 4]) / 5.0
        np.testing.assert_allclose(report.locations, expected, atol=grid.h)

    def test_locations_sorted_and_counted(self):
        report = count_nodes(real_samples(Oscillator(), 6))
        assert report.count == len(report.locations) == 6
        assert np.all(np.diff(report.locations) > 0)

    def test_touching_zero_is_not_a_node(self):
        grid = GridSpec(-1.0, 1.0, 2001, "open")
        f = SampledFunction(grid, grid.x**2 + 0.0)
        assert count_nodes(f).count == 0

    def test_degenerate_input_rejected(self):
        grid = GridSpec(0.0, 1.0, 101, "dirichlet")
        values = np.zeros(101)
        values[50] = 1.0
        with pytest.raises(DegenerateError):
            count_nodes(SampledFunction(grid, values))

    def test_wall_zeros_not_counted(self):
        grid = GridSpec(0.0, 1.0, 2001, "dirichlet")
        report = count_nodes(real_samples(Box(), 1, grid))
        assert report.count == 0


def _reference_count_nodes(f):
    """The node counter before its flip search was rewritten: np.sign on
    the significant samples, their coordinates gathered in full, and the
    periodic loop closed by appending the first sample one period on.
    Returns (count, locations), or None where it raises DegenerateError."""
    y = np.real(f.values)
    x = f.grid.x
    magnitude = np.abs(y)
    peak = float(np.max(magnitude))
    if peak == 0.0:
        return None
    eps = ZERO_RTOL * peak
    significant = np.flatnonzero(magnitude > eps)
    if significant.size < 3:
        return None
    if f.grid.boundary != "open" and significant.size < y.size / 2.0:
        return None
    ys = y[significant]
    xs = x[significant]
    if f.grid.boundary == "periodic":
        period = f.grid.upper - f.grid.lower
        ys = np.append(ys, ys[0])
        xs = np.append(xs, xs[0] + period)
    signs = np.sign(ys)
    flips = np.flatnonzero(signs[:-1] != signs[1:])
    locations = xs[flips] - ys[flips] * (xs[flips + 1] - xs[flips]) / (
        ys[flips + 1] - ys[flips]
    )
    if f.grid.boundary == "periodic":
        locations = f.grid.lower + (locations - f.grid.lower) % period
    if f.grid.boundary == "dirichlet":
        h = f.grid.h
        locations = locations[(locations > f.grid.lower + h) & (locations < f.grid.upper - h)]
    return int(locations.size), np.sort(locations)


# ordinary samples, and ones below the zero threshold of any peak >= 1
_SAMPLE = st.one_of(
    st.floats(-10.0, 10.0),
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 3e-10, -3e-10]),
)


@settings(max_examples=300, deadline=None)
@given(
    boundary=st.sampled_from(["open", "dirichlet", "periodic"]),
    lower=st.sampled_from([-1.3, 0.0, 0.5]),
    width=st.sampled_from([1.0, 2.0 * math.pi, 7.25]),
    # runs of one value: sub-threshold runs are bridged, and a run of tiny
    # samples between two of one sign is a graze
    runs=st.lists(st.tuples(_SAMPLE, st.integers(1, 6)), min_size=3, max_size=40),
    wrap_flip=st.booleans(),
)
@example(
    boundary="periodic", lower=0.0, width=1.0, wrap_flip=True,
    runs=[(1.0, 2), (3e-10, 3), (2.0, 4), (-0.0, 1)],
)
@example(
    boundary="dirichlet", lower=0.0, width=1.0, wrap_flip=False,
    runs=[(1e-300, 1), (1.0, 3), (-1.0, 3), (1e-300, 2)],
)
def test_matches_reference_counter(boundary, lower, width, runs, wrap_flip):
    values = np.concatenate([np.full(length, value) for value, length in runs])
    if boundary != "periodic" and values.size % 2 == 0:
        values = np.append(values, values[-1])
    if wrap_flip:
        # significant samples of opposite signs at both ends: on a periodic
        # grid the sign change sits in the wrap cell
        values[0] = abs(values[0]) + 1.0
        values[-1] = -(abs(values[-1]) + 1.0)
    f = SampledFunction(GridSpec(lower, lower + width, values.size, boundary), values)
    expected = _reference_count_nodes(f)
    if expected is None:
        with pytest.raises(DegenerateError):
            count_nodes(f)
        return
    report = count_nodes(f)
    assert report.count == expected[0]
    assert np.array_equal(report.locations, expected[1])
