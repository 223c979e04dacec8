"""A stack of samples gives what its rows give one at a time, bit for bit.

Sweeps take their moments, guards and node counts once per stack of
levels (`grids.SampledFunction` with a (levels, points) array).  Here each
stacked result is compared with the single-sample functions on the same
grid, a guard that fails inside a stack with the error a level-by-level
sweep raises, and a sweep's peak memory with its level count.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import qnodes.report
from qnodes import (
    Box,
    DegenerateError,
    GridError,
    NormalizationError,
    Oscillator,
    Ring,
    SampledFunction,
    SweepConfig,
    count_nodes,
    run_sweep,
    sample_state,
    scales,
)
from qnodes.eigensolver import (
    _apply,
    _parity_pairs,
    build_hamiltonian,
    default_eigen_grid,
    eigen_records,
    ring_momentum_state,
    solve_lowest,
)
from qnodes.grids import STACK_BYTES, quad, stack_rows
from qnodes.model import predicted_node_count
from qnodes.nodal import _nodes, node_counts
from qnodes.oracle import default_grid, record_from_samples, records_from_stack, sample_levels

ALL = ("analytic", "oracle", "eigen")
FIELDS = ("energy", "delta_q", "delta_p", "product", "bound", "nodes_predicted")

SWEEPS = {
    "box-1:150": (Box(), range(1, 151), ("analytic", "oracle")),
    "box-1:40": (Box(length=1.7, mass=0.6), range(1, 41), ALL),
    "oscillator-0:200": (Oscillator(), range(201), ("analytic", "oracle")),
    "oscillator-0:60": (Oscillator(mass=1.7, omega=0.6), range(61), ALL),
    "ring-70:70": (Ring(moment_of_inertia=0.7), range(-70, 71), ALL),
    "ring-10:10": (Ring(), range(-10, 11), ALL),
}
# each of these needs at least two stacks
MULTI_STACK = ("box-1:150", "box-1:40", "oscillator-0:200", "ring-70:70")


def _rows_per_stack(spec, levels, paths):
    points = []
    if "eigen" in paths:
        k = max(predicted_node_count(spec, l) for l in levels) + 1
        points.append(default_eigen_grid(spec, k).points)
    if "analytic" in paths or "oracle" in paths:
        points.append(default_grid(spec, max(levels, key=abs)).points)
    return stack_rows((16 if isinstance(spec, Ring) else 8) * max(points))


def _eigen_state(spec, result, level):
    """(single sample of the level's computed state, index of its energy)."""
    if isinstance(spec, Ring):
        return ring_momentum_state(result, level), 0 if level == 0 else 2 * abs(level) - 1
    pos = level - 1 if isinstance(spec, Box) else level
    return result.states[pos], pos


@pytest.mark.parametrize("name", list(SWEEPS))
def test_sweep_rows_equal_single_sample_functions(name):
    spec, levels, paths = SWEEPS[name]
    levels = tuple(levels)
    if name in MULTI_STACK:
        assert len(levels) > _rows_per_stack(spec, levels, paths)
    rows = run_sweep(SweepConfig(spec, levels, paths))
    units = scales(spec)
    grid = default_grid(spec, max(levels, key=abs))
    result = None
    if "eigen" in paths:
        k = max(predicted_node_count(spec, l) for l in levels) + 1
        result = solve_lowest(build_hamiltonian(spec, default_eigen_grid(spec, k)), k)
    for row in rows:
        level = row.level
        if row.path == "eigen":
            psi, pos = _eigen_state(spec, result, level)
            counted = count_nodes(psi).count
            rec = replace(
                record_from_samples(spec, level, psi),
                energy=float(result.energies[pos]),
                nodes_measured=counted,
            ).rescaled(units)
        else:
            psi = sample_state(spec, level, grid)
            counted = count_nodes(psi).count
            rec = record_from_samples(spec, level, psi).rescaled(units)
            if row.path == "analytic":
                rec = qnodes.report._analytic_record(spec, level)
        for field in FIELDS:
            assert getattr(row, field) == getattr(rec, field), (level, row.path, field)
        assert row.nodes_counted == counted, (level, row.path)


@pytest.mark.parametrize(
    "spec, levels",
    [(Box(), range(1, 41)), (Oscillator(), range(0, 201, 3)), (Ring(), range(-20, 21))],
    ids=["box", "oscillator", "ring"],
)
def test_stack_rows_equal_samples_and_node_locations(spec, levels):
    levels = list(levels)
    grid = default_grid(spec, max(levels, key=abs))
    (stack,) = sample_levels(spec, [levels], grid)
    rows, locations = _nodes(stack)
    assert node_counts(stack).tolist() == np.bincount(rows, minlength=len(levels)).tolist()
    for i, level in enumerate(levels):
        psi = sample_state(spec, level, grid)
        assert np.array_equal(stack.values[i], psi.values), level
        assert np.array_equal(np.sort(locations[rows == i]), count_nodes(psi).locations), level


@pytest.mark.parametrize(
    "spec, k", [(Box(), 40), (Oscillator(), 41), (Ring(), 41)], ids=["box", "oscillator", "ring"]
)
def test_eigen_block_equals_per_state_loop(spec, k):
    # the per-state loop that `solve_lowest` ran before its block operations
    ham = build_hamiltonian(spec, default_eigen_grid(spec, k))
    result = solve_lowest(ham, k)
    energies, vecs, _ = _parity_pairs(ham, k)
    for j in range(k):
        v = vecs[:, j]
        assert result.residuals[j] == float(np.linalg.norm(_apply(ham, v) - energies[j] * v))
        full = np.concatenate(([0.0], v, [0.0])) if isinstance(spec, Box) else v
        full = full / math.sqrt(SampledFunction(ham.grid, full).norm)
        lead = np.flatnonzero(np.abs(full) > 1e-8 * np.max(np.abs(full)))[0]
        if full[lead] < 0:
            full = -full
        assert np.array_equal(result.states[j].values, full), j
    if isinstance(spec, Ring):
        for m in range(-(k // 2), k // 2 + 1):
            if m:
                u, w = result.states[2 * abs(m) - 1].values, result.states[2 * abs(m)].values
                psi = (u + 1j * math.copysign(1.0, m) * w) / math.sqrt(2.0)
                assert np.array_equal(ring_momentum_state(result, m).values, psi), m
    # and the stacked records are each state's own
    levels = {Box: range(1, k + 1), Oscillator: range(k), Ring: range(-(k // 2), k // 2 + 1)}
    levels = levels[type(spec)]
    for level, rec in zip(levels, eigen_records(spec, result, levels)):
        psi, pos = _eigen_state(spec, result, level)
        assert rec == replace(
            record_from_samples(spec, level, psi),
            energy=float(result.energies[pos]),
            nodes_measured=count_nodes(psi).count,
        ), level


def _oscillator_rows():
    """Oscillator levels 0, 1, 2 on one grid, and a level-1 row with a
    small Nyquist-band ripple: it fails only the band guard."""
    grid = default_grid(Oscillator(), 2)
    (stack,) = sample_levels(Oscillator(), [[0, 1, 2]], grid)
    good = stack.values
    ripple = good[1] * (1.0 + 1e-3 * np.cos(np.pi * np.arange(grid.points)))
    ripple = ripple / math.sqrt(float(quad(grid, ripple**2)))
    return grid, good, ripple


class TestFirstFailingLevel:
    """A guard that fails inside a stack raises the error of the first
    failing level, with the message its single sample raises."""

    def test_band_failure_before_a_later_norm_failure(self):
        grid, good, ripple = _oscillator_rows()
        stack = SampledFunction(grid, np.stack([good[0], ripple, 1.1 * good[2]]))
        with pytest.raises(GridError) as single:
            record_from_samples(Oscillator(), 1, SampledFunction(grid, ripple))
        assert "of <p^2>, above 1e-10" in str(single.value)
        with pytest.raises(GridError) as stacked:
            records_from_stack(Oscillator(), [0, 1, 2], stack)
        assert str(stacked.value) == str(single.value)
        assert stacked.value.row == 1

    def test_norm_failure_before_a_later_band_failure(self):
        grid, good, ripple = _oscillator_rows()
        stack = SampledFunction(grid, np.stack([good[0], 1.1 * good[1], ripple]))
        with pytest.raises(NormalizationError) as single:
            record_from_samples(Oscillator(), 1, SampledFunction(grid, 1.1 * good[1]))
        with pytest.raises(NormalizationError) as stacked:
            records_from_stack(Oscillator(), [0, 1, 2], stack)
        assert str(stacked.value) == str(single.value)
        assert stacked.value.row == 1

    def test_sweep_names_the_first_failing_level(self, monkeypatch):
        grid, good, ripple = _oscillator_rows()
        stack = SampledFunction(grid, np.stack([good[0], ripple, 1.1 * good[2]]))
        def sampled(spec, stacks, grid):
            return iter([stack])

        monkeypatch.setattr(qnodes.report, "sample_levels", sampled)
        with pytest.raises(GridError) as single:
            record_from_samples(Oscillator(), 1, SampledFunction(grid, ripple))
        with pytest.raises(GridError) as swept:
            run_sweep(SweepConfig(Oscillator(), (0, 1, 2), ("analytic", "oracle")))
        assert str(swept.value) == f"level 1: {single.value}"

    def test_node_count_failure_names_its_row(self):
        grid, good, _ = _oscillator_rows()
        stack = SampledFunction(grid, np.stack([good[0], good[1], np.zeros(grid.points)]))
        with pytest.raises(DegenerateError, match="identically zero") as stacked:
            node_counts(stack)
        assert stacked.value.row == 2


def _peak_traced_bytes(cfg) -> int:
    run_sweep(cfg)
    tracemalloc.start()
    try:
        run_sweep(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory_stops_growing_with_the_level_count():
    rows = stack_rows(8 * default_grid(Box()).points)
    paths = ("analytic", "oracle")
    small = _peak_traced_bytes(SweepConfig(Box(), tuple(range(1, 2 * rows + 1)), paths))
    large = _peak_traced_bytes(SweepConfig(Box(), tuple(range(1, 12 * rows + 1)), paths))
    # six times the levels (12 stacks, not 2) add less than one stack's
    # samples: only the result rows grow
    assert large - small < STACK_BYTES
