"""A stack of samples gives what its rows give one at a time, bit for bit.

Sweeps take their moments, guards and node counts once per stack of
levels (`grids.SampledFunction` with a (levels, points) array).  Here each
stacked result is compared with the single-sample functions on the same
grid, a guard that fails inside a stack with the error a level-by-level
sweep raises, a sweep's peak memory with its level count, and the page
faults of its stacks with the allocator policy `grids` sets at import.
"""

import ctypes
import functools
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qnodes.oracle
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
    UncertaintyRecord,
    Constants,
    DomainError,
    Scales,
    box_uncertainties,
    count_nodes,
    eigen_uncertainties,
    oracle_uncertainties,
    oscillator_uncertainties,
    ring_uncertainties,
    run_sweep,
    sample_state,
    scales,
)
from qnodes.analytic import COLUMN_UNITS, uncertainty_columns
from qnodes.eigensolver import (
    _parity_pairs,
    _residuals,
    build_hamiltonian,
    default_eigen_grid,
    eigen_columns,
    ring_momentum_state,
    solve_lowest,
)
from qnodes.grids import STACK_BYTES, keep_stack_memory, quad, stack_rows
from qnodes.model import predicted_node_count
from qnodes.nodal import _nodes, node_counts
from qnodes.report import _max_disagreement
from qnodes.oracle import columns_from_stack, default_grid, record_from_samples, sample_levels

ALL = ("analytic", "oracle", "eigen")
CLOSED_FORMS = {Box: box_uncertainties, Ring: ring_uncertainties, Oscillator: oscillator_uncertainties}
FIELDS = ("energy", "delta_q", "delta_p", "product", "bound", "nodes_predicted")

SWEEPS = {
    "box-1:250": (Box(), range(1, 251), ("analytic", "oracle")),
    "box-1:70": (Box(length=1.7, mass=0.6), range(1, 71), ALL),
    "box-1:300": (Box(length=1.7, mass=0.6), range(1, 301), ALL),
    "oscillator-0:200": (Oscillator(), range(201), ("analytic", "oracle")),
    "oscillator-0:60": (Oscillator(mass=1.7, omega=0.6), range(61), ALL),
    "ring-70:70": (Ring(moment_of_inertia=0.7), range(-70, 71), ALL),
    "ring-10:10": (Ring(), range(-10, 11), ALL),
}
# each of these needs at least two stacks
MULTI_STACK = ("box-1:250", "box-1:300", "oscillator-0:200", "ring-70:70")


def _rows_per_stack(spec, levels):
    # every path of a sweep works on the grid of its top level
    grid = default_grid(spec, max(levels, key=abs))
    return stack_rows((16 if isinstance(spec, Ring) else 8) * grid.points)


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
        assert len(levels) > _rows_per_stack(spec, levels)
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
                rec = CLOSED_FORMS[type(spec)](spec, level)
        for field in FIELDS:
            assert getattr(row, field) == getattr(rec, field), (level, row.path, field)
        assert row.nodes_counted == counted, (level, row.path)


@pytest.mark.parametrize("name", [name for name, (*_, paths) in SWEEPS.items() if paths == ALL])
def test_three_path_sweep_samples_on_its_eigen_grid(name, monkeypatch):
    spec, levels, _ = SWEEPS[name]
    seen = {"sampled": [], "solved": []}

    def spy(key, function):
        def wrapper(spec, *args):
            seen[key].append(args[-1])
            return function(spec, *args)
        return wrapper

    monkeypatch.setattr(qnodes.report, "sample_levels", spy("sampled", qnodes.report.sample_levels))
    monkeypatch.setattr(qnodes.report, "build_hamiltonian", spy("solved", qnodes.report.build_hamiltonian))
    run_sweep(SweepConfig(spec, tuple(levels), ALL))
    k = max(predicted_node_count(spec, l) for l in levels) + 1
    assert seen["sampled"] == seen["solved"] == [default_eigen_grid(spec, k)]
    assert seen["sampled"] == [default_grid(spec, max(levels, key=abs))]


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
    energies, vecs = _parity_pairs(ham, k)
    if isinstance(spec, Ring):
        # the free ring's m = 0 state is the exact constant, with no residual
        vecs[0], energies[0] = 1.0 / math.sqrt(ham.potential.size), 0.0
    for j in range(k):
        v = vecs[j]
        ring_ground = isinstance(spec, Ring) and j == 0
        residual = 0.0 if ring_ground else float(_residuals(ham, v[None], energies[j : j + 1])[0])
        assert result.residuals[j] == residual
        full = np.concatenate(([0.0], v, [0.0])) if isinstance(spec, Box) else v
        full = full * (1.0 / math.sqrt(ham.grid.h))
        # the unit chain vector over sqrt h: its rectangle-rule norm^2 is 1
        assert abs(SampledFunction(ham.grid, full).norm - 1.0) <= 1e-14, j
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
    # and the stacked columns are each state's own record
    levels = {Box: range(1, k + 1), Oscillator: range(k), Ring: range(-(k // 2), k // 2 + 1)}
    levels = levels[type(spec)]
    columns = eigen_columns(spec, result, levels)
    for i, level in enumerate(levels):
        psi, pos = _eigen_state(spec, result, level)
        rec = UncertaintyRecord.from_columns(
            columns,
            i,
            nodes_predicted=predicted_node_count(spec, level),
            nodes_measured=int(columns["nodes"][i]),
        )
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


def _failing_stack(norm_first):
    """Oscillator levels 0, 1, 2 on one grid, level 1 failing one guard
    and level 2 another: the norm then the band (`norm_first`), or the
    band then the norm.  Returns the stack, level 1's failing sample and
    the error it raises."""
    grid, good, ripple = _oscillator_rows()
    if norm_first:
        failing, later, error = 1.1 * good[1], ripple, NormalizationError
    else:
        failing, later, error = ripple, 1.1 * good[2], GridError
    stack = SampledFunction(grid, np.stack([good[0], failing, later]))
    return stack, SampledFunction(grid, failing), error


FAILING_STACKS = pytest.mark.parametrize(
    "norm_first", [False, True], ids=["band-before-norm", "norm-before-band"]
)


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
            columns_from_stack(Oscillator(), stack)
        assert str(stacked.value) == str(single.value)
        assert stacked.value.row == 1

    def test_norm_failure_before_a_later_band_failure(self):
        grid, good, ripple = _oscillator_rows()
        stack = SampledFunction(grid, np.stack([good[0], 1.1 * good[1], ripple]))
        with pytest.raises(NormalizationError) as single:
            record_from_samples(Oscillator(), 1, SampledFunction(grid, 1.1 * good[1]))
        with pytest.raises(NormalizationError) as stacked:
            columns_from_stack(Oscillator(), stack)
        assert str(stacked.value) == str(single.value)
        assert stacked.value.row == 1

    @FAILING_STACKS
    def test_one_moment_pass_per_stack(self, monkeypatch, norm_first):
        # every row check of a stack sits in one `raise_first`: its moments
        # are taken once, on all its rows, and no prefix is run again
        stack, failing, error = _failing_stack(norm_first)
        with pytest.raises(error) as single:
            record_from_samples(Oscillator(), 1, failing)
        rows = []
        moments = qnodes.oracle.spectral_moments

        def counted(psi):
            rows.append(len(psi.values))
            return moments(psi)

        monkeypatch.setattr(qnodes.oracle, "spectral_moments", counted)
        with pytest.raises(error) as stacked:
            columns_from_stack(Oscillator(), stack)
        assert rows == [3]
        assert str(stacked.value) == str(single.value)
        assert stacked.value.row == 1

    @FAILING_STACKS
    def test_sweep_names_the_first_failing_level(self, monkeypatch, norm_first):
        stack, failing, error = _failing_stack(norm_first)

        def sampled(spec, stacks, grid):
            return iter([stack])

        monkeypatch.setattr(qnodes.report, "sample_levels", sampled)
        with pytest.raises(error) as single:
            record_from_samples(Oscillator(), 1, failing)
        with pytest.raises(error) as swept:
            run_sweep(SweepConfig(Oscillator(), (0, 1, 2), ("analytic", "oracle")))
        assert str(swept.value) == f"level 1: {single.value}"
        if norm_first:
            assert str(swept.value).startswith("level 1: state norm^2 is ")

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
    # a pinned grid keeps the stack size fixed as the level count grows
    points = 4001
    rows = stack_rows(8 * points)
    paths = ("analytic", "oracle")
    small = _peak_traced_bytes(SweepConfig(Box(), tuple(range(1, 2 * rows + 1)), paths, points))
    large = _peak_traced_bytes(SweepConfig(Box(), tuple(range(1, 12 * rows + 1)), paths, points))
    # six times the levels (12 stacks, not 2) add less than one stack's
    # samples: only the result rows grow
    assert large - small < STACK_BYTES


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


_FAULT_PROBE = """
import resource
from qnodes import Oscillator, SweepConfig, run_sweep

cfg = SweepConfig(Oscillator(), tuple(range(201)), ("analytic", "oracle"))
for _ in range(2):
    run_sweep(cfg)
for _ in range(5):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_sweep(cfg)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_stacks_reuse_the_memory_of_the_stack_before():
    # a fresh interpreter keeps pytest's own heap out of the count; an
    # oscillator 0:200 sweep's four stacks took about 1,200 minor faults
    # when malloc gave each stack's temporaries back to the OS
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    run = subprocess.run(
        [sys.executable, "-c", _FAULT_PROBE], capture_output=True, text=True, env=env, timeout=120
    )
    assert run.returncode == 0, run.stderr
    faults = [int(line) for line in run.stdout.split()]
    assert len(faults) == 5
    assert max(faults) < 50, faults


def _unloadable(name):
    raise OSError(f"cannot load {name!r}")


@pytest.mark.parametrize(
    "library", [lambda name: object(), _unloadable], ids=["no-mallopt", "no-library"]
)
def test_allocator_policy_is_skipped_without_mallopt(monkeypatch, library):
    monkeypatch.setattr(ctypes, "CDLL", library)
    assert keep_stack_memory() is None


# --- columns against the one-level forms ----------------------------------------

SYSTEMS = {"box": Box, "ring": Ring, "oscillator": Oscillator}
PARAM = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)


def _spec(system, hbar, first, second):
    constants = Constants(hbar=hbar)
    if system == "box":
        return Box(length=first, mass=second, constants=constants)
    if system == "ring":
        return Ring(moment_of_inertia=first, constants=constants)
    return Oscillator(mass=first, omega=second, constants=constants)


def _physical(spec, columns):
    units = scales(spec)
    return {name: units.rescale(name, columns[name], unit) for name, unit in COLUMN_UNITS.items()}


def _assert_rows_equal(columns, records):
    for i, rec in enumerate(records):
        for name in COLUMN_UNITS:
            assert columns[name][i] == getattr(rec, name), (i, name)


def _levels(system):
    """Distinct small levels of `system`."""
    lo = {"box": 1, "ring": -30, "oscillator": 0}[system]
    return st.lists(st.integers(lo, 30), min_size=1, max_size=6, unique=True)


def _scalar_closed_forms(system, n):
    """The scalar closed forms, in natural units and COLUMN_UNITS order,
    on the Python integer n: the reference for the columns."""
    if system == "box":
        dx = math.sqrt(1.0 / 12.0 - 1.0 / (2.0 * n**2 * math.pi**2))
        dp = n * math.pi
        return n**2 * math.pi**2 / 2.0, dx, dp, dx * dp, 0.5
    if system == "ring":
        return n**2 / 2.0, 2.0 * math.pi / math.sqrt(12.0), 0.0, 0.0, 0.5
    spread = math.sqrt(n + 0.5)
    return n + 0.5, spread, spread, n + 0.5, 0.5


@settings(max_examples=60, deadline=None)
# squares beyond int64 (n > 3037000499) and levels beyond 2^53
@example(system="box", hbar=1.0, first=1.0, second=1.0, ks=[0, 3037000500, 2**53, 10**15])
@example(system="ring", hbar=1.0, first=1.0, second=1.0, ks=[0, 3037000500, 2**53, 10**15])
@example(system="oscillator", hbar=1.0, first=1.0, second=1.0, ks=[0, 2**53 + 1, 10**15])
@given(
    system=st.sampled_from(list(SYSTEMS)),
    hbar=PARAM,
    first=PARAM,
    second=PARAM,
    ks=st.lists(st.integers(0, 10**15), min_size=1, max_size=6, unique=True),
)
def test_closed_form_columns_equal_the_one_level_forms(system, hbar, first, second, ks):
    spec = _spec(system, hbar, first, second)
    # box levels start at 1; ring levels of either sign
    levels = [k + 1 if system == "box" else k for k in ks]
    if system == "ring":
        levels = [k if i % 2 else -k for i, k in enumerate(levels)]
    natural = uncertainty_columns(spec, levels)
    for i, level in enumerate(levels):
        got = tuple(natural[name][i] for name in COLUMN_UNITS)
        assert got == _scalar_closed_forms(system, level), level
    columns = _physical(spec, natural)
    _assert_rows_equal(columns, [CLOSED_FORMS[type(spec)](spec, level) for level in levels])


@settings(max_examples=30, deadline=None)
@given(data=st.data(), system=st.sampled_from(list(SYSTEMS)), hbar=PARAM, first=PARAM, second=PARAM)
def test_oracle_columns_equal_oracle_uncertainties(data, system, hbar, first, second):
    spec = _spec(system, hbar, first, second)
    levels = sorted(data.draw(_levels(system)))
    grid = default_grid(spec, max(levels, key=abs))
    (stack,) = sample_levels(spec, [levels], grid)
    columns = _physical(spec, columns_from_stack(spec, stack))
    _assert_rows_equal(columns, [oracle_uncertainties(spec, level, grid) for level in levels])


@functools.cache
def _natural_eigen(system):
    spec = SYSTEMS[system]()
    k = 61 if system == "ring" else 31
    return solve_lowest(build_hamiltonian(spec, default_eigen_grid(spec, k)), k)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), system=st.sampled_from(list(SYSTEMS)), hbar=PARAM, first=PARAM, second=PARAM)
def test_eigen_columns_equal_eigen_uncertainties(data, system, hbar, first, second):
    spec = _spec(system, hbar, first, second)
    levels = data.draw(_levels(system))
    result = _natural_eigen(system)
    natural = eigen_columns(spec, result, levels)
    records = [eigen_uncertainties(spec, result, level) for level in levels]
    _assert_rows_equal(_physical(spec, natural), records)
    assert natural["nodes"].tolist() == [rec.nodes_measured for rec in records]


# --- the cross-path disagreement over columns ---------------------------------


def _scalar_disagreement(rows, units):
    """The level-by-level loop over rows (tuples in COLUMN_UNITS order)
    that the column form replaces."""
    worst = 0.0
    for i, a in enumerate(rows):
        for b in rows[i + 1 :]:
            for va, vb, unit in zip(a, b, COLUMN_UNITS.values()):
                rel = abs(va - vb) / max(abs(va), abs(vb), getattr(units, unit))
                if math.isnan(rel):
                    return math.nan
                worst = max(worst, rel)
    return worst


VALUE = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1e-300, 1.0, 1.0 + 2**-52, math.inf, -math.inf, math.nan]),
)
UNIT = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)


@settings(max_examples=300, deadline=None)
@example(rows=[(0, (1.0,) * 5)], floors=(1.0,) * 4)  # a one-row level is 0.0
@example(rows=[(0, (1e-20,) * 5), (0, (3e-20,) * 5)], floors=(1.0,) * 4)  # floored
@example(rows=[(0, (math.inf,) * 5), (0, (1.0,) * 5), (1, (1.0,) * 5)], floors=(1.0,) * 4)
@given(
    rows=st.lists(st.tuples(st.integers(0, 4), st.tuples(*[VALUE] * 5)), min_size=1, max_size=12),
    floors=st.tuples(UNIT, UNIT, UNIT, UNIT),
)
def test_column_disagreement_equals_the_scalar_loop(rows, floors):
    units = Scales(*floors)
    # number the groups 0, 1, ... in order of first appearance
    index = {}
    groups = [index.setdefault(g, len(index)) for g, _ in rows]
    values = np.array([v for _, v in rows], dtype=float).T
    got = _max_disagreement(values, groups, units)
    for g, group in enumerate(index):
        want = _scalar_disagreement([v for h, v in rows if h == group], units)
        assert got[g] == want or (math.isnan(got[g]) and math.isnan(want)), (g, got[g], want)


# --- an overflow on any path names the first failing level --------------------


def _inflated(function, row, column):
    """`function`, with `column` of its columns' row `row` raised to the
    largest double."""

    def inflated(*args):
        columns = function(*args)
        if len(columns[column]) > row:
            columns[column][row] = sys.float_info.max
        return columns

    return inflated


# Box(length=0.5) has an energy scale of 4 and a momentum scale of 2:
# the largest double overflows in either
OVERFLOWS = {
    column: rf"{column} {re.escape(repr(sys.float_info.max))} overflows to inf at the {scale}"
    for column, scale in (("energy", r"energy scale 4\.0"), ("delta_p", r"momentum scale 2\.0"))
}
PATCHED = {"analytic": "uncertainty_columns", "oracle": "columns_from_stack", "eigen": "eigen_columns"}


@pytest.mark.parametrize(
    "inflate, level, column",
    [
        ([("oracle", 3, "energy")], 4, "energy"),
        ([("eigen", 2, "delta_p")], 3, "delta_p"),
        ([("oracle", 3, "energy"), ("eigen", 1, "delta_p")], 2, "delta_p"),
        ([("oracle", 1, "energy"), ("eigen", 3, "delta_p")], 2, "energy"),
        # within a level, the paths in order, and each path's columns in order
        ([("oracle", 2, "energy"), ("eigen", 2, "delta_p")], 3, "energy"),
        ([("analytic", 2, "delta_p"), ("oracle", 2, "energy")], 3, "delta_p"),
        ([("eigen", 2, "delta_p"), ("eigen", 2, "energy")], 3, "energy"),
    ],
)
def test_column_overflow_names_the_first_failing_level(monkeypatch, inflate, level, column):
    for path, row, name in inflate:
        function = getattr(qnodes.report, PATCHED[path])
        monkeypatch.setattr(qnodes.report, PATCHED[path], _inflated(function, row, name))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as raised:
            run_sweep(SweepConfig(Box(length=0.5), tuple(range(1, 7)), ALL))
    assert re.fullmatch(rf"level {level}: {OVERFLOWS[column]}", str(raised.value))


def test_rescale_of_a_level_comes_before_the_next_path_guard(monkeypatch):
    # level 3's closed forms overflow, and its oracle moments fail a guard:
    # the closed forms come first, as in a level-by-level sweep
    def guarded(spec, psi):
        if len(psi.values) > 2:
            raise _row_error(2)
        return columns_from_stack(spec, psi)

    inflated = _inflated(uncertainty_columns, 2, "delta_p")
    monkeypatch.setattr(qnodes.report, "uncertainty_columns", inflated)
    monkeypatch.setattr(qnodes.report, "columns_from_stack", guarded)
    with pytest.raises(DomainError) as raised:
        run_sweep(SweepConfig(Box(length=0.5), tuple(range(1, 7)), ("analytic", "oracle")))
    assert re.fullmatch(rf"level 3: {OVERFLOWS['delta_p']}", str(raised.value))


def _row_error(row):
    exc = GridError("grid too coarse")
    exc.row = row
    return exc


def test_level_too_large_for_a_float_after_a_failing_level():
    # the first level fails at its grid (above the band-limit rule's 2^20
    # intervals), the second is too large for a float: the first one's
    # error is raised
    first, second = 10**200, 10**400
    with pytest.raises(GridError) as alone:
        run_sweep(SweepConfig(Box(), (first,)))
    with pytest.raises(GridError) as both:
        run_sweep(SweepConfig(Box(), (second, first)))
    assert str(both.value) == str(alone.value)
    assert str(alone.value).startswith(f"level {first}: ")
