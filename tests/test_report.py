import dataclasses
import functools
import json
import math
from dataclasses import replace

import numpy as np
import pytest

import qnodes.oracle
import qnodes.special
from qnodes import (
    Box,
    ConfigError,
    Constants,
    GridError,
    Oscillator,
    Ring,
    SweepConfig,
    corrupt_first_product,
    default_grid,
    emit,
    oracle_uncertainties,
    run_sweep,
    verify_rows,
)
from qnodes.analytic import COLUMN_UNITS
from qnodes.model import scales
from qnodes.report import CSV_HEADER, PATH_ORDER, default_metadata

RECORD_FIELDS = ("energy", "delta_q", "delta_p", "product", "nodes_predicted")


class TestSweepConfig:
    def test_empty_levels_rejected(self):
        with pytest.raises(ConfigError):
            SweepConfig(system=Box(), levels=())

    def test_no_paths_rejected(self):
        with pytest.raises(ConfigError):
            SweepConfig(system=Box(), levels=(1,), paths=())

    def test_unknown_path_rejected(self):
        with pytest.raises(ConfigError):
            SweepConfig(system=Box(), levels=(1,), paths=("magic",))

    def test_paths_stored_distinct_in_canonical_order(self):
        cfg = SweepConfig(system=Box(), levels=(1,), paths=("eigen", "oracle", "eigen", "oracle"))
        assert cfg.paths == ("oracle", "eigen")

    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-3])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        with pytest.raises(ConfigError, match="positive and finite"):
            SweepConfig(system=Box(), levels=(1,), tol=tol)

    def test_invalid_level_rejected(self):
        with pytest.raises(ConfigError):
            SweepConfig(system=Box(), levels=(0, 1))

    @pytest.mark.parametrize("spec", [Box(), Oscillator()])
    def test_even_grid_points_rejected_on_closed_grids(self, spec):
        with pytest.raises(ConfigError, match="odd point count"):
            SweepConfig(system=spec, levels=(1,), grid_points=2000)

    def test_even_grid_points_accepted_on_the_ring(self):
        SweepConfig(system=Ring(), levels=(1,), paths=("oracle", "eigen"), grid_points=2000)

    @pytest.mark.parametrize(
        "spec, levels, points",
        [(Ring(), tuple(range(0, 601)), 1024), (Box(), tuple(range(1, 2001)), 2001)],
    )
    def test_eigen_request_beyond_grid_rejected(self, spec, levels, points):
        cfg = SweepConfig(system=spec, levels=levels, paths=("analytic", "eigen"), grid_points=points)
        with pytest.raises(ConfigError, match="eigenpairs"):
            run_sweep(cfg)

    @pytest.mark.parametrize(
        "spec, levels, message",
        [(Ring(), tuple(range(0, 601)), "level 600: ring eigen grid for 1201 levels needs 2592"),
         (Box(), tuple(range(1, 2001)), "level 2000: box eigen grid for 2000 levels needs 4097")],
    )
    def test_eigen_grid_rule_beyond_its_limit_rejected(self, spec, levels, message):
        cfg = SweepConfig(system=spec, levels=levels, paths=("analytic", "eigen"))
        with pytest.raises(GridError, match=message):
            run_sweep(cfg)


class TestRunSweep:
    def test_box_analytic_products(self):
        cfg = SweepConfig(system=Box(), levels=(1, 2, 3))
        rows = run_sweep(cfg)
        products = [r.product for r in rows]
        assert products == pytest.approx([0.567862, 1.670290, 2.627204], rel=1e-5)
        assert all(r.satisfied == "true" for r in rows)

    def test_oscillator_products(self):
        cfg = SweepConfig(system=Oscillator(), levels=(0, 1, 2))
        rows = run_sweep(cfg)
        assert [r.product for r in rows] == [0.5, 1.5, 2.5]

    def test_ring_rows(self):
        cfg = SweepConfig(system=Ring(), levels=(0, 1, 2))
        rows = run_sweep(cfg)
        assert [r.delta_p for r in rows] == [0.0, 0.0, 0.0]
        assert [r.nodes_predicted for r in rows] == [0, 2, 4]
        assert all(r.satisfied == "na" for r in rows)

    def test_sorted_by_level_then_path(self):
        cfg = SweepConfig(
            system=Box(), levels=(1, 2), paths=("oracle", "analytic"), tol=1e-6
        )
        rows = run_sweep(cfg)
        assert [(r.level, r.path) for r in rows] == [
            (1, "analytic"),
            (1, "oracle"),
            (2, "analytic"),
            (2, "oracle"),
        ]

    def test_disagreement_populated_with_two_paths(self):
        cfg = SweepConfig(system=Box(), levels=(1,), paths=("analytic", "oracle"))
        rows = run_sweep(cfg)
        assert all(r.disagreement is not None for r in rows)
        assert all(r.disagreement < 1e-9 for r in rows)

    def test_single_path_no_disagreement(self):
        rows = run_sweep(SweepConfig(system=Box(), levels=(1,)))
        assert rows[0].disagreement is None

    def test_node_columns(self):
        rows = run_sweep(SweepConfig(system=Box(), levels=(4,)))
        assert rows[0].nodes_predicted == rows[0].nodes_counted == 3


class TestOneGridSweep:
    def test_oscillator_oracle_rows_equal_oracle_uncertainties_on_sweep_grid(self):
        spec = Oscillator(mass=0.8, omega=1.3)
        levels = (40, 0, 7, 40, 13, 39)
        rows = run_sweep(SweepConfig(system=spec, levels=levels, paths=("analytic", "oracle")))
        grid = default_grid(spec, max(levels))
        oracle_rows = [r for r in rows if r.path == "oracle"]
        assert [r.level for r in oracle_rows] == list(levels)
        for row in oracle_rows:
            rec = oracle_uncertainties(spec, row.level, grid)
            for name in RECORD_FIELDS:
                assert getattr(row, name) == getattr(rec, name), (row.level, name)
            assert row.nodes_counted == row.level

    @pytest.mark.parametrize(
        "spec, levels",
        [(Box(length=1.7, mass=0.6), (1, 9, 40)), (Ring(moment_of_inertia=0.7), (-10, 0, 3))],
    )
    def test_box_and_ring_rows_equal_oracle_uncertainties(self, spec, levels):
        rows = run_sweep(SweepConfig(system=spec, levels=levels, paths=("oracle",)))
        # the ring grid follows the largest |m|; the box grid is the same for every level
        grid = default_grid(spec, max(abs(l) for l in levels))
        for row in rows:
            rec = oracle_uncertainties(spec, row.level, grid)
            for name in RECORD_FIELDS:
                assert getattr(row, name) == getattr(rec, name), (row.level, name)

    def test_full_oscillator_ladder_verifies(self):
        cfg = SweepConfig(
            system=Oscillator(), levels=tuple(range(201)), paths=("analytic", "oracle"), tol=1e-6
        )
        rows = run_sweep(cfg)
        assert len(rows) == 402
        assert verify_rows(cfg, rows) == []
        grid = default_grid(cfg.system, 200)
        for row in rows:
            if row.path == "oracle" and row.level in (0, 1, 99, 199, 200):
                rec = oracle_uncertainties(cfg.system, row.level, grid)
                assert [getattr(row, f) for f in RECORD_FIELDS] == [
                    getattr(rec, f) for f in RECORD_FIELDS
                ], row.level

    def test_oscillator_levels_come_from_one_ladder_pass(self, monkeypatch):
        passes = []
        ladder = qnodes.special.oscillator_ladder

        def counted(x, n_max):
            passes.append(n_max)
            return ladder(x, n_max)

        def forbidden(*args):
            raise AssertionError("sweep restarted the recurrence")

        # `special.oscillator_stacks` runs the ladder into the rows of each stack
        monkeypatch.setattr(qnodes.special, "oscillator_ladder", counted)
        monkeypatch.setattr(qnodes.special, "oscillator_psi", forbidden)
        cfg = SweepConfig(system=Oscillator(), levels=(3, 20, 3, 0), paths=("analytic", "oracle"))
        rows = run_sweep(cfg)
        assert passes == [20]
        assert [r.level for r in rows] == [3, 3, 20, 20, 3, 3, 0, 0]
        # one pass also when the levels fill several stacks
        run_sweep(SweepConfig(system=Oscillator(), levels=tuple(range(201)), paths=("oracle",)))
        assert passes == [20, 200]

    def test_box_levels_sampled_once_each(self, monkeypatch):
        # a stack is sampled by one broadcast call, one level per row
        calls = []
        sample = qnodes.oracle.box_psi

        def counted(spec, n, x):
            calls.append(np.ravel(n).tolist())
            return sample(spec, n, x)

        def forbidden(*args):
            raise AssertionError("sweep sampled a level on its own")

        monkeypatch.setattr(qnodes.oracle, "box_psi", counted)
        monkeypatch.setattr(qnodes.oracle, "sample_state", forbidden)
        run_sweep(SweepConfig(system=Box(), levels=(2, 1, 2, 5), paths=("analytic", "oracle")))
        assert calls == [[1, 2, 5]]


class TestVerifyRows:
    def test_clean_sweep_passes(self):
        cfg = SweepConfig(system=Box(), levels=(1, 2, 3), paths=("analytic", "oracle"))
        assert verify_rows(cfg, run_sweep(cfg)) == []

    def test_corruption_detected(self):
        cfg = SweepConfig(system=Box(), levels=(1, 2), paths=("analytic", "oracle"))
        rows = corrupt_first_product(run_sweep(cfg))
        failures = verify_rows(cfg, rows)
        assert failures, "corrupted product must be flagged"
        assert any("below bound" in f for f in failures)

    def test_ring_corruption_detected(self):
        # the stored disagreement predates the corruption and ring rows have
        # no bound check: only the recomputed disagreement sees it
        cfg = SweepConfig(system=Ring(), levels=(0, 1), paths=("analytic", "oracle"))
        rows = corrupt_first_product(run_sweep(cfg))
        assert rows[0].disagreement <= cfg.tol
        assert verify_rows(cfg, rows) == [
            f"ring level 0 ({path}): cross-path disagreement 2.500e-01 "
            "exceeds tolerance 1.000e-06"
            for path in ("analytic", "oracle")
        ]

    def test_impossible_tolerance_fails(self):
        # the spectral box oracle meets the closed forms to ~2e-16
        cfg = SweepConfig(
            system=Box(), levels=(1,), paths=("analytic", "oracle"), tol=1e-17
        )
        rows = run_sweep(cfg)
        assert rows[0].disagreement > cfg.tol
        failures = verify_rows(cfg, rows)
        assert any("disagreement" in f for f in failures)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_fields_fail(self, bad):
        cfg = SweepConfig(system=Oscillator(), levels=(0, 1), paths=("analytic", "oracle"))
        rows = run_sweep(cfg)
        rows[1] = replace(rows[1], energy=bad, delta_p=bad, product=bad)
        failures = verify_rows(cfg, rows)
        for name in ("energy", "delta_p", "product"):
            assert any(f"(oracle): {name} is {bad!r}, not finite" in f for f in failures), name
        assert not any("level 1" in f for f in failures)

    def test_nan_disagreement_fails(self):
        cfg = SweepConfig(system=Box(), levels=(1,), paths=("analytic", "oracle"))
        rows = [replace(r, disagreement=math.nan) for r in run_sweep(cfg)]
        assert any("disagreement nan" in f for f in verify_rows(cfg, rows))

    def test_node_mismatch_detected(self):
        cfg = SweepConfig(system=Box(), levels=(2,), paths=("analytic", "oracle"))
        rows = run_sweep(cfg)
        rows[0] = replace(rows[0], nodes_counted=5)
        assert any("nodes" in f for f in verify_rows(cfg, rows))


# three-path sweeps on the default grids, for the tolerance-edge tests
EDGE_SWEEPS = {
    "box-1:40": (Box(), range(1, 41)),
    "ring--10:10": (Ring(), range(-10, 11)),
    "oscillator-0:40": (Oscillator(), range(0, 41)),
}


@functools.cache
def _edge_sweep(name):
    spec, levels = EDGE_SWEEPS[name]
    cfg = SweepConfig(system=spec, levels=tuple(levels), paths=PATH_ORDER)
    return cfg, tuple(run_sweep(cfg))


def _edge_rows(name, path):
    """The first, middle and last row of `path` in the sweep `name`."""
    _, rows = _edge_sweep(name)
    own = [i for i, row in enumerate(rows) if row.path == path]
    return [own[0], own[len(own) // 2], own[-1]]


@pytest.mark.parametrize("tol", [1e-6, 1e-9])
@pytest.mark.parametrize("column", ["energy", "delta_q", "delta_p", "product"])
@pytest.mark.parametrize("path", PATH_ORDER)
@pytest.mark.parametrize("name", EDGE_SWEEPS)
def test_verify_fails_just_above_its_tolerance_and_passes_below(name, path, column, tol):
    # one row's value raised by a multiple of tol, relative to the larger
    # of the value and its column's unit (the ring's Delta L_z and its
    # m = 0 energy are 0), against the other paths' rows of its level
    cfg, rows = _edge_sweep(name)
    cfg = replace(cfg, tol=tol)
    unit = getattr(scales(cfg.system), COLUMN_UNITS[column])
    assert verify_rows(cfg, list(rows)) == []
    for i in _edge_rows(name, path):
        value, level = getattr(rows[i], column), rows[i].level
        step = tol * max(abs(value), unit)
        above, below = list(rows), list(rows)
        above[i] = replace(rows[i], **{column: value + 3.0 * step})
        below[i] = replace(rows[i], **{column: value + step / 3.0})
        failures = verify_rows(cfg, above)
        where = f"{rows[i].system} level {level} ("
        assert f"{where}{path}): cross-path disagreement" in "\n".join(failures)
        assert all(f.startswith(where) and "cross-path disagreement" in f for f in failures)
        assert verify_rows(cfg, below) == []


@pytest.mark.parametrize("path", PATH_ORDER)
@pytest.mark.parametrize("name", EDGE_SWEEPS)
def test_verify_fails_a_node_count_off_by_one(name, path):
    cfg, rows = _edge_sweep(name)
    for i in _edge_rows(name, path):
        row = rows[i]
        miscounted = list(rows)
        miscounted[i] = replace(row, nodes_counted=row.nodes_counted + 1)
        assert verify_rows(cfg, miscounted) == [
            f"{row.system} level {row.level} ({path}): counted {row.nodes_counted + 1} "
            f"nodes, predicted {row.nodes_predicted}"
        ]


class TestEmit:
    def test_csv_header_exact(self):
        rows = run_sweep(SweepConfig(system=Box(), levels=(1,)))
        text = emit(rows, "csv")
        assert text.splitlines()[0] == (
            "system,level,nodes_predicted,nodes_counted,energy,delta_q,delta_p,"
            "product,bound,satisfied,path,disagreement"
        )
        assert text.splitlines()[0] == CSV_HEADER

    def test_csv_first_fields(self):
        rows = run_sweep(SweepConfig(system=Box(), levels=(1,)))
        line = emit(rows, "csv").splitlines()[1]
        assert line.startswith("box,1,0,")

    def test_oscillator_ground_row_saturates(self):
        rows = run_sweep(SweepConfig(system=Oscillator(), levels=(0,)))
        line = emit(rows, "csv").splitlines()[1]
        assert ",0.500000000000,0.500000000000,true," in line

    def test_twelve_significant_digits(self):
        rows = run_sweep(SweepConfig(system=Box(), levels=(1,)))
        fields = emit(rows, "csv").splitlines()[1].split(",")
        assert fields[7] == "0.567861808387"

    @pytest.mark.parametrize("spec", [Box(), Ring(), Oscillator()])
    def test_columns_are_the_row_fields(self, spec):
        cfg = SweepConfig(system=spec, levels=(1, 2), paths=("analytic", "oracle", "eigen"))
        rows = run_sweep(cfg)
        names = [f.name for f in dataclasses.fields(rows[0])]
        assert CSV_HEADER.split(",") == names
        csv_rows = emit(rows, "csv").splitlines()[1:]
        assert [line.split(",")[:2] for line in csv_rows] == [
            [r.system, str(r.level)] for r in rows
        ]
        payload = json.loads(emit(rows, "json"))
        assert [list(r) for r in payload["rows"]] == [names] * len(rows)

    def test_metadata_reports_the_four_scales(self):
        spec = Oscillator(mass=2.0, omega=0.25, constants=Constants(hbar=0.5))
        cfg = SweepConfig(system=spec, levels=(0,))
        units = json.loads(emit(run_sweep(cfg), "json", default_metadata(cfg)))["metadata"]["units"]
        assert units == {"length": 1.0, "momentum": 0.5, "energy": 0.125, "hbar": 0.5}

    def test_json_round_trip(self):
        cfg = SweepConfig(system=Box(), levels=(1, 2), paths=("analytic", "oracle"))
        rows = run_sweep(cfg)
        payload = json.loads(emit(rows, "json", default_metadata(cfg)))
        assert payload["metadata"]["version"]
        assert len(payload["rows"]) == len(rows)
        for got, row in zip(payload["rows"], rows):
            assert got["level"] == row.level
            assert got["product"] == row.product
            assert got["delta_q"] == row.delta_q
            assert got["satisfied"] == row.satisfied

    def test_deterministic(self):
        cfg = SweepConfig(system=Ring(), levels=(0, 1, 2), paths=("analytic", "oracle"))
        assert emit(run_sweep(cfg), "csv") == emit(run_sweep(cfg), "csv")

    def test_empty_rows_rejected(self):
        with pytest.raises(ConfigError):
            emit([], "csv")

    def test_unknown_format_rejected(self):
        rows = run_sweep(SweepConfig(system=Box(), levels=(1,)))
        with pytest.raises(ConfigError):
            emit(rows, "yaml")


@pytest.mark.parametrize(
    "top, paths, first_fired",
    [(200, ("analytic", "oracle"), 473), (40, PATH_ORDER, 153), (200, PATH_ORDER, 473)],
    ids=["0:200-analytic-oracle", "0:40-three-paths", "0:200-three-paths"],
)
def test_open_grid_guards_are_sharp(top, paths, first_fired):
    # oscillator grids from the rule's size down to half of it, in steps of
    # 2 points: a sweep the guards pass meets the closed forms at the default
    # tolerance, and the passing grids are those above where the guards
    # first fire
    rule = default_grid(Oscillator(), top).points
    passed = []
    for points in range(rule, rule // 2, -2):
        cfg = SweepConfig(Oscillator(), tuple(range(top + 1)), paths, grid_points=points)
        try:
            rows = run_sweep(cfg)
        except GridError:
            continue
        assert verify_rows(cfg, rows) == [], points
        passed.append(points)
    assert passed == list(range(rule, first_fired, -2))
