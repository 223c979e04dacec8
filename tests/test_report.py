import dataclasses
import json
import math
from dataclasses import replace

import pytest

import qnodes.oracle
from qnodes import (
    Box,
    ConfigError,
    Constants,
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
from qnodes.report import CSV_HEADER, default_metadata

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
        "spec, levels",
        [(Ring(), tuple(range(0, 601))), (Box(), tuple(range(1, 2001)))],
    )
    def test_eigen_request_beyond_grid_rejected(self, spec, levels):
        cfg = SweepConfig(system=spec, levels=levels, paths=("analytic", "eigen"))
        with pytest.raises(ConfigError, match="eigenpairs"):
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
        for row in rows:
            rec = oracle_uncertainties(spec, row.level)
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
        ladder = qnodes.oracle.oscillator_ladder

        def counted(x, n_max):
            passes.append(n_max)
            return ladder(x, n_max)

        def forbidden(*args):
            raise AssertionError("sweep restarted the recurrence")

        monkeypatch.setattr(qnodes.oracle, "oscillator_ladder", counted)
        monkeypatch.setattr(qnodes.oracle, "oscillator_psi", forbidden)
        cfg = SweepConfig(system=Oscillator(), levels=(3, 20, 3, 0), paths=("analytic", "oracle"))
        rows = run_sweep(cfg)
        assert passes == [20]
        assert [r.level for r in rows] == [3, 3, 20, 20, 3, 3, 0, 0]

    def test_box_levels_sampled_once_each(self, monkeypatch):
        calls = []
        sample = qnodes.oracle.sample_state

        def counted(spec, state, grid=None):
            calls.append(state)
            return sample(spec, state, grid)

        monkeypatch.setattr(qnodes.oracle, "sample_state", counted)
        run_sweep(SweepConfig(system=Box(), levels=(2, 1, 2, 5), paths=("analytic", "oracle")))
        assert calls == [1, 2, 5]


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

    def test_impossible_tolerance_fails(self):
        cfg = SweepConfig(
            system=Box(), levels=(1,), paths=("analytic", "oracle"), tol=1e-15
        )
        failures = verify_rows(cfg, run_sweep(cfg))
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
