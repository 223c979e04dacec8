"""Natural-unit computation and the one rescale.

Every path computes on the natural-unit system; `scales` is the only code
that reads hbar or a system parameter, and each record is multiplied by
its scales once.  So a sweep at any representable parameters is the unit
sweep times the scales, bit for bit, and parameters whose scales cannot
be represented fail with DomainError before any row is made.
"""

import math
from dataclasses import replace
from functools import cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qnodes import (
    Box,
    Constants,
    DomainError,
    Oscillator,
    Ring,
    SweepConfig,
    oracle_uncertainties,
    oscillator_energy,
    run_sweep,
    scales,
    verify_rows,
)
from qnodes.report import _max_disagreement

PATHS = ("analytic", "oracle", "eigen")
LEVELS = {"box": (1, 2, 3), "ring": (-2, 0, 1), "oscillator": (0, 1, 2)}
# each scaled column and the Scales field it is measured in
COLUMN_UNITS = {
    "energy": "energy",
    "delta_q": "length",
    "delta_p": "momentum",
    "product": "hbar",
    "bound": "hbar",
}
EXACT_COLUMNS = ("system", "level", "nodes_predicted", "nodes_counted", "satisfied", "path")


def make_spec(system, hbar=1.0, first=1.0, second=1.0):
    """box (length, mass), ring (moment of inertia) or oscillator (mass, omega)."""
    constants = Constants(hbar=hbar)
    if system == "box":
        return Box(length=first, mass=second, constants=constants)
    if system == "ring":
        return Ring(moment_of_inertia=first, constants=constants)
    return Oscillator(mass=first, omega=second, constants=constants)


def sweep_config(spec, system):
    return SweepConfig(system=spec, levels=LEVELS[system], paths=PATHS, tol=1e-3)


@cache
def unit_rows(system):
    return tuple(run_sweep(sweep_config(make_spec(system), system)))


class TestScales:
    @pytest.mark.parametrize("system", ["box", "ring", "oscillator"])
    def test_default_units_are_exactly_one(self, system):
        units = scales(make_spec(system))
        assert (units.length, units.momentum, units.energy, units.hbar) == (1.0, 1.0, 1.0, 1.0)

    def test_closed_forms(self):
        box = scales(make_spec("box", 0.5, 2.0, 3.0))
        assert box.length == 2.0
        assert box.momentum == 0.25
        assert box.energy == pytest.approx(0.25 / 12.0, rel=1e-15)
        ring = scales(make_spec("ring", 3.0, 2.0))
        assert (ring.length, ring.momentum, ring.energy, ring.hbar) == (1.0, 3.0, 4.5, 3.0)
        osc = scales(make_spec("oscillator", 0.7, 0.8, 1.3))
        assert osc.length == pytest.approx(math.sqrt(0.7 / (0.8 * 1.3)), rel=1e-15)
        assert osc.momentum == pytest.approx(math.sqrt(0.7 * 0.8 * 1.3), rel=1e-15)
        assert osc.energy == 0.7 * 1.3

    def test_energy_scale_is_exact(self):
        assert oscillator_energy(Oscillator(omega=2.0), 0) == 1.0

    def test_extreme_intermediates_do_not_overflow(self):
        # hbar^2 and m a^2 both leave the double range; their ratio does not
        units = scales(make_spec("box", 1e-150, 1e-150, 1e-150))
        assert units.energy == pytest.approx(1e150, rel=1e-15)
        osc = scales(make_spec("oscillator", 1e150, 1e-150, 1e-150))
        assert osc.length == pytest.approx(1e225, rel=1e-15)

    @pytest.mark.parametrize(
        "system, params, name",
        [
            ("box", (1e150, 1e-150, 1e-150), "energy"),
            ("ring", (1e-200, 1e200), "energy"),
            ("oscillator", (1e300, 1e-300, 1e-100), "length"),
        ],
    )
    def test_unrepresentable_scale_raises_domain_error(self, system, params, name):
        with pytest.raises(DomainError, match=f"{name} scale"):
            scales(make_spec(system, *params))

    def test_oracle_momentum_scales_with_hbar(self):
        # was test_oracle.py::test_hbar_scaling on momentum_moments' hbar argument
        base = oracle_uncertainties(Box(), 1)
        scaled = oracle_uncertainties(make_spec("box", 2.0), 1)
        assert scaled.delta_p == 2.0 * base.delta_p
        assert scaled.energy == 4.0 * base.energy


@settings(max_examples=80, deadline=None)
@given(
    system=st.sampled_from(sorted(LEVELS)),
    hbar=st.floats(-150.0, 150.0).map(lambda e: 10.0**e),
    first=st.floats(-150.0, 150.0).map(lambda e: 10.0**e),
    second=st.floats(-150.0, 150.0).map(lambda e: 10.0**e),
)
@example(system="oscillator", hbar=1.0, first=1e300, second=1.0)
@example(system="oscillator", hbar=1.0, first=1e-300, second=1.0)
@example(system="ring", hbar=1.0, first=1e200, second=1.0)
@example(system="ring", hbar=1.0, first=1e-200, second=1.0)
@example(system="box", hbar=1e-30, first=1.0, second=1.0)
@example(system="box", hbar=1.0, first=1e6, second=1.0)
def test_rows_are_unit_rows_times_scales(system, hbar, first, second):
    spec = make_spec(system, hbar, first, second)
    cfg = sweep_config(spec, system)
    try:
        units = scales(spec)
    except DomainError:
        with pytest.raises(DomainError):
            run_sweep(cfg)
        return
    rows = run_sweep(cfg)
    for row, unit in zip(rows, unit_rows(system), strict=True):
        for name, scale in COLUMN_UNITS.items():
            expected = getattr(unit, name) * getattr(units, scale)
            assert getattr(row, name) == expected, (row.level, row.path, name)
        for name in EXACT_COLUMNS:
            assert getattr(row, name) == getattr(unit, name), (row.level, row.path, name)
        assert row.disagreement == pytest.approx(unit.disagreement, rel=1e-8, abs=0.0)


class TestScaledChecks:
    def test_doubled_energy_and_momentum_fail_at_large_length(self):
        # a = 1e6: energies ~5e-12 and Delta p ~3e-6 sit far below a physical
        # 1.0, so only a floor at each column's own unit can see the change
        cfg = SweepConfig(
            system=Box(length=1e6), levels=(1,), paths=("analytic", "oracle"), tol=1e-3
        )
        analytic, oracle = run_sweep(cfg)
        bad = replace(oracle, energy=2.0 * oracle.energy, delta_p=2.0 * oracle.delta_p)
        dis = _max_disagreement([analytic, bad], scales(cfg.system))
        assert dis == pytest.approx(0.5, rel=1e-6)
        rows = [replace(r, disagreement=dis) for r in (analytic, bad)]
        assert any("disagreement" in f for f in verify_rows(cfg, rows))

    def test_heisenberg_slack_is_relative_to_the_bound(self):
        cfg = SweepConfig(system=make_spec("box", 1e-30), levels=(1,), paths=("analytic", "oracle"))
        row = run_sweep(cfg)[0]
        below = replace(row, product=row.bound * (1.0 - 1e-9))
        assert any("below bound" in f for f in verify_rows(cfg, [below]))
        assert verify_rows(cfg, [replace(row, product=row.bound)]) == []
