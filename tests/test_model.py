import math

import numpy as np
import pytest

from qnodes import (
    Box,
    Constants,
    DomainError,
    NormalizationError,
    Oscillator,
    Ring,
    RingSuperposition,
    Scales,
    predicted_node_count,
    validate_state,
)
from qnodes.eigensolver import slot_level
from qnodes.analytic import box_uncertainties, ring_state_values
from qnodes.oracle import oracle_uncertainties, sample_state


class TestConstruction:
    def test_default_natural_units(self):
        assert Box().length == 1.0
        assert Box().constants.hbar == 1.0
        assert Ring().moment_of_inertia == 1.0
        assert Oscillator().omega == 1.0

    def test_positive_parameter_enforcement(self):
        with pytest.raises(DomainError):
            Constants(hbar=0.0)
        with pytest.raises(DomainError):
            Box(length=-1.0)
        with pytest.raises(DomainError):
            Ring(moment_of_inertia=0.0)
        with pytest.raises(DomainError):
            Oscillator(omega=-2.0)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_parameters_rejected(self, value):
        for make in (
            lambda: Constants(hbar=value),
            lambda: Box(length=value),
            lambda: Box(mass=value),
            lambda: Ring(moment_of_inertia=value),
            lambda: Oscillator(mass=value),
            lambda: Oscillator(omega=value),
        ):
            with pytest.raises(DomainError, match="finite"):
                make()

    def test_parameters_overridable(self):
        spec = Box(length=2.5, mass=3.0, constants=Constants(hbar=0.5))
        assert spec.length == 2.5
        assert spec.constants.hbar == 0.5


non_finite = pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf, np.float64("nan")], ids=["nan", "inf", "-inf", "np-nan"]
)


class TestValidateState:
    def test_box_smallest_valid_index(self):
        assert validate_state(Box(), 1) == 1

    def test_box_zero_rejected(self):
        # n = 0 makes the wavefunction identically zero
        with pytest.raises(DomainError):
            validate_state(Box(), 0)

    def test_ring_accepts_negative_m(self):
        assert validate_state(Ring(), -3) == -3

    def test_oscillator_ground_state(self):
        assert validate_state(Oscillator(), 0) == 0
        with pytest.raises(DomainError):
            validate_state(Oscillator(), -1)

    @non_finite
    def test_non_finite_rejected(self, value):
        with pytest.raises(DomainError, match="quantum number must be an integer, got"):
            validate_state(Box(), value)

    @non_finite
    def test_non_finite_rejected_by_public_functions(self, value):
        with pytest.raises(DomainError, match="quantum number must be an integer, got"):
            box_uncertainties(Box(), value)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: oracle_uncertainties(Box(), RingSuperposition(((1, 1.0),))),
            lambda: sample_state(Oscillator(), RingSuperposition(((1, 1.0),))),
            lambda: predicted_node_count(Box(), None),
        ],
        ids=["superposition-box", "superposition-oscillator", "none"],
    )
    def test_non_numbers_rejected_by_public_functions(self, call):
        with pytest.raises(DomainError, match="quantum number must be an integer, got"):
            call()

    def test_idempotent(self):
        spec = Ring()
        once = validate_state(spec, -7)
        assert validate_state(spec, once) == once


class TestPredictedNodeCount:
    def test_box_ground_state_nodeless(self):
        assert predicted_node_count(Box(), 1) == 0

    def test_oscillator_n_nodes(self):
        assert predicted_node_count(Oscillator(), 3) == 3

    def test_ring_two_per_m(self):
        assert predicted_node_count(Ring(), 2) == 4
        assert predicted_node_count(Ring(), -2) == 4

    @pytest.mark.parametrize(
        "spec,levels",
        [
            (Box(), range(1, 30)),
            (Oscillator(), range(0, 30)),
            (Ring(), range(0, 15)),
        ],
    )
    def test_monotone_nondecreasing(self, spec, levels):
        counts = [predicted_node_count(spec, n) for n in levels]
        assert counts == sorted(counts)


class TestNodeLawIsTheSlotMap:
    """The top eigen slot a level reads is its node count, and `slot_level`
    is the node law's inverse."""

    @pytest.mark.parametrize("spec", [Box(), Oscillator(), Ring()], ids=["box", "osc", "ring"])
    def test_every_slot_reads_its_level(self, spec):
        for s in range(3000):
            # a ring level |m| > 0 reads its cos slot 2|m| - 1 and its sin slot 2|m|
            cos = isinstance(spec, Ring) and s % 2 == 1
            assert predicted_node_count(spec, slot_level(spec, s)) == s + cos

    @pytest.mark.parametrize(
        "spec, levels",
        [(Box(), range(1, 3001)), (Oscillator(), range(0, 3000)), (Ring(), range(-1500, 1500))],
        ids=["box", "osc", "ring"],
    )
    def test_slot_level_inverts_the_node_law(self, spec, levels):
        for n in levels:
            assert slot_level(spec, predicted_node_count(spec, n)) == abs(n)


class TestRingSuperposition:
    def test_normalized_pair(self):
        c = 1.0 / math.sqrt(2.0)
        s = RingSuperposition(((1, c), (-1, c)))
        assert len(s.terms) == 2

    def test_rejects_unnormalized(self):
        with pytest.raises(NormalizationError):
            RingSuperposition(((0, 0.5), (1, 0.5)))

    def test_rejects_duplicate_m(self):
        c = 1.0 / math.sqrt(2.0)
        with pytest.raises(DomainError):
            RingSuperposition(((1, c), (1, c)))

    def test_amplitude_matches_terms(self):
        s = RingSuperposition(((2, 1.0),))
        val = ring_state_values(s, 0.0)
        assert abs(val - 1.0 / math.sqrt(2.0 * math.pi)) < 1e-15


class TestRescale:
    units = Scales(length=2.0, momentum=3.0, energy=1e307, hbar=0.5)

    def test_multiplies_by_the_named_scale(self):
        assert self.units.rescale("delta_p", 1.5, "momentum") == 4.5
        assert self.units.rescale("residual", 0.5, "energy") == 5e306

    def test_overflow_names_quantity_value_and_scale(self):
        with pytest.raises(
            DomainError, match=r"^residual -20\.0 overflows to -inf at the energy scale 1e\+307$"
        ):
            self.units.rescale("residual", -20.0, "energy")
