"""Element derivation and gate machine unit tests.

Expected element values are frozen from direct hand evaluation of the
geometry formulas (cross-section pi*(D/2)^2, side area pi*D*L, cm-based
inputs converted to SI), independent of the module under test.
"""

from __future__ import annotations

import math
from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from solitonsim.errors import InvalidSpecError
from solitonsim.membrane import (
    GateState,
    MembraneParams,
    SegmentSpec,
    SegmentElements,
    derive_elements,
    source_current,
    stay_windows,
    step_gate,
)

PARAMS = MembraneParams()


# ---------------------------------------------------------------------
# derive_elements
# ---------------------------------------------------------------------


def test_default_segment_elements_match_hand_arithmetic():
    el = derive_elements(SegmentSpec(), PARAMS)
    assert el.c_shunt == pytest.approx(3.1415926535897936e-11, rel=1e-9)
    assert el.r_axial == pytest.approx(1.9989860852342057e8, rel=1e-9)
    assert el.r_loss == pytest.approx(1.0610329539459689e8, rel=1e-9)
    assert el.i_na == pytest.approx(4.2254421190782716e-9, rel=1e-9)
    assert el.i_k == pytest.approx(1.9100883333825944e-9, rel=1e-9)


def test_half_length_segment_elements_match_hand_arithmetic():
    el = derive_elements(SegmentSpec(length=0.05), PARAMS)
    assert el.c_shunt == pytest.approx(1.5707963267948968e-11, rel=1e-9)
    assert el.r_axial == pytest.approx(9.9949304261710284e7, rel=1e-9)
    assert el.r_loss == pytest.approx(2.1220659078919378e8, rel=1e-9)
    assert el.i_na == pytest.approx(2.1127210595391358e-9, rel=1e-9)
    assert el.i_k == pytest.approx(9.550441666912972e-10, rel=1e-9)


def test_passive_segment_has_zero_sources_but_keeps_rc():
    active = derive_elements(SegmentSpec(), PARAMS)
    passive = derive_elements(SegmentSpec(active=False), PARAMS)
    assert passive.i_na == 0.0
    assert passive.i_k == 0.0
    assert passive.r_axial == active.r_axial
    assert passive.c_shunt == active.c_shunt
    assert passive.r_loss == active.r_loss


def test_c_scale_multiplies_capacitance_only():
    base = derive_elements(SegmentSpec(), PARAMS)
    thinned = derive_elements(SegmentSpec(c_scale=0.67), PARAMS)
    assert thinned.c_shunt == pytest.approx(0.67 * base.c_shunt, rel=1e-12)
    assert thinned.r_axial == base.r_axial
    assert thinned.r_loss == base.r_loss
    assert thinned.i_na == base.i_na
    assert thinned.i_k == base.i_k


@pytest.mark.parametrize("length,diameter", [(0.1, 1e-4), (0.05, 1e-4), (0.2, 2e-4), (0.07, 0.6e-4)])
def test_element_scaling_with_geometry(length, diameter):
    # Doubling length doubles side-area quantities and the axial path;
    # doubling diameter quarters the axial resistance.
    el = derive_elements(SegmentSpec(length=length, diameter=diameter), PARAMS)
    el2l = derive_elements(SegmentSpec(length=2 * length, diameter=diameter), PARAMS)
    el2d = derive_elements(SegmentSpec(length=length, diameter=2 * diameter), PARAMS)
    assert el2l.c_shunt == pytest.approx(2 * el.c_shunt, rel=1e-12)
    assert el2l.i_na == pytest.approx(2 * el.i_na, rel=1e-12)
    assert el2l.r_axial == pytest.approx(2 * el.r_axial, rel=1e-12)
    assert el2l.r_loss == pytest.approx(el.r_loss / 2, rel=1e-12)
    assert el2d.c_shunt == pytest.approx(2 * el.c_shunt, rel=1e-12)
    assert el2d.r_axial == pytest.approx(el.r_axial / 4, rel=1e-12)


# ---------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------


def test_threshold_ordering_is_enforced():
    with pytest.raises(InvalidSpecError):
        MembraneParams(v_trigger=-75.0)  # below rest
    with pytest.raises(InvalidSpecError):
        MembraneParams(v_k_cutoff=-60.0)  # above rest
    with pytest.raises(InvalidSpecError):
        MembraneParams(v_na_cutoff=-56.0)  # below trigger


def test_source_density_ordering_is_enforced():
    with pytest.raises(InvalidSpecError):
        MembraneParams(j_k=0.2)  # j_k > j_na
    with pytest.raises(InvalidSpecError):
        MembraneParams(j_na=-0.1, j_k=-0.2)


@pytest.mark.parametrize("field", ["c_mem", "g_mem", "rho_internal"])
def test_density_fields_must_be_positive(field):
    with pytest.raises(InvalidSpecError):
        MembraneParams(**{field: 0.0})


@pytest.mark.parametrize("name", [f.name for f in fields(MembraneParams)])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_membrane_params_must_be_finite(name, value):
    with pytest.raises(InvalidSpecError, match=name):
        MembraneParams(**{name: value})


@pytest.mark.parametrize(
    "kwargs",
    [
        {"length": 0.0},
        {"diameter": -1e-4},
        {"c_scale": 0.0},
        {"length": math.nan},
        {"diameter": math.nan},
        {"c_scale": math.nan},
        {"length": math.inf},
        {"diameter": math.inf},
        {"c_scale": math.inf},
    ],
)
def test_segment_geometry_must_be_positive(kwargs):
    with pytest.raises(InvalidSpecError):
        SegmentSpec(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"diameter": 1.0e-200},  # cross-section underflows to 0
        {"diameter": 1.0e200},  # cross-section overflows
        {"length": 1.0e-160, "diameter": 1.0e-160},  # c_shunt underflows to 0
    ],
    ids=["area_underflow", "area_overflow", "capacitance_underflow"],
)
def test_extreme_geometry_gives_no_elements(kwargs):
    spec = SegmentSpec(**kwargs)  # positive and finite, so the spec itself is accepted
    with pytest.raises(InvalidSpecError, match="segment"):
        derive_elements(spec, PARAMS)


# ---------------------------------------------------------------------
# gate machine
# ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "state,v_prev,v_now,expected",
    [
        # upward crossing of the trigger starts a pulse
        (GateState.REST, -70.0, -54.0, GateState.FIRING),
        (GateState.REST, -70.0, -55.0, GateState.FIRING),
        # no crossing, no fire: approaching from above or sitting at level
        (GateState.REST, -54.0, -54.0, GateState.REST),
        (GateState.REST, -55.0, -54.0, GateState.REST),
        (GateState.REST, -70.0, -60.0, GateState.REST),
        # sodium cutoff
        (GateState.FIRING, 30.0, 51.0, GateState.FALLING),
        (GateState.FIRING, 30.0, 50.0, GateState.FALLING),
        (GateState.FIRING, -54.0, 0.0, GateState.FIRING),
        # falling sweep: stays, arms, or rests
        (GateState.FALLING, 20.0, -40.0, GateState.FALLING),
        (GateState.FALLING, -40.0, -60.0, GateState.FALLING_ARMED),
        (GateState.FALLING, -80.0, -96.0, GateState.REST),
        # armed: may re-fire on a fresh rise, or finish the sweep
        (GateState.FALLING_ARMED, -60.0, -54.0, GateState.FIRING),
        (GateState.FALLING_ARMED, -60.0, -80.0, GateState.FALLING_ARMED),
        (GateState.FALLING_ARMED, -90.0, -96.0, GateState.REST),
    ],
)
def test_gate_transitions(state, v_prev, v_now, expected):
    assert step_gate(state, v_prev, v_now, PARAMS) is expected


MILLIVOLTS = st.floats(-1e3, 1e3, allow_nan=False)


@given(data=st.data(), levels=st.lists(MILLIVOLTS, min_size=4, max_size=4, unique=True))
def test_stay_windows_never_hide_a_transition(data, levels):
    v_k_cutoff, v_rest, v_trigger, v_na_cutoff = sorted(levels)
    params = MembraneParams(
        v_rest=v_rest, v_trigger=v_trigger, v_na_cutoff=v_na_cutoff, v_k_cutoff=v_k_cutoff
    )
    # each threshold, exactly and one float either side, besides any voltage
    near = [
        math.nextafter(v, to)
        for v in (v_k_cutoff, v_trigger, v_na_cutoff)
        for to in (-math.inf, v, math.inf)
    ]
    voltage = st.one_of(st.sampled_from(near), MILLIVOLTS)
    v_prev, v_now = data.draw(voltage), data.draw(voltage)
    lo, hi = stay_windows(params)
    for state in GateState:
        if step_gate(state, v_prev, v_now, params) is not state:
            assert not lo[state] <= v_now < hi[state]


def test_k_cutoff_outranks_rearming_in_falling():
    # A single giant downward step crosses both the trigger and the K
    # cutoff; the sweep must end, not arm.
    assert step_gate(GateState.FALLING, 40.0, -100.0, PARAMS) is GateState.REST


def test_full_pulse_cycle_through_the_machine():
    trace = [-70.0, -54.0, 0.0, 51.0, 10.0, -60.0, -54.0, 20.0, 51.0, -80.0, -96.0, -90.0]
    state = GateState.REST
    seen = [state]
    for v_prev, v_now in zip(trace, trace[1:]):
        state = step_gate(state, v_prev, v_now, PARAMS)
        seen.append(state)
    assert seen == [
        GateState.REST,
        GateState.FIRING,  # crossed -55 upward
        GateState.FIRING,
        GateState.FALLING,  # hit +50
        GateState.FALLING,
        GateState.FALLING_ARMED,  # sank below -55
        GateState.FIRING,  # re-triggered mid-sweep
        GateState.FIRING,
        GateState.FALLING,
        GateState.FALLING_ARMED,
        GateState.REST,  # hit -95
        GateState.REST,
    ]


# ---------------------------------------------------------------------
# source currents
# ---------------------------------------------------------------------


def test_source_current_per_phase():
    el = derive_elements(SegmentSpec(), PARAMS)
    assert source_current(GateState.REST, el) == 0.0
    assert source_current(GateState.FIRING, el) == pytest.approx(2.315353785695677e-9, rel=1e-9)
    assert source_current(GateState.FALLING, el) == pytest.approx(-1.9100883333825944e-9, rel=1e-9)
    assert source_current(GateState.FALLING_ARMED, el) == pytest.approx(
        -1.9100883333825944e-9, rel=1e-9
    )


def test_passive_segment_sources_are_silent_in_every_phase():
    el = derive_elements(SegmentSpec(active=False), PARAMS)
    for state in GateState:
        assert source_current(state, el) == 0.0


def test_elements_container_is_plain_data():
    el = SegmentElements(r_axial=1.0, c_shunt=2.0, r_loss=3.0, i_na=4.0, i_k=5.0)
    assert (el.r_axial, el.c_shunt, el.r_loss, el.i_na, el.i_k) == (1.0, 2.0, 3.0, 4.0, 5.0)
