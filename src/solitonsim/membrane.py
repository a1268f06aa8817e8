"""Lumped electrical model of one excitable membrane segment.

A cylindrical patch of active membrane is reduced to five circuit elements:
a series axial resistance, a shunt capacitance, a shunt loss resistance
returning to the resting potential, and a pair of switched current sources
standing in for the sodium and potassium channel populations.  Channel
gating is not a conductance model; it is a four-phase hysteresis machine
advanced once per accepted solver step.  While a phase is latched the
corresponding source injects a constant current, which is what gives the
transmission line its all-or-nothing regenerative pulses.

Phase semantics:

* ``REST``          - both sources off; an upward crossing of the trigger
                      voltage starts a pulse.
* ``FIRING``        - sodium and potassium both on; net inward current
                      drives the voltage up to the sodium cutoff.
* ``FALLING``       - sodium off, potassium still on; the voltage sweeps
                      down toward the potassium cutoff.
* ``FALLING_ARMED`` - same currents as ``FALLING``, but the voltage has
                      dropped back below the trigger, so a fresh upward
                      crossing may re-fire the segment mid-sweep.

Parameters carry the customary electrophysiology units (millivolts,
mA/cm^2, uF/cm^2, S/cm^2, ohm*cm).  ``derive_elements`` is the single
place where those units are converted; everything downstream of it is SI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum, IntEnum

from .errors import InvalidSpecError

_UF_TO_F = 1e-6
_MA_TO_A = 1e-3


# =====================================================================
# Parameter and element containers
# =====================================================================


@dataclass(frozen=True)
class MembraneParams:
    """Electrical constants shared by every segment of a line.

    Attributes:
        v_rest: resting potential, millivolts.
        v_trigger: upward crossing here starts a pulse, millivolts.
        v_na_cutoff: sodium source switches off at this level, millivolts.
        v_k_cutoff: potassium source switches off at this level, millivolts.
        j_na: sodium source density, mA/cm^2 of side area.
        j_k: potassium source density, mA/cm^2 of side area.
        c_mem: membrane capacitance density, uF/cm^2.
        g_mem: membrane leak conductance density, S/cm^2 (A per cm^2 per
            volt off rest).
        rho_internal: axial resistivity of the interior medium, ohm*cm.
    """

    v_rest: float = -70.0
    v_trigger: float = -55.0
    v_na_cutoff: float = 50.0
    v_k_cutoff: float = -95.0
    j_na: float = 0.1345
    j_k: float = 0.0608
    c_mem: float = 1.0
    g_mem: float = 0.3e-3
    rho_internal: float = 15.7

    def __post_init__(self) -> None:
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise InvalidSpecError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if not (self.v_k_cutoff < self.v_rest < self.v_trigger < self.v_na_cutoff):
            raise InvalidSpecError(
                "voltage thresholds must be ordered "
                "v_k_cutoff < v_rest < v_trigger < v_na_cutoff, got "
                f"{self.v_k_cutoff}, {self.v_rest}, {self.v_trigger}, {self.v_na_cutoff}"
            )
        if not (self.j_na > self.j_k > 0.0):
            raise InvalidSpecError(
                f"source densities must satisfy j_na > j_k > 0, got j_na={self.j_na}, j_k={self.j_k}"
            )
        for name in ("c_mem", "g_mem", "rho_internal"):
            if getattr(self, name) <= 0.0:
                raise InvalidSpecError(f"{name} must be positive, got {getattr(self, name)}")


@dataclass(frozen=True)
class SegmentSpec:
    """Geometry and behavior flags of one segment.

    Attributes:
        length: segment length along the line, centimeters.
        diameter: cylinder diameter, centimeters.
        active: whether the Na/K sources exist; False models an inhibited
            (purely passive) stretch of membrane.
        c_scale: multiplier on the derived shunt capacitance.  Used to thin
            the capacitance at a junction without touching its resistances.
    """

    length: float = 0.1
    diameter: float = 1.0e-4
    active: bool = True
    c_scale: float = 1.0

    def __post_init__(self) -> None:
        # written as "not (valid)" so that NaN fails every check
        for name in ("length", "diameter", "c_scale"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise InvalidSpecError(f"segment {name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class SegmentElements:
    """Derived lumped elements of one segment, SI units.

    ``r_axial`` is the series resistance between the segment's input and
    output nodes; the other four are shunt elements that live at the
    output node.  ``i_na``/``i_k`` are the source magnitudes injected while
    the corresponding channel phase is on; both are zero for passive
    segments.
    """

    r_axial: float
    c_shunt: float
    r_loss: float
    i_na: float
    i_k: float


class GateState(IntEnum):
    """Phase of the channel hysteresis machine; a member is its phase-array code."""

    __str__ = Enum.__str__  # str() is "GateState.REST", as test ids show it, not IntEnum's "0"
    REST = 0
    FIRING = 1
    FALLING = 2
    FALLING_ARMED = 3


# =====================================================================
# Operations
# =====================================================================


def derive_elements(spec: SegmentSpec, params: MembraneParams) -> SegmentElements:
    """Convert cylinder geometry plus membrane constants into lumped elements.

    The cross-section area sets the axial resistance; the side (lateral)
    area sets everything that scales with membrane surface.  Inputs are in
    centimeter-based units, outputs in SI.

    Args:
        spec: segment geometry and flags.
        params: shared membrane constants.

    Returns:
        SegmentElements with r_axial/r_loss in ohms, c_shunt in farads and
        the source magnitudes in amperes.

    Raises:
        InvalidSpecError: an element under- or overflows.
    """
    try:
        a_cross = math.pi * (spec.diameter / 2.0) ** 2  # cm^2
        a_side = math.pi * spec.diameter * spec.length  # cm^2
        r_axial = params.rho_internal * spec.length / a_cross
        c_shunt = spec.c_scale * params.c_mem * _UF_TO_F * a_side
        r_loss = 1.0 / (params.g_mem * a_side)
    except (ZeroDivisionError, OverflowError):
        raise InvalidSpecError(f"segment {spec}: its lumped elements under- or overflow") from None
    if spec.active:
        i_na = params.j_na * _MA_TO_A * a_side
        i_k = params.j_k * _MA_TO_A * a_side
    else:
        i_na = 0.0
        i_k = 0.0
    # the engine relies on this: every segment head carries capacitance
    positive = all(0.0 < x < math.inf for x in (r_axial, c_shunt, r_loss))
    if not (positive and math.isfinite(i_na) and math.isfinite(i_k)):
        raise InvalidSpecError(
            f"segment {spec} gives r_axial={r_axial}, c_shunt={c_shunt}, r_loss={r_loss}, "
            f"i_na={i_na}, i_k={i_k}; each must be finite and the first three positive"
        )
    return SegmentElements(r_axial=r_axial, c_shunt=c_shunt, r_loss=r_loss, i_na=i_na, i_k=i_k)


def step_gate(
    state: GateState, v_prev: float, v_now: float, params: MembraneParams
) -> GateState:
    """Advance the hysteresis machine across one accepted solver step.

    ``v_prev`` and ``v_now`` are the segment's output-node voltage at the
    previous and current step, millivolts.  Transitions fire on the sample
    values, so event timing is resolved at step granularity.

    Rules, in priority order per phase:

    * REST: upward crossing of v_trigger (v_prev below, v_now at/above)
      starts FIRING.  A voltage merely sitting at the trigger level does
      not fire; a genuine crossing is required.
    * FIRING: reaching v_na_cutoff drops the sodium source -> FALLING.
    * FALLING: reaching v_k_cutoff ends the pulse -> REST; otherwise
      sinking below v_trigger re-arms the trigger -> FALLING_ARMED.
    * FALLING_ARMED: reaching v_k_cutoff -> REST; otherwise a rise back to
      v_trigger re-fires -> FIRING (potassium stays on throughout).
    """
    if state is GateState.REST:
        if v_now >= params.v_trigger and v_prev < params.v_trigger:
            return GateState.FIRING
        return state
    if state is GateState.FIRING:
        if v_now >= params.v_na_cutoff:
            return GateState.FALLING
        return state
    if state is GateState.FALLING:
        # K cutoff outranks re-arming.
        if v_now <= params.v_k_cutoff:
            return GateState.REST
        if v_now < params.v_trigger:
            return GateState.FALLING_ARMED
        return state
    if v_now <= params.v_k_cutoff:
        return GateState.REST
    if v_now >= params.v_trigger:
        return GateState.FIRING
    return state


def stay_windows(params: MembraneParams) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Per phase code, the head voltages [lo, hi) (mV) at which step_gate cannot move it.

    The inverse of step_gate's rules: REST can leave only at or above the
    trigger and FIRING only at or above the sodium cutoff; FALLING leaves
    below the trigger (MembraneParams keeps the potassium cutoff below it);
    FALLING_ARMED stays strictly between the potassium cutoff and the
    trigger.  A voltage outside the window makes the segment a candidate,
    and step_gate decides.
    """
    lo = (-math.inf, -math.inf, params.v_trigger, math.nextafter(params.v_k_cutoff, math.inf))
    hi = (params.v_trigger, params.v_na_cutoff, math.inf, params.v_trigger)
    return lo, hi


def source_current(state: GateState, elements: SegmentElements) -> float:
    """Net source current injected at the segment's output node, amperes.

    Positive current depolarizes.  Sodium is on only while FIRING;
    potassium is on in FIRING, FALLING and FALLING_ARMED.
    """
    if state is GateState.FIRING:
        return elements.i_na - elements.i_k
    if state is GateState.REST:
        return 0.0
    return -elements.i_k
