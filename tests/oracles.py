"""Reference results for the engine and network tests.

Closed-form references: single-node trajectories are piecewise linear RC
charging curves, so event times come out of exact exponential crossing
formulas.  Element values are passed in as frozen numbers by the callers
rather than derived, keeping this path independent of the package under
test.

``reference_simulate`` is the straightforward step-by-step form of the
engine's integrator: one LU back-substitution per step (LAPACK getrs, the
routine ``scipy.linalg.lu_solve`` wraps, called directly to skip the
wrapper's per-call cost), then the scalar gate rule on every segment.  It
shares only element derivation and the gate rules with the package, so
the engine's block propagator can be checked against it.

``node_capacitances`` sums each node's shunt capacitance segment by
segment, a second sum beside the engine's assembly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs, lu_factor

from solitonsim.membrane import GateState, MembraneParams, derive_elements, source_current, step_gate


def exp_crossing_time(u0: float, u_inf: float, u_target: float, tau: float) -> float | None:
    """Time for u(t) = u_inf + (u0 - u_inf) exp(-t/tau) to reach u_target.

    None when the target is not strictly between the start and the
    asymptote (the trajectory never gets there).
    """
    num = u0 - u_inf
    den = u_target - u_inf
    if num == 0.0 or den == 0.0 or (num > 0.0) != (den > 0.0):
        return None
    ratio = num / den
    if ratio < 1.0:
        return None
    return tau * math.log(ratio)


@dataclass(frozen=True)
class PatchTimes:
    """Absolute event times of one isolated-patch pulse, seconds."""

    t_trigger: float
    t_na_cutoff: float
    t_k_cutoff: float


def isolated_patch_times(
    *,
    c_shunt: float,
    r_loss: float,
    i_firing: float,
    i_falling: float,
    u_trigger: float,
    u_na_cutoff: float,
    u_k_cutoff: float,
    stim_amplitude: float,
    stim_start: float,
    stim_duration: float,
    max_events: int = 32,
) -> PatchTimes:
    """Integrate one patch pulse analytically and return its event times.

    The patch is a single RC node driven by the stimulus plus a
    phase-dependent source current (i_firing between trigger and the upper
    cutoff, i_falling from there down to the lower cutoff).  All voltages are
    deviations from rest, volts.  Raises AssertionError if the pulse never
    completes within max_events segments.
    """
    tau = r_loss * c_shunt
    edges = [stim_start, stim_start + stim_duration]

    t = 0.0
    u = 0.0
    phase = "rest"
    t_trigger = t_na = t_k = None

    for _ in range(max_events):
        stim_on = edges[0] <= t < edges[1]
        current = stim_amplitude if stim_on else 0.0
        if phase == "firing":
            current += i_firing
        elif phase == "falling":
            current += i_falling
        u_inf = current * r_loss

        target = {"rest": u_trigger, "firing": u_na_cutoff, "falling": u_k_cutoff}[phase]
        dt_cross = exp_crossing_time(u, u_inf, target, tau)
        dt_edge = min((e - t for e in edges if e > t), default=None)

        if dt_cross is not None and (dt_edge is None or dt_cross <= dt_edge):
            t += dt_cross
            u = target
            if phase == "rest":
                phase, t_trigger = "firing", t
            elif phase == "firing":
                phase, t_na = "falling", t
            else:
                t_k = t
                return PatchTimes(t_trigger=t_trigger, t_na_cutoff=t_na, t_k_cutoff=t_k)
        elif dt_edge is not None:
            u = u_inf + (u - u_inf) * math.exp(-dt_edge / tau)
            t += dt_edge
        else:
            break
    raise AssertionError(f"patch pulse did not complete (stopped in {phase!r} at t={t})")


def node_capacitances(topology, params) -> dict:
    """Total shunt capacitance per node, farads.

    Sum of the c_shunt of every segment whose head is the node, plus the
    node's extra capacitance.  Nodes that head no segment and carry no
    extra load come out exactly 0.0 (bare stimulus rails).
    """
    caps = {node: topology.extra_c.get(node, 0.0) for node in topology.node_ids}
    for seg in topology.segments:
        caps[seg.head] += derive_elements(seg.spec, params).c_shunt
    return caps


def reference_simulate(topology, stimuli, config, params=None, initial_mv=None):
    """Step-by-step trapezoidal/backward-Euler run: (times, voltages_mv, phases).

    Same discretization as ``solitonsim.engine.simulate`` (C = 0 rows of the
    trapezoidal rule take the backward-Euler form), advanced one step at a
    time with every segment's gate stepped after every step.
    """
    params = params or MembraneParams()
    ids = topology.node_ids
    index = {node: i for i, node in enumerate(ids)}
    n = len(ids)
    cap = np.zeros(n)
    cond = np.zeros((n, n))
    elements = [derive_elements(seg.spec, params) for seg in topology.segments]
    heads = np.array([index[seg.head] for seg in topology.segments], dtype=np.intp)
    for seg, el in zip(topology.segments, elements):
        t, h = index[seg.tail], index[seg.head]
        g_ax = 1.0 / el.r_axial
        cond[t, t] += g_ax
        cond[h, h] += g_ax
        cond[t, h] -= g_ax
        cond[h, t] -= g_ax
        cond[h, h] += 1.0 / el.r_loss
        cap[h] += el.c_shunt
    for node, extra in topology.extra_c.items():
        cap[index[node]] += extra

    dt = config.dt
    trapezoidal = config.integrator.value == "trapezoidal"
    scale = 2.0 if trapezoidal else 1.0
    lu, piv = lu_factor(np.diag(scale * cap / dt) + cond)
    (getrs,) = get_lapack_funcs(("getrs",), (lu,))
    rhs_matrix = np.diag(scale * cap / dt) - (cond if trapezoidal else 0.0)
    if trapezoidal:
        rhs_matrix[cap == 0.0, :] = 0.0
    prev_weight = np.where(cap > 0.0, 1.0, 0.0) if trapezoidal else np.zeros(n)
    drive = [
        (index[topology.resolve(s.node)], s.amplitude, s.t_start, s.t_start + s.duration)
        for s in stimuli
    ]

    def stim_at(t):
        vec = np.zeros(n)
        for col, amp, t0, t1 in drive:
            if t0 <= t < t1:
                vec[col] += amp
        return vec

    def sources(states):
        src = np.zeros(n)
        for state, el, head in zip(states, elements, heads):
            src[head] += source_current(state, el)
        return src

    rest = params.v_rest
    u = np.zeros(n)
    for node, mv in (initial_mv or {}).items():
        u[index[topology.resolve(node)]] = (mv - rest) * 1e-3
    states = [GateState.REST] * len(elements)
    src = sources(states)

    n_steps = int(round(config.t_end / dt))
    stride = int(config.record_stride)
    n_samples = n_steps // stride + 1
    times = np.zeros(n_samples)
    volts = np.empty((n_samples, n))
    phases = np.zeros((n_samples, len(states)), dtype=np.uint8)
    volts[0] = u * 1e3 + rest
    codes = phases[0]
    stim_now = stim_at(0.0)
    for k in range(1, n_steps + 1):
        stim_prev, stim_now = stim_now, stim_at(k * dt)
        forcing = scale * src + prev_weight * stim_prev + stim_now
        u_next, info = getrs(lu, piv, rhs_matrix @ u + forcing)
        assert info == 0
        v_prev = u[heads] * 1e3 + rest
        v_now = u_next[heads] * 1e3 + rest
        new = [step_gate(st, v_prev[s], v_now[s], params) for s, st in enumerate(states)]
        if new != states:
            states = new
            src = sources(states)
            codes = [st.value for st in states]
        u = u_next
        if k % stride == 0:
            times[k // stride] = k * dt
            volts[k // stride] = u * 1e3 + rest
            phases[k // stride] = codes
    return times, volts, phases
