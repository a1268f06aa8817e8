"""Fixed-step implicit transient solver for segmented membrane lines.

The network is the standard nodal system  C dV/dt = -G V + b(t)  with a
diagonal capacitance matrix, a symmetric conductance matrix (axial elements
plus per-node leak), and a right-hand side holding the switched channel
sources and any stimuli.  Two implicit schemes are offered, backward Euler
and trapezoidal, both unconditionally stable on this passive system.

Implementation choices worth knowing:

* The solve runs in deviation-from-rest coordinates (U = V - v_rest).  The
  leak battery term cancels identically, so a network with no stimulus
  stays at exactly U = 0: a zero forcing propagates to exactly zero, bit
  for bit, under either scheme.
* Bare rail nodes (no shunt capacitance) obey G_rr U_r + G_rc U_c = b_r
  at every new time point under both schemes.  Every segment puts its
  capacitance on its head, so no segment joins two rails and G_rr is
  diagonal.  The rails are eliminated once per run in closed form (Kron
  reduction): U_r = G_rr^-1 b_r - K U_c, K = G_rr^-1 G_rc,
  leaves  C_c dU_c/dt = -G_red U_c + b_c - K^T b_r  with the Schur
  complement G_red = G_cc - G_rc^T K, and the scheme steps that ODE.  The
  trapezoidal step 1 alone averages the given starting rail values, not
  the constrained ones; a difference (an initial voltage at or beside a
  rail, a rail stimulus at t = 0) enters that step as extra forcing.
* With D = C_c^-1/2, D G_red D = V diag(lam) V^T is diagonalized once per
  run, and a step is a scalar map per mode, z' = r z + g, with
  r = 1/(1 + h lam) (backward Euler) or (1 - h lam/2)/(1 + h lam/2)
  (trapezoidal).  The forcing g (channel sources plus stimuli) changes
  only at breakpoints: stimulus on/off steps and gate transitions.  A
  span ends at the next breakpoint; within it, j steps on is
  r^j z + (r^0 + ... + r^(j-1)) g from per-run tables, and one matrix
  product maps a block of them to node voltages.  Every block runs to
  the span's end or to the table depth, whichever comes first.
* Channel source states are frozen within a step.  After each block the
  head voltages of every step are screened against the window in which
  each segment's phase cannot change; the block is cut at the first step
  where any segment leaves its window, and ``step_gate`` is applied there,
  with the (previous, new) head voltage pair, to those segments only.  A
  transition ends the span there, so the next block starts from the cut
  step with the new sources.  Events are
  therefore resolved at step granularity, exactly as with a step-by-step
  loop, which is what the refinement check is for.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
from scipy.linalg import eigh, lu_solve  # lu_solve is unused: perfbench/tracer.py wraps engine.lu_solve

from .errors import InstabilityError, InvalidSpecError, NotApplicableError, TopologyError
from .membrane import GateState, MembraneParams, derive_elements, source_current, stay_windows, step_gate
from .network import NodeId, Stimulus, Topology


class Integrator(Enum):
    BACKWARD_EULER = "backward_euler"
    TRAPEZOIDAL = "trapezoidal"


@dataclass(frozen=True)
class SimConfig:
    """Transient run settings.

    Attributes:
        dt: fixed step size, seconds.
        t_end: simulated duration, seconds.  The run takes the largest
            whole number of steps whose time does not pass t_end (with
            1e-9 relative slack for the float quotient), so an off-grid
            t_end stops at the last step before it.
        record_stride: keep every record_stride-th step (plus t = 0).
        integrator: stepping scheme.
    """

    dt: float = 1e-6
    t_end: float = 20e-3
    record_stride: int = 10
    integrator: Integrator = Integrator.TRAPEZOIDAL

    def __post_init__(self) -> None:
        # written as "not (valid)" so that NaN fails every check
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise InvalidSpecError(f"dt must be positive and finite, got {self.dt}")
        if not (math.isfinite(self.t_end) and self.t_end > self.dt):
            raise InvalidSpecError(
                f"t_end must be finite and exceed dt, got t_end={self.t_end} dt={self.dt}"
            )
        stride = self.record_stride
        if not (stride >= 1 and math.isfinite(stride) and int(stride) == stride):
            raise InvalidSpecError(f"record_stride must be a positive count, got {stride}")


@dataclass(frozen=True, eq=False)
class Waveform:
    """Recorded transient: voltages per node, gate phase per segment.

    Attributes:
        times: sample times, seconds, shape (n_samples,).
        voltages_mv: node voltages, millivolts, shape (n_samples, n_nodes);
            columns follow node_ids.
        node_ids: column order of voltages_mv.
        phases: gate phase codes (GateState values), shape
            (n_samples, n_segments); columns follow the topology's segment
            order.
        labels: human name -> node id, copied from the topology.
        rest_mv: resting potential the run started from, millivolts.
    """

    times: np.ndarray
    voltages_mv: np.ndarray
    node_ids: tuple[NodeId, ...]
    phases: np.ndarray
    labels: dict[str, NodeId]
    rest_mv: float

    def column(self, node: NodeId | str) -> int:
        """Column index of a node given by id or label."""
        if isinstance(node, str):
            if node not in self.labels:
                raise NotApplicableError(f"unknown node label {node!r}")
            node = self.labels[node]
        try:
            return self.node_ids.index(node)
        except ValueError:
            raise NotApplicableError(f"node {node} was not recorded") from None

    def voltage(self, node: NodeId | str) -> np.ndarray:
        """Voltage series of one node, millivolts."""
        return self.voltages_mv[:, self.column(node)]

    def phase(self, segment_index: int) -> np.ndarray:
        """Gate phase code series of one segment (by topology order)."""
        if not 0 <= segment_index < self.phases.shape[1]:
            raise NotApplicableError(f"no segment {segment_index}")
        return self.phases[:, segment_index]


@dataclass(frozen=True)
class ConvergenceReport:
    """Result of a dt versus dt/2 comparison at shared sample times."""

    dt_coarse: float
    dt_fine: float
    max_discrepancy_mv: float
    worst_node: NodeId
    worst_time: float
    firing_shift_s: float
    events_diverged: bool


# =====================================================================
# Assembly
# =====================================================================


def _assemble(topology: Topology, params: MembraneParams):
    """Build index maps, capacitance vector, conductance matrix, elements."""
    ids = topology.node_ids
    index = {node: i for i, node in enumerate(ids)}
    n = len(ids)

    cap = np.zeros(n)
    cond = np.zeros((n, n))
    elements = []
    heads = np.empty(len(topology.segments), dtype=np.intp)
    for s, seg in enumerate(topology.segments):
        el = derive_elements(seg.spec, params)
        elements.append(el)
        t, h = index[seg.tail], index[seg.head]
        heads[s] = h
        g_ax = 1.0 / el.r_axial
        cond[t, t] += g_ax
        cond[h, h] += g_ax
        cond[t, h] -= g_ax
        cond[h, t] -= g_ax
        cond[h, h] += 1.0 / el.r_loss
        cap[h] += el.c_shunt
    for node, extra in topology.extra_c.items():
        cap[index[node]] += extra
    return index, cap, cond, elements, heads


# Floats held by the modal tables r^j and r^0 + ... + r^(j-1).  A block runs
# to the end of its span or to the table depth, this over 2 n_c steps (25 at
# n_c = 160), whichever comes first.  Twice the depth split the block product
# over two OpenBLAS threads: a 161-node run took 3x as long (2 vCPUs).
_BLOCK_FLOATS = 1 << 13

# Floats a run may ask for, counted as the dense n x n conductance matrix, the
# step-time grid and the recorded voltages: 2**27 (1 GiB) is 160 times the
# largest bundled or benchmarked run, a 161-node line recorded at 5,001 steps.
_MAX_RUN_FLOATS = 1 << 27

# Relative slack on t_end / dt before it is floored to a step count: a float
# quotient a few ulps below a whole number must still count its last step.
_GRID_SLACK = 1e-9


def _stimulus_schedule(topology: Topology, index: dict, stimuli, h: float, n_steps: int):
    """Stimuli as (column, amplitude, on, off) step ranges, plus the forcing breakpoints.

    A stimulus is on for the steps on <= k < off, the steps whose time k*h
    passes ``t_start <= k*h < t_start + duration``; the search runs on
    those very products.  The forcing of step k uses the stimulus at steps
    k-1 and k, so it changes at on and off and again one step later; the
    sorted breakpoints are those steps in 2..n_steps, then n_steps + 1.
    """
    step_times = np.arange(n_steps + 1) * h if stimuli else None
    drive = []
    edges = set()
    for stim in stimuli:
        try:
            node = topology.resolve(stim.node)
        except KeyError as exc:
            raise TopologyError(f"stimulus at unknown node: {exc}") from exc
        t0, t1 = stim.t_start, stim.t_start + stim.duration
        if not t0 < t1:  # empty or NaN: never on
            continue
        on, off = (int(k) for k in np.searchsorted(step_times, (t0, t1)))
        drive.append((index[node], stim.amplitude, on, off))
        edges.update((on, on + 1, off, off + 1))
    return drive, sorted(e for e in edges if 1 < e <= n_steps) + [n_steps + 1]


# =====================================================================
# Simulation
# =====================================================================


# overflows and non-finite stimuli become inf/NaN, reported as typed errors below
@np.errstate(over="ignore", invalid="ignore")
def simulate(
    topology: Topology,
    stimuli: list[Stimulus] | tuple[Stimulus, ...] = (),
    config: SimConfig = SimConfig(),
    params: MembraneParams | None = None,
    initial_mv: dict[NodeId | str, float] | None = None,
) -> Waveform:
    """Run one transient and record voltages plus gate phases.

    Args:
        topology: network to simulate.
        stimuli: rectangular current injections; node may be an id or a
            label known to the topology.
        config: step size, duration, recording stride, integrator.
        params: membrane constants; defaults to MembraneParams().
        initial_mv: optional starting voltages (millivolts) per node id or
            label; unlisted nodes start at rest.  Gate machines always
            start at REST.

    Returns:
        Waveform sampled every record_stride steps, t = 0 included.

    Raises:
        TopologyError: a bare node that no segment touches, or a stimulus or
            initial voltage at an unknown node.
        InstabilityError: a step produced a non-finite voltage.
        InvalidSpecError: the run would ask for more than _MAX_RUN_FLOATS
            floats (checked before anything is allocated), the assembled
            system overflows, or an initial voltage is not finite.
    """
    n = len(topology.node_ids)
    steps = config.t_end / config.dt  # a float, so a tiny dt cannot overflow int()
    floats = n * n + steps + 1 + (steps / config.record_stride + 1) * n
    if not floats <= _MAX_RUN_FLOATS:
        raise InvalidSpecError(
            f"run needs about {floats:.3g} floats ({n} nodes, {steps:.3g} steps, record_stride "
            f"{config.record_stride}), more than the {_MAX_RUN_FLOATS} one run may use"
        )
    if params is None:
        params = MembraneParams()
    index, cap, cond, elements, heads = _assemble(topology, params)
    h = config.dt
    # weight of the new time point in a step: 1/2 trapezoidal, 1 backward Euler
    theta = 0.5 if config.integrator is Integrator.TRAPEZOIDAL else 1.0

    # Kron reduction onto the capacitive nodes c; the rails r are algebraic
    cnodes, rails = np.flatnonzero(cap > 0.0), np.flatnonzero(cap == 0.0)
    n_c = len(cnodes)
    g_rc = cond[np.ix_(rails, cnodes)]
    g_rr = cond[rails, rails]  # the diagonal of G_rr, which is all of it
    if not g_rr.all():
        isolated = [topology.node_ids[i] for i in rails[g_rr == 0.0]]
        raise TopologyError(f"degenerate topology: bare nodes {isolated} touch no segment")
    rail_inv = 1.0 / g_rr
    k_rc = g_rc * rail_inv[:, None]
    reduced = cond[np.ix_(cnodes, cnodes)] - g_rc.T @ k_rc

    # modes of D G_red D; back maps modal states to node voltages (rails
    # included), and its transpose maps node currents to modal forcing
    scale = 1.0 / np.sqrt(cap[cnodes])
    system = scale[:, None] * reduced * scale
    if not np.isfinite(system).all():
        raise InvalidSpecError("the segment elements overflow when assembled: geometry too extreme")
    lam, vectors = eigh(system)
    back = np.empty((n_c, n))
    back[:, cnodes] = (scale[:, None] * vectors).T
    back[:, rails] = -back[:, cnodes] @ k_rc.T
    denom = 1.0 + theta * h * lam
    rate, gain = (1.0 - (1.0 - theta) * h * lam) / denom, h / denom

    n_steps = math.floor(config.t_end / h * (1.0 + _GRID_SLACK))
    stride = int(config.record_stride)
    drive, edges = _stimulus_schedule(topology, index, stimuli, h, n_steps)

    def stim_vector(k: int) -> np.ndarray:
        vec = np.zeros(n)
        for col, amp, on, off in drive:
            if on <= k < off:
                vec[col] += amp
        return vec

    rest = params.v_rest
    u = np.zeros(n)
    if initial_mv:
        for node, mv in initial_mv.items():
            try:
                col = index[topology.resolve(node)]
            except KeyError as exc:
                raise TopologyError(f"initial voltage at unknown node: {exc}") from exc
            if not math.isfinite(mv):
                raise InvalidSpecError(f"initial voltage at {node!r} must be finite, got {mv}")
            u[col] = (mv - rest) * 1e-3

    # per segment and phase code: the source current and the stay window
    n_segments = len(topology.segments)
    currents = np.array([[source_current(phase, el) for phase in GateState] for el in elements])
    lo_table, hi_table = map(np.array, stay_windows(params))
    seg_index = np.arange(n_segments)
    states = np.zeros(n_segments, dtype=np.uint8)

    n_samples = n_steps // stride + 1
    times = np.arange(n_samples) * stride * h
    voltages = np.empty((n_samples, n))
    phases = np.empty((n_samples, n_segments), dtype=np.uint8)
    voltages[0] = u * 1e3 + rest
    phases[0] = states

    # row j-1 of the tables: r^j and r^0 + ... + r^(j-1), per mode
    depth = max(1, min(_BLOCK_FLOATS // (2 * n_c), n_steps))
    powers = np.cumprod(np.broadcast_to(rate, (depth, n_c)), axis=0)
    sums = np.cumsum(np.vstack((np.ones(n_c), powers[:-1])), axis=0)
    modal_state = vectors.T @ (u[cnodes] / scale)
    offset = np.zeros(n)  # rail voltages G_rr^-1 b_r of the current span
    head_prev = u[heads] * 1e3 + rest
    span_end = 0  # last step of the current span, over which the forcing is constant
    done = 0
    while done < n_steps:
        first = done + 1
        if first > span_end:
            span_end = edges[bisect.bisect_right(edges, first)] - 1
            src = np.bincount(heads, weights=currents[seg_index, states], minlength=n)
            before, stim = stim_vector(first - 1), stim_vector(first)
            forcing = src + (1.0 - theta) * before + theta * stim
            if first == 1 and theta < 1.0:
                # step 1 weighs in the given rail start, not the constrained one
                miss = u[rails] - rail_inv * before[rails] + k_rc @ u[cnodes]
                if miss.any():
                    forcing[cnodes] -= (1.0 - theta) * g_rc.T @ miss
                    span_end = 1
            modal_forcing = gain * (back @ forcing)
            offset[rails] = rail_inv * stim[rails]
            lo, hi = lo_table[states], hi_table[states]
        m = min(depth, span_end - done)
        modal = powers[:m] * modal_state
        modal += sums[:m] * modal_forcing
        block = modal @ back + offset

        finite = np.isfinite(block).all(axis=1)
        n_ok = m if finite.all() else int(np.argmin(finite))
        head_mv = block[:n_ok, heads]
        head_mv *= 1e3
        head_mv += rest
        leaving = (head_mv < lo) | (head_mv >= hi)
        hits = leaving.any(axis=1)
        cut = int(np.argmax(hits)) if hits.any() else -1
        n_take = cut + 1 if cut >= 0 else n_ok

        # record the accepted steps done+1 .. done+n_take that fall on the grid
        first_row = -(-first // stride)
        rows = block[first_row * stride - first : n_take : stride]
        if len(rows):
            out = voltages[first_row : first_row + len(rows)]
            np.multiply(rows, 1e3, out=out)
            out += rest
            phases[first_row : first_row + len(rows)] = states

        if cut < 0 and n_ok < m:
            k = done + n_ok + 1
            raise InstabilityError(f"non-finite voltage at step {k} (t = {k * h:.6g} s)", step=k)
        if cut >= 0:
            # a transition at the cut step k ends the span: the next block rebuilds the forcing
            k = done + n_take
            v_prev = head_mv[cut - 1] if cut > 0 else head_prev
            for s in np.flatnonzero(leaving[cut]):
                old = GateState(states[s])
                new = step_gate(old, v_prev[s], head_mv[cut, s], params)
                if new is not old:
                    states[s] = new
                    span_end = k
            if k % stride == 0:
                phases[k // stride] = states

        modal_state = modal[n_take - 1]
        head_prev = head_mv[n_take - 1]
        done += n_take

    return Waveform(
        times=times,
        voltages_mv=voltages,
        node_ids=topology.node_ids,
        phases=phases,
        labels=dict(topology.labels),
        rest_mv=rest,
    )


# =====================================================================
# Step-size verification
# =====================================================================


def refine_check(
    topology: Topology,
    stimuli: list[Stimulus] | tuple[Stimulus, ...],
    config: SimConfig,
    params: MembraneParams | None = None,
) -> ConvergenceReport:
    """Compare a run at dt against dt/2 on the shared sample grid.

    The fine run records every 2*record_stride-th step, so both runs
    sample identical times.  Reported are the worst absolute voltage
    discrepancy over all nodes and shared samples, and the worst shift in
    per-segment first-firing times.  ``events_diverged`` is set when a
    segment fires in one run but not the other, or when the firing shift
    exceeds two coarse sample spacings: at a trustworthy dt the switching
    sequence must not move on refinement.
    """
    fine_config = replace(config, dt=config.dt / 2.0, record_stride=config.record_stride * 2)
    coarse = simulate(topology, stimuli, config, params)
    fine = simulate(topology, stimuli, fine_config, params)

    n_shared = min(len(coarse.times), len(fine.times))
    diff = np.abs(coarse.voltages_mv[:n_shared] - fine.voltages_mv[:n_shared])
    flat = int(np.argmax(diff))
    sample, col = np.unravel_index(flat, diff.shape)

    firing = GateState.FIRING
    shift = 0.0
    diverged = False
    for s in range(coarse.phases.shape[1]):
        hits_c = np.nonzero(coarse.phases[:n_shared, s] == firing)[0]
        hits_f = np.nonzero(fine.phases[:n_shared, s] == firing)[0]
        if (len(hits_c) == 0) != (len(hits_f) == 0):
            diverged = True
            continue
        if len(hits_c) and len(hits_f):
            shift = max(shift, abs(coarse.times[hits_c[0]] - fine.times[hits_f[0]]))
    spacing = config.record_stride * config.dt
    if shift > 2.0 * spacing:
        diverged = True

    return ConvergenceReport(
        dt_coarse=config.dt,
        dt_fine=fine_config.dt,
        max_discrepancy_mv=float(diff[sample, col]),
        worst_node=coarse.node_ids[int(col)],
        worst_time=float(coarse.times[int(sample)]),
        firing_shift_s=float(shift),
        events_diverged=diverged,
    )
