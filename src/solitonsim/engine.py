"""Fixed-step implicit transient solver for segmented membrane lines.

The network is the nodal system  C dV/dt = -G V + b(t)  with a diagonal
capacitance matrix, a symmetric conductance matrix (axial elements plus
per-node leak), and the switched channel sources and stimuli in b.  Backward
Euler and trapezoidal are offered, both unconditionally stable on this
passive system.  The solve runs in millivolts off rest with currents in
milliamperes, so a network with no stimulus stays at exactly v_rest.

A run has two parts.  ``_ModalSystem``, the linear part, is built once per
run; between gate events the line is linear, and its one kernel
``_ModalSystem.rows`` turns a modal trajectory over a span of constant
forcing into node voltages, laid out time-major as (node, step).  The span
loop in ``simulate`` owns the time axis: a span ends at the next stimulus
on/off step or gate transition, and takes its stimulus forcing from a
schedule built once per run.  Channel source states are frozen within a
step, and every step is screened: a block stops at the first step where a
segment's head leaves the window in which its phase cannot change
(``step_gate`` decides there, and a transition ends the span) or where a
voltage is non-finite (InstabilityError).  Events are therefore resolved
at step granularity, exactly as with a step-by-step loop, which is what
the refinement check is for.  The record is time-major too;
``Waveform.voltages_mv`` is its transpose.

A span need not be screened step by step where it is certified: with every
mode settling toward the span's fixed point, each head stays within a bound
around its fixed-point voltage, and where that interval lies inside every
head's window before a block, no gate can move before the span ends
(``_ModalSystem.settle_point`` and ``holds``).  The loop then evaluates the
span's recorded rows with the same kernel from the closed-form table
(``powers``) and goes on from its end.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import InstabilityError, InvalidSpecError, NotApplicableError, TopologyError
from .membrane import GateState, MembraneParams, derive_elements, source_current, stay_windows, step_gate
from .network import NodeId, Stimulus, Topology


def __getattr__(name: str):
    # The traced benchmark pass (perfbench/tracer.py) still wraps
    # engine.lu_solve, which nothing here calls.  scipy is imported only when
    # that name is asked for, so a run loads no scipy and one BLAS.  ROADMAP
    # D12 deletes this bridge together with that patch target.
    if name == "lu_solve":
        from scipy.linalg import lu_solve

        return lu_solve
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
            columns follow node_ids.  The engine's record is time-major, so
            this is a transposed view and each node's series is contiguous.
        node_ids: column order of voltages_mv.
        phases: gate phase codes (GateState values), shape
            (n_samples, n_segments); columns follow the topology's segment
            order.  Row r holds the phases after step r * record_stride, so
            a transition at step k shows from row ceil(k / record_stride) on.
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

    max_discrepancy_mv: float
    firing_shift_s: float
    events_diverged: bool


# =====================================================================
# Simulation
# =====================================================================


# Floats held by the modal table R_j.  A block runs to the end of its span or
# to the table depth, this over n_c steps (25 at n_c = 160), whichever comes
# first.  Twice the depth split the block product over two OpenBLAS threads:
# a 161-node run took 3x as long (2 vCPUs).
_BLOCK_FLOATS = 1 << 12

# Floats a run may ask for, counted as the dense n x n conductance matrix, the
# step-time grid and the recorded voltages: 2**27 (1 GiB) is 160 times the
# largest bundled or benchmarked run, a 161-node line recorded at 5,001 steps.
_MAX_RUN_FLOATS = 1 << 27

# Relative slack on t_end / dt before it is floored to a step count: a float
# quotient a few ulps below a whole number must still count its last step.
_GRID_SLACK = 1e-9

# Rounding slack of the settling certificate, relative to the magnitudes its
# bound sums (|back| times |z*| and |z - z*|, plus the offset).  The bound and
# the block path's rows each round at well below 1e-12 of those (eps 2.2e-16
# over at most a table's depth of accumulated products), so a head the
# certificate keeps this far inside its window cannot leave it in either path.
_SETTLE_SLACK = 1e-9


class _ModalSystem:
    """The linear part of one run, fixed by (topology, params, dt, integrator).

    Bare rail nodes (no shunt capacitance) obey G_rr U_r + G_rc U_c = b_r at
    every new time point.  Every segment puts its capacitance on its head, so
    G_rr is diagonal, and the rails are eliminated in closed form (Kron
    reduction): U_r = G_rr^-1 b_r - K U_c with K = G_rr^-1 G_rc leaves
    C_c dU_c/dt = -G_red U_c + b_c - K^T b_r, G_red = G_cc - G_rc^T K.

    With D = C_c^-1/2, D G_red D = V diag(lam) V^T, and a step is a scalar map
    per mode, z' = z + g (F - lam z) with g = h/(1 + theta h lam), theta = 1
    (backward Euler) or 1/2 (trapezoidal); F = back^T b is the modal forcing
    and ``back`` maps modal states to node voltages, v = back z.  Over a span
    of constant F the state j steps on is a power of this one propagator
    (Rotter & Diesmann 1999), written as a modal row base + T_j * coef in
    one of two forms:

    * z + R_j (F - lam z), with R_j = g (r^0 + ... + r^(j-1)) and
      r = 1 - g lam, column j-1 of ``table``.  R_j has no 1 - r divisor, so
      a lam = 0 mode (a capacitive node no segment touches) is exact too.
    * z* + r^j (z - z*) about the fixed point z* = F / lam, where every
      lam > 0 and |r| <= 1 (``contracts``); ``powers`` tabulates r^j.

    ``rows`` is the one map from modal rows to node voltages, (node, column),
    for either table.  A screened block evaluates the first table, a
    certified span the second: each head then stays within v*_h +-
    sum_m |back[h, m]| |z_m - z*_m| for the rest of the span (Brette 2007;
    D'Haene et al. 2009), and where that interval lies inside every head's
    stay window, no gate can move before the span ends.
    """

    def __init__(
        self, topology: Topology, params: MembraneParams, h: float, integrator: Integrator, n_steps: int
    ) -> None:
        """Assemble, Kron-reduce and diagonalize a network; tabulate R_j for up to n_steps steps."""
        ids = topology.node_ids
        self.index = {node: i for i, node in enumerate(ids)}  # node id -> column
        cap = np.zeros(len(ids))
        cond = np.zeros((len(ids), len(ids)))
        elements = [derive_elements(seg.spec, params) for seg in topology.segments]
        self.heads = np.array([self.index[seg.head] for seg in topology.segments], dtype=np.intp)
        for seg, el, hd in zip(topology.segments, elements, self.heads):
            tl = self.index[seg.tail]
            g_ax = 1.0 / el.r_axial
            cond[tl, tl] += g_ax
            cond[hd, hd] += g_ax
            cond[tl, hd] -= g_ax
            cond[hd, tl] -= g_ax
            cond[hd, hd] += 1.0 / el.r_loss
            cap[hd] += el.c_shunt
        for node, extra in topology.extra_c.items():
            cap[self.index[node]] += extra
        currents = [[source_current(phase, el) * 1e3 for phase in GateState] for el in elements]
        self.currents = np.array(currents)  # source current (mA) per segment and phase code

        cnodes, rails = np.flatnonzero(cap > 0.0), np.flatnonzero(cap == 0.0)
        self.cnodes, self.rails = cnodes, rails
        self.g_rc = cond[np.ix_(rails, cnodes)]
        g_rr = cond[rails, rails]  # the diagonal of G_rr, which is all of it
        if not g_rr.all():
            isolated = [ids[i] for i in rails[g_rr == 0.0]]
            raise TopologyError(f"degenerate topology: bare nodes {isolated} touch no segment")
        self.rail_inv = 1.0 / g_rr
        self.k_rc = self.g_rc * self.rail_inv[:, None]
        reduced = cond[np.ix_(cnodes, cnodes)] - self.g_rc.T @ self.k_rc

        self.scale = 1.0 / np.sqrt(cap[cnodes])  # the diagonal of D
        scaled = self.scale[:, None] * reduced * self.scale
        if not np.isfinite(scaled).all():
            raise InvalidSpecError("the segment elements overflow when assembled: geometry too extreme")
        self.lam, self.vectors = np.linalg.eigh(scaled)
        self.back = np.empty((len(ids), len(cnodes)))  # (node, mode)
        self.back[cnodes] = self.scale[:, None] * self.vectors
        self.back[rails] = -self.k_rc @ self.back[cnodes]
        self.head_back = np.ascontiguousarray(self.back[self.heads].T)  # (mode, segment)
        self.head_abs = np.abs(self.head_back)

        self.theta = 0.5 if integrator is Integrator.TRAPEZOIDAL else 1.0
        denom = 1.0 + self.theta * h * self.lam
        self.rate, gain = (1.0 - (1.0 - self.theta) * h * self.lam) / denom, h / denom
        self.contracts = bool(self.lam.min() > 0.0 and np.abs(self.rate).max() <= 1.0)
        full_depth = max(1, _BLOCK_FLOATS // len(cnodes))
        depth = min(full_depth, n_steps)
        factors = np.broadcast_to(self.rate[:, None], (len(cnodes), depth - 1))
        factors = np.hstack((np.ones((len(cnodes), 1)), factors))
        reach = gain[:, None] * np.cumsum(np.cumprod(factors, axis=1), axis=1)
        self.table = np.vstack((reach, np.ones(depth)))  # (mode + 1, step): R_j over a row of ones
        self.power = np.ones_like(self.table)  # the r^j of ``powers``, over the same row of ones
        # The operands of ``rows``.  With no more nodes than a full table has
        # steps (decided by the net alone, so two runs of one net evaluate
        # alike whatever their lengths), coef scales ``back`` in ``lhs``;
        # otherwise ``modal`` takes the modal rows, and no other product of
        # node size runs per evaluation.
        self.coef_on_back = len(ids) <= full_depth
        self.lhs = np.hstack((self.back, np.zeros((len(ids), 1))))
        self.modal = np.ones_like(self.table)

    def start(self, u: np.ndarray, stim: np.ndarray):
        """The modal state of node voltages u, and modal forcing to take off step 1.

        Trapezoidal step 1 alone averages the given rail start, not the
        constrained one: a difference (an initial voltage at or beside a rail,
        a rail stimulus ``stim`` at t = 0) enters it as extra forcing.
        """
        state = self.vectors.T @ (u[self.cnodes] / self.scale)
        miss = u[self.rails] - self.rail_inv * stim[self.rails] + self.k_rc @ u[self.cnodes]
        if self.theta == 1.0 or not miss.any():
            return state, None
        return state, ((1.0 - self.theta) * self.g_rc.T @ miss) @ self.back[self.cnodes]

    def rows(self, base: np.ndarray, coef: np.ndarray, offset: np.ndarray, table: np.ndarray) -> np.ndarray:
        """Node voltages of the modal rows base + T * coef plus ``offset``, as (node, column).

        ``table`` is T, (mode, column), over a row of ones.  The rows are one
        product whose long axis is innermost, the constant term riding in it
        as one more mode.
        """
        lhs = self.lhs
        if self.coef_on_back:
            np.multiply(self.back, coef, out=lhs[:, :-1])
            lhs[:, -1] = self.back @ base + offset
            return lhs @ table
        modal = self.modal[:, : table.shape[1]]
        np.multiply(table[:-1], coef[:, None], out=modal[:-1])
        modal[:-1] += base[:, None]
        lhs[:, -1] = offset
        return lhs @ modal

    def settle_point(self, forcing: np.ndarray, offset: np.ndarray, lo: np.ndarray, hi: np.ndarray):
        """A span's fixed point, if every mode settles toward it and every head there is in its window.

        Returns (z*, the head voltages v* at z*, the magnitude each v* sums)
        or None.  The span's per-block certificate (``holds``) needs all three.
        """
        if not self.contracts:
            return None
        fixed, head_offset = forcing / self.lam, offset[self.heads]
        head_mv = fixed @ self.head_back + head_offset
        if not ((lo <= head_mv) & (head_mv < hi)).all():  # NaN fails too
            return None
        return fixed, head_mv, np.abs(fixed) @ self.head_abs + np.abs(head_offset)

    def holds(self, state: np.ndarray, point, lo: np.ndarray, hi: np.ndarray) -> bool:
        """Whether no head can leave its window from modal state ``state`` to the span's end."""
        fixed, head_mv, size = point
        reach = np.abs(state - fixed) @ self.head_abs
        margin = reach + _SETTLE_SLACK * (size + reach)
        return bool(((head_mv - margin >= lo) & (head_mv + margin < hi)).all())

    def powers(self, js: np.ndarray) -> np.ndarray:
        """The table r^j of the steps js (at most a table's depth), over a row of ones.

        Each r^j is a function of j alone, so a run recorded at any stride
        evaluates the same rows at the steps it shares with another.
        """
        table = self.power[:, : len(js)]
        np.power(self.rate[:, None], js, out=table[:-1])
        return table


def _initial_voltages(topology: Topology, index: dict, initial_mv: dict, rest: float) -> np.ndarray:
    """Starting node voltages, millivolts off rest: ``initial_mv`` per node id or label, else 0."""
    u = np.zeros(len(index))
    for node, mv in initial_mv.items():
        try:
            col = index[topology.resolve(node)]
        except KeyError as exc:
            raise TopologyError(f"initial voltage at unknown node: {exc.args[0]}") from exc
        if not math.isfinite(mv):
            raise InvalidSpecError(f"initial voltage at {node!r} must be finite, got {mv}")
        u[col] = mv - rest
    return u


def _stimulus_schedule(topology: Topology, system: _ModalSystem, stimuli, h: float, n_steps: int):
    """The forcing intervals of a run, each with its stimulus terms, built once.

    A stimulus is on for the steps on <= k < off, the steps whose time k*h
    passes ``t_start <= k*h < t_start + duration``; the search runs on
    those very products.  The forcing of step k uses the stimulus at steps
    k-1 and k, so it changes at on and off and again one step later; the
    sorted breakpoints are those steps in 2..n_steps, then n_steps + 1.
    Interval i holds the steps from breakpoint i-1 (step 1 for i = 0) to the
    step before breakpoint i, so ``bisect_right(ends, k)`` is the interval of
    step k.

    Returns the breakpoints, the node stimulus (mA) at step 0, and per
    interval, with k its first step, the modal stimulus forcing
    back^T ((1 - theta) s_(k-1) + theta s_k) and the rail voltages
    G_rr^-1 s_k (mV off rest) that the stimulus holds.
    """
    step_times = np.arange(n_steps + 1) * h if stimuli else None
    drive = []
    edges = set()
    for stim in stimuli:
        try:
            node = topology.resolve(stim.node)
        except KeyError as exc:
            raise TopologyError(f"stimulus at unknown node: {exc.args[0]}") from exc
        t0, t1 = stim.t_start, stim.t_start + stim.duration
        if not t0 < t1:  # empty or NaN: never on
            continue
        on, off = (int(k) for k in np.searchsorted(step_times, (t0, t1)))
        drive.append((system.index[node], stim.amplitude * 1e3, on, off))
        edges.update((on, on + 1, off, off + 1))
    ends = sorted(e for e in edges if 1 < e <= n_steps) + [n_steps + 1]
    firsts = np.array([1] + ends[:-1])
    probe = np.concatenate((firsts - 1, firsts))  # the steps k-1, then the steps k
    node_ma = np.zeros((len(probe), len(system.index)))
    for col, amp, on, off in drive:
        node_ma[(on <= probe) & (probe < off), col] += amp
    before, now = node_ma[: len(firsts)], node_ma[len(firsts) :]
    forcing = ((1.0 - system.theta) * before + system.theta * now) @ system.back
    return ends, before[0], forcing, system.rail_inv * now[:, system.rails]


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
    h = config.dt
    n_steps = math.floor(config.t_end / h * (1.0 + _GRID_SLACK))
    system = _ModalSystem(topology, params, h, config.integrator, n_steps)
    stride = int(config.record_stride)
    ends, stim_0, stim_forcing, stim_rails = _stimulus_schedule(topology, system, stimuli, h, n_steps)

    rest = params.v_rest
    u = _initial_voltages(topology, system.index, initial_mv or {}, rest)  # millivolts off rest

    n_segments = len(topology.segments)
    lo_table, hi_table = map(np.array, stay_windows(params))  # per phase code, the stay window
    seg_index = np.arange(n_segments)
    states = np.zeros(n_segments, dtype=np.uint8)

    n_samples = n_steps // stride + 1
    times = np.arange(n_samples) * stride * h
    voltages = np.empty((n, n_samples))  # time-major: a node's samples are contiguous
    phases = np.zeros((n_samples, n_segments), dtype=np.uint8)  # every gate starts at REST
    voltages[:, 0] = u + rest

    modal_state, step_1_extra = system.start(u, stim_0)
    ones = np.ones(n)
    offset = np.full(n, rest)  # rest plus the rail voltages G_rr^-1 b_r of the current span
    head_prev = u[system.heads] + rest
    depth = system.table.shape[1]
    span_end = 0  # last step of the current span, over which the forcing is constant
    done = 0
    while done < n_steps:
        first = done + 1
        if first > span_end:
            interval = bisect.bisect_right(ends, first)
            span_end = ends[interval] - 1
            forcing = stim_forcing[interval] + system.head_back @ system.currents[seg_index, states]
            if first == 1 and step_1_extra is not None:
                forcing -= step_1_extra
                span_end = 1
            offset[system.rails] = rest + stim_rails[interval]
            lo, hi = lo_table[states], hi_table[states]
            lo_col, hi_col = lo[:, None], hi[:, None]
            point = system.settle_point(forcing, offset, lo, hi)
        first_row = -(-first // stride)
        if point is not None and system.holds(modal_state, point, lo, hi):
            # no gate can move before the span ends: write its recorded rows
            # about z*, a table's depth at a time, and go on from its end
            fixed, gap = point[0], modal_state - point[0]
            for row in range(first_row, span_end // stride + 1, depth):
                js = np.arange(row, min(row + depth, span_end // stride + 1)) * stride - done
                voltages[:, row : row + len(js)] = system.rows(fixed, gap, offset, system.powers(js))
            modal_state = fixed + system.rate ** (span_end - done) * gap
            head_prev = modal_state @ system.head_back + offset[system.heads]
            done = span_end
            continue
        m = min(depth, span_end - done)
        gap = forcing - system.lam * modal_state
        block = system.rows(modal_state, gap, offset, system.table[:, :m])

        # a step stops the block when a head leaves its window or a value is non-finite
        head_mv = block[system.heads]
        leaving = (head_mv < lo_col) | (head_mv >= hi_col)
        finite = np.isfinite(ones @ block)  # a NaN or inf anywhere in a column makes its sum non-finite
        stop = leaving.any(axis=0) | ~finite
        cut = int(stop.argmax())
        n_take = cut + 1 if stop[cut] else m
        k = done + n_take
        if not finite[n_take - 1]:
            raise InstabilityError(f"non-finite voltage at step {k} (t = {k * h:.6g} s)", step=k)

        # record the accepted steps done+1 .. k that fall on the grid
        samples = block[:, first_row * stride - first : n_take : stride]
        voltages[:, first_row : first_row + samples.shape[1]] = samples

        if stop[cut]:
            # a transition at the cut step k ends the span: the next block rebuilds the forcing
            v_prev = head_mv[:, cut - 1] if cut > 0 else head_prev
            for s in np.flatnonzero(leaving[:, cut]):
                old = GateState(states[s])
                new = step_gate(old, v_prev[s], head_mv[s, cut], params)
                if new is not old:
                    states[s] = new
                    phases[-(-k // stride) :, s] = new  # rows from ceil(k / stride) on
                    span_end = k

        modal_state = modal_state + system.table[:-1, n_take - 1] * gap
        head_prev = head_mv[:, n_take - 1]
        done += n_take

    return Waveform(
        times=times,
        voltages_mv=voltages.T,
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
    *,
    coarse: Waveform | None = None,
) -> ConvergenceReport:
    """Compare a run at dt against dt/2 on the shared sample grid.

    The fine run records every 2*record_stride-th step, so both runs
    sample identical times.  Reported are the worst absolute voltage
    discrepancy over all nodes and shared samples, and the worst shift in
    per-segment first-firing times.  ``events_diverged`` is set when a
    segment fires in one run but not the other, or when the firing shift
    exceeds two coarse sample spacings: at a trustworthy dt the switching
    sequence must not move on refinement.

    ``coarse``, if given, is the run at dt, ``simulate(topology, stimuli,
    config, params)``, already made; only the dt/2 run is simulated.
    """
    fine_config = replace(config, dt=config.dt / 2.0, record_stride=config.record_stride * 2)
    if coarse is None:
        coarse = simulate(topology, stimuli, config, params)
    fine = simulate(topology, stimuli, fine_config, params)

    n_shared = min(len(coarse.times), len(fine.times))
    diff = np.abs(coarse.voltages_mv[:n_shared] - fine.voltages_mv[:n_shared])

    fired_c = coarse.phases[:n_shared] == GateState.FIRING
    fired_f = fine.phases[:n_shared] == GateState.FIRING
    ever_c, ever_f = fired_c.any(axis=0), fired_f.any(axis=0)
    # argmax finds each segment's first firing sample; only segments that
    # fired in both runs have a shift
    first_c = coarse.times[fired_c.argmax(axis=0)]
    first_f = fine.times[fired_f.argmax(axis=0)]
    shift = float(np.abs(first_c - first_f)[ever_c & ever_f].max(initial=0.0))
    spacing = config.record_stride * config.dt
    diverged = bool((ever_c != ever_f).any()) or shift > 2.0 * spacing

    return ConvergenceReport(
        max_discrepancy_mv=float(diff.max()),
        firing_shift_s=shift,
        events_diverged=diverged,
    )
