"""Wiring of membrane segments into simulatable networks.

Each segment is lumped as an L-section: the axial resistance runs from the
segment's input (tail) node to its output (head) node, and every shunt
element the segment owns (capacitance, loss resistance, switched sources)
sits at the head node.  A consequence worth knowing: the first node of a
chain is a bare rail with no shunt elements of its own.  It exists only to
attach stimuli and carries whatever voltage the series resistance demands.

Node ids are small positive integers.  Builders label nodes the way the
waveforms are usually discussed: "A" and "B" for the input rails, "Z" for
the far end, "J" for a junction and "v(k)" for node k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .errors import InvalidSpecError, TopologyError
from .membrane import SegmentSpec

NodeId = int


@dataclass(frozen=True)
class Segment:
    """One lumped segment: series element tail->head, shunt elements at head."""

    tail: NodeId
    head: NodeId
    spec: SegmentSpec


@dataclass(frozen=True)
class Stimulus:
    """Ideal rectangular current injection at a node.

    ``amplitude`` amperes flow into ``node`` (an id or a label) for t in
    [t_start, t_start + duration); positive current depolarizes.
    """

    node: NodeId | str
    amplitude: float
    t_start: float = 1e-3
    duration: float = 0.2e-3

    def __post_init__(self) -> None:
        # written as "not (valid)" so that NaN fails every check
        if not 0.0 <= self.t_start < math.inf:
            raise InvalidSpecError(f"stimulus t_start must be finite and >= 0, got {self.t_start}")
        if not 0.0 < self.duration < math.inf:
            raise InvalidSpecError(f"stimulus duration must be finite and > 0, got {self.duration}")


@dataclass(frozen=True)
class Topology:
    """Immutable network description.

    Attributes:
        node_ids: every node, in a fixed deterministic order.
        segments: lumped segments; order is the phase-array order used by
            the engine and analysis.
        labels: human name -> node id.
        extra_c: additional shunt capacitance per node, farads (sparse;
            nodes absent from the map carry none).  Houses terminal loads.
    """

    node_ids: tuple[NodeId, ...]
    segments: tuple[Segment, ...]
    labels: dict[str, NodeId] = field(default_factory=dict)
    extra_c: dict[NodeId, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        known = set(self.node_ids)
        if len(known) != len(self.node_ids):
            raise TopologyError("duplicate node ids")
        if not self.segments:
            raise TopologyError("topology has no segments")
        for seg in self.segments:
            if seg.tail == seg.head:
                raise TopologyError(f"segment {seg.tail}->{seg.head} is a self-loop")
            if seg.tail not in known or seg.head not in known:
                raise TopologyError(f"segment {seg.tail}->{seg.head} references unknown nodes")
        for name, node in self.labels.items():
            if node not in known:
                raise TopologyError(f"label {name!r} points at unknown node {node}")
        for node, cap in self.extra_c.items():
            if node not in known:
                raise TopologyError(f"extra capacitance on unknown node {node}")
            if not (0.0 <= cap < math.inf):  # written so that NaN fails too
                raise TopologyError(
                    f"extra capacitance at node {node} must be finite and non-negative, got {cap}"
                )

    def resolve(self, node: NodeId | str) -> NodeId:
        """Map a node id or label to the node id; KeyError if unknown."""
        if isinstance(node, str):
            try:
                return self.labels[node]
            except KeyError:
                raise KeyError(f"unknown node label {node!r}") from None
        if node not in set(self.node_ids):
            raise KeyError(f"unknown node id {node}")
        return node


# =====================================================================
# Builders
# =====================================================================


# Most nodes a builder makes.  It refuses more before allocating anything, so
# an absurd count costs no memory; 2**16 stays above 20,000, so that nets of
# that size still reach simulate, whose run budget is what refuses them.
_MAX_NODES = 1 << 16


def _check_size(kind: str, n_nodes: int) -> None:
    if n_nodes > _MAX_NODES:
        raise InvalidSpecError(f"{kind} would have {n_nodes} nodes, more than {_MAX_NODES}")


def _label_nodes(node_ids: list[NodeId]) -> dict[str, NodeId]:
    return {f"v({k})": k for k in node_ids}


def build_chain(
    n_segments: int,
    spec: SegmentSpec = SegmentSpec(),
    terminal_extra_c: float = 0.0,
) -> Topology:
    """Straight line of identical segments.

    Nodes are 1..n_segments+1 with "A" at node 1 and "Z" at the far end.
    ``terminal_extra_c`` farads are added at the last node; 0 leaves the
    line unloaded so an arriving pulse dies there instead of reflecting.
    """
    if n_segments < 1:
        raise InvalidSpecError(f"chain needs at least one segment, got {n_segments}")
    if not 0.0 <= terminal_extra_c < math.inf:
        raise InvalidSpecError(f"terminal_extra_c must be finite and >= 0, got {terminal_extra_c}")
    _check_size("chain", n_segments + 1)
    nodes = list(range(1, n_segments + 2))
    segments = tuple(Segment(tail=k, head=k + 1, spec=spec) for k in range(1, n_segments + 1))
    labels = _label_nodes(nodes)
    labels["A"] = 1
    labels["Z"] = n_segments + 1
    extra = {n_segments + 1: terminal_extra_c} if terminal_extra_c > 0.0 else {}
    return Topology(node_ids=tuple(nodes), segments=segments, labels=labels, extra_c=extra)


def build_junction(
    branch_len: int,
    trunk_len: int,
    spec: SegmentSpec = SegmentSpec(),
    junction_c_scale: float = 1.0,
) -> Topology:
    """Two input branches merging into one trunk (a Y shape).

    Branch A runs from rail "A" through ``branch_len`` segments to the
    junction node "J"; branch B does the same from rail "B"; the trunk
    continues from the junction for ``trunk_len`` segments to "Z".  Node
    ids follow the usual discussion order: branch A and the trunk are
    numbered like a plain chain (junction = branch_len+1), branch B starts
    at 21 (or higher if the chain part already uses those ids).

    ``junction_c_scale`` multiplies the total shunt capacitance assembled
    at the junction node.  Both branch-end segments terminate there and
    are the only contributors, so the scale is applied through their
    c_scale; resistances and source magnitudes are untouched.  1.0 gives
    the plain merge; thinning to about 0.67 flips the merge behavior from
    OR-like to XOR-like.
    """
    if branch_len < 1:
        raise InvalidSpecError(f"branch_len must be >= 1, got {branch_len}")
    if trunk_len < 1:
        raise InvalidSpecError(f"trunk_len must be >= 1, got {trunk_len}")
    if junction_c_scale <= 0.0:
        raise InvalidSpecError(f"junction_c_scale must be positive, got {junction_c_scale}")
    _check_size("junction", 2 * branch_len + trunk_len + 1)

    junction = branch_len + 1
    z = branch_len + trunk_len + 1
    b_base = max(20, z)  # keep branch B ids clear of the chain ids
    nodes = list(range(1, z + 1)) + list(range(b_base + 1, b_base + branch_len + 1))
    end_spec = replace(spec, c_scale=spec.c_scale * junction_c_scale)

    segments: list[Segment] = []
    for k in range(1, branch_len + 1):  # branch A
        segments.append(Segment(tail=k, head=k + 1, spec=end_spec if k == branch_len else spec))
    for k in range(junction, z):  # trunk
        segments.append(Segment(tail=k, head=k + 1, spec=spec))
    for i in range(1, branch_len + 1):  # branch B, ending at the junction
        tail = b_base + i
        head = junction if i == branch_len else b_base + i + 1
        segments.append(Segment(tail=tail, head=head, spec=end_spec if i == branch_len else spec))

    labels = _label_nodes(nodes)
    labels["A"] = 1
    labels["B"] = b_base + 1
    labels["J"] = junction
    labels["Z"] = z
    return Topology(node_ids=tuple(nodes), segments=tuple(segments), labels=labels)


def build_and_gate(spec: SegmentSpec = SegmentSpec()) -> Topology:
    """Junction variant that only conducts when both inputs pulse together.

    Identical to ``build_junction(5, 5, spec, 1.0)`` except the first
    trunk segment, which is shortened to 0.05 cm and made passive.  The
    passive gap loads the junction enough that a lone pulse cannot lift
    the trunk past threshold, while two coincident pulses can.
    """
    topo = build_junction(5, 5, spec, 1.0)
    junction = topo.labels["J"]
    gate_spec = replace(spec, length=0.05, active=False)
    segments = list(topo.segments)
    for i, seg in enumerate(segments):
        if seg.tail == junction:
            segments[i] = Segment(tail=seg.tail, head=seg.head, spec=gate_spec)
            break
    return replace(topo, segments=tuple(segments))


def build_taper(
    n_segments: int,
    d_start: float,
    d_end: float,
    spec: SegmentSpec = SegmentSpec(),
) -> Topology:
    """Chain whose diameter changes linearly from d_start to d_end (cm).

    Segment k takes the diameter at its own midpoint, so the first and
    last segments sit half a step inside the endpoint diameters.
    """
    if n_segments < 1:
        raise InvalidSpecError(f"taper needs at least one segment, got {n_segments}")
    if d_start <= 0.0 or d_end <= 0.0:
        raise InvalidSpecError(f"taper diameters must be positive, got {d_start}, {d_end}")
    _check_size("taper", n_segments + 1)
    nodes = list(range(1, n_segments + 2))
    segments = []
    for k in range(1, n_segments + 1):
        d = d_start + (d_end - d_start) * (k - 0.5) / n_segments
        segments.append(Segment(tail=k, head=k + 1, spec=replace(spec, diameter=d)))
    labels = _label_nodes(nodes)
    labels["A"] = 1
    labels["Z"] = n_segments + 1
    return Topology(node_ids=tuple(nodes), segments=tuple(segments), labels=labels)
