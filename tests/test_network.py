"""Topology builder structure and validation tests."""

from __future__ import annotations

import math

import pytest

from oracles import node_capacitances
from solitonsim.errors import InvalidSpecError, TopologyError
from solitonsim.membrane import MembraneParams, SegmentSpec
from solitonsim.network import (
    Segment,
    Stimulus,
    Topology,
    build_and_gate,
    build_chain,
    build_junction,
    build_taper,
)

PARAMS = MembraneParams()


# ---------------------------------------------------------------------
# chain
# ---------------------------------------------------------------------


def test_chain_structure():
    topo = build_chain(10)
    assert topo.node_ids == tuple(range(1, 12))
    assert len(topo.segments) == 10
    assert topo.labels["A"] == 1
    assert topo.labels["Z"] == 11
    assert topo.labels["v(7)"] == 7
    for k, seg in enumerate(topo.segments, start=1):
        assert (seg.tail, seg.head) == (k, k + 1)
        assert seg.spec == SegmentSpec()


def test_chain_terminal_load_sits_at_the_last_node():
    topo = build_chain(10, terminal_extra_c=60e-12)
    assert topo.extra_c.get(11, 0.0) == 60e-12
    assert topo.extra_c.get(5, 0.0) == 0.0
    caps = node_capacitances(topo, PARAMS)
    # last node: one segment head plus the load
    assert caps[11] == pytest.approx(3.1415926535897936e-11 + 60e-12, rel=1e-9)


def test_chain_rail_is_the_only_uncapacitive_node():
    caps = node_capacitances(build_chain(10), PARAMS)
    assert caps[1] == 0.0
    assert all(caps[k] > 0.0 for k in range(2, 12))


# ---------------------------------------------------------------------
# junction
# ---------------------------------------------------------------------


def test_junction_structure():
    topo = build_junction(5, 5)
    assert topo.node_ids == tuple(range(1, 12)) + tuple(range(21, 26))
    assert len(topo.segments) == 15
    assert topo.labels["A"] == 1
    assert topo.labels["B"] == 21
    assert topo.labels["J"] == 6
    assert topo.labels["Z"] == 11
    assert topo.labels["v(22)"] == 22
    into_junction = [seg for seg in topo.segments if seg.head == 6]
    out_of_junction = [seg for seg in topo.segments if seg.tail == 6]
    assert sorted(seg.tail for seg in into_junction) == [5, 25]
    assert [seg.head for seg in out_of_junction] == [7]


def test_junction_rails_are_exactly_the_two_inputs():
    caps = node_capacitances(build_junction(5, 5), PARAMS)
    rails = sorted(node for node, c in caps.items() if c == 0.0)
    assert rails == [1, 21]
    assert all(c > 0.0 for node, c in caps.items() if node not in (1, 21))


def test_junction_c_scale_thins_the_junction_node_capacitance():
    plain = node_capacitances(build_junction(5, 5, junction_c_scale=1.0), PARAMS)
    thinned = node_capacitances(build_junction(5, 5, junction_c_scale=0.67), PARAMS)
    assert plain[6] == pytest.approx(2 * 3.1415926535897936e-11, rel=1e-9)
    assert thinned[6] == pytest.approx(0.67 * plain[6], rel=1e-12)
    # every other node is untouched
    for node in plain:
        if node != 6:
            assert thinned[node] == plain[node]


def test_junction_scale_touches_only_the_branch_end_segments():
    plain = build_junction(5, 5, junction_c_scale=1.0)
    thinned = build_junction(5, 5, junction_c_scale=0.67)
    for ps, ts in zip(plain.segments, thinned.segments):
        assert (ps.tail, ps.head) == (ts.tail, ts.head)
        if ts.head == 6:
            assert ts.spec.c_scale == pytest.approx(0.67)
        else:
            assert ts.spec == ps.spec


# ---------------------------------------------------------------------
# AND gate
# ---------------------------------------------------------------------


def test_and_gate_differs_from_plain_junction_only_in_first_trunk_segment():
    junction = build_junction(5, 5, junction_c_scale=1.0)
    gate = build_and_gate()
    assert gate.node_ids == junction.node_ids
    assert gate.labels == junction.labels
    assert gate.extra_c == junction.extra_c
    diffs = [
        (js, gs) for js, gs in zip(junction.segments, gate.segments) if js != gs
    ]
    assert len(diffs) == 1
    js, gs = diffs[0]
    assert (gs.tail, gs.head) == (6, 7) == (js.tail, js.head)
    assert gs.spec.length == 0.05
    assert gs.spec.active is False
    assert gs.spec.diameter == js.spec.diameter


# ---------------------------------------------------------------------
# taper
# ---------------------------------------------------------------------


def test_taper_uses_midpoint_diameters():
    topo = build_taper(10, 1e-4, 0.5e-4)
    diameters = [seg.spec.diameter for seg in topo.segments]
    assert diameters[0] == pytest.approx(9.75e-5, rel=1e-12)
    assert diameters[-1] == pytest.approx(5.25e-5, rel=1e-12)
    assert all(a > b for a, b in zip(diameters, diameters[1:]))
    assert topo.labels["A"] == 1
    assert topo.labels["Z"] == 11


def test_taper_keeps_template_fields():
    template = SegmentSpec(length=0.2, c_scale=0.9)
    topo = build_taper(4, 1e-4, 0.8e-4, template)
    for seg in topo.segments:
        assert seg.spec.length == 0.2
        assert seg.spec.c_scale == 0.9
        assert seg.spec.active is True


# ---------------------------------------------------------------------
# determinism, resolution, validation
# ---------------------------------------------------------------------


def test_builders_are_deterministic():
    assert build_chain(10, terminal_extra_c=60e-12) == build_chain(10, terminal_extra_c=60e-12)
    assert build_junction(5, 5, junction_c_scale=0.67) == build_junction(
        5, 5, junction_c_scale=0.67
    )
    assert build_and_gate() == build_and_gate()
    assert build_taper(10, 1e-4, 0.5e-4) == build_taper(10, 1e-4, 0.5e-4)


def test_resolve_accepts_ids_and_labels():
    topo = build_chain(3)
    assert topo.resolve("A") == 1
    assert topo.resolve("v(2)") == 2
    assert topo.resolve(4) == 4
    with pytest.raises(KeyError):
        topo.resolve("v(99)")
    with pytest.raises(KeyError):
        topo.resolve(99)


@pytest.mark.parametrize(
    "call",
    [
        lambda: build_chain(0),
        lambda: build_chain(3, terminal_extra_c=-1e-12),
        lambda: build_junction(0, 5),
        lambda: build_junction(5, 0),
        lambda: build_junction(5, 5, junction_c_scale=0.0),
        lambda: build_taper(0, 1e-4, 0.5e-4),
        lambda: build_taper(10, 1e-4, 0.0),
        lambda: build_chain(3, terminal_extra_c=math.nan),
        lambda: build_chain(3, terminal_extra_c=math.inf),
        lambda: build_chain(1_000_000_000),
        lambda: build_junction(1_000_000_000, 5),
        lambda: build_taper(1_000_000_000, 1e-4, 0.5e-4),
    ],
)
def test_builder_argument_validation(call):
    with pytest.raises(InvalidSpecError):
        call()


def test_topology_rejects_malformed_wiring():
    spec = SegmentSpec()
    with pytest.raises(TopologyError):
        Topology(node_ids=(1, 2), segments=(Segment(1, 1, spec),))
    with pytest.raises(TopologyError):
        Topology(node_ids=(1, 2), segments=(Segment(1, 3, spec),))
    with pytest.raises(TopologyError):
        Topology(node_ids=(1, 2, 2), segments=(Segment(1, 2, spec),))
    with pytest.raises(TopologyError):
        Topology(node_ids=(1, 2), segments=())
    with pytest.raises(TopologyError):
        Topology(node_ids=(1, 2), segments=(Segment(1, 2, spec),), labels={"A": 9})
    with pytest.raises(TopologyError):
        Topology(node_ids=(1, 2), segments=(Segment(1, 2, spec),), extra_c={9: 1e-12})
    with pytest.raises(TopologyError):
        Topology(node_ids=(1, 2), segments=(Segment(1, 2, spec),), extra_c={2: -1e-12})


@pytest.mark.parametrize("cap", [math.nan, math.inf, -math.inf])
def test_topology_rejects_non_finite_extra_c(cap):
    with pytest.raises(TopologyError, match="finite"):
        Topology(node_ids=(1, 2), segments=(Segment(1, 2, SegmentSpec()),), extra_c={2: cap})


def test_stimulus_validation():
    Stimulus(node=1, amplitude=10e-9, t_start=0.0, duration=0.2e-3)
    with pytest.raises(InvalidSpecError):
        Stimulus(node=1, amplitude=10e-9, t_start=-1e-3, duration=0.2e-3)
    with pytest.raises(InvalidSpecError):
        Stimulus(node=1, amplitude=10e-9, t_start=0.0, duration=0.0)
    non_finite = ((math.nan, 0.2e-3), (math.inf, 0.2e-3), (0.0, math.nan), (0.0, math.inf))
    for t_start, duration in non_finite:
        with pytest.raises(InvalidSpecError):
            Stimulus(node="A", amplitude=10e-9, t_start=t_start, duration=duration)
