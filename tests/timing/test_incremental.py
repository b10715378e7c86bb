"""Directed tests for the incremental timing engine.

The randomized agreement guarantees live in
``test_incremental_property.py``; here each moving part is exercised in
isolation: dirty-cone relaxation counts, the packed-simulation witness
prefilter, the fingerprint-keyed UNSAT core store, and the
``paths_capped`` warning on truncated path enumeration.
"""

import warnings

import pytest

from repro.circuits import carry_skip_adder, ripple_carry_adder
from repro.core import kms
from repro.network.transform import set_connection_constant
from repro.sim import simulate_packed
from repro.timing import (
    IncrementalSTA,
    IncrementalTiming,
    SensitizationChecker,
    UnitDelayModel,
    ViabilityChecker,
    analyze,
    iter_paths_longest_first,
)

MODEL = UnitDelayModel(use_arrival_times=False)


# ---------------------------------------------------------------------- #
# dirty-cone STA
# ---------------------------------------------------------------------- #

def test_incremental_sta_relaxes_only_the_dirty_cone():
    circuit = ripple_carry_adder(8)
    sta = IncrementalSTA(circuit, MODEL)
    rebuild_cost = sta.arrival_relaxations
    assert rebuild_cost == len(circuit.gates)

    cid = next(iter(circuit.gates[circuit.inputs[-1]].fanout))
    _, touched = set_connection_constant(circuit, cid, 0)
    sta.refresh(touched)

    delta = sta.arrival_relaxations - rebuild_cost
    assert 0 < delta < len(circuit.gates)
    ann = analyze(circuit, MODEL)
    assert sta.arrival == ann.arrival
    assert sta.dist_to_po == ann.dist_to_po
    assert sta.delay == ann.delay


def test_incremental_sta_annotation_is_a_snapshot():
    circuit = carry_skip_adder(2, 2)
    sta = IncrementalSTA(circuit, MODEL)
    before = sta.annotation()
    cid = next(iter(circuit.gates[circuit.inputs[0]].fanout))
    _, touched = set_connection_constant(circuit, cid, 1)
    sta.refresh(touched)
    after = sta.annotation()
    assert before.arrival != after.arrival or before.delay != after.delay
    assert before.arrival is not after.arrival


# ---------------------------------------------------------------------- #
# check_path: witness prefilter -> core store -> exact SAT
# ---------------------------------------------------------------------- #

def _timing_and_paths(mode):
    circuit = carry_skip_adder(2, 2)
    timing = IncrementalTiming(circuit, MODEL, mode=mode)
    timing.begin_iteration()
    paths = list(iter_paths_longest_first(
        circuit, MODEL, timing.annotation(), max_paths=50
    ))
    return circuit, timing, paths


def test_check_path_agrees_with_sensitization_checker():
    circuit, timing, paths = _timing_and_paths("static")
    checker = SensitizationChecker(circuit)
    for path in paths:
        assert timing.check_path(path) == checker.is_sensitizable(path)
    assert timing.viability_checks_exact > 0 or (
        timing.viability_checks_prefiltered == len(paths)
    )


def test_check_path_agrees_with_viability_checker():
    circuit, timing, paths = _timing_and_paths("viability")
    checker = ViabilityChecker(circuit, MODEL)
    for path in paths:
        assert timing.check_path(path) == checker.is_viable(path)


def test_prefilter_witness_cube_is_sound():
    circuit, timing, paths = _timing_and_paths("static")
    witnessed = 0
    for path in paths:
        cube = timing.witness_cube(path)
        if cube is None:
            continue
        witnessed += 1
        packed = {gid: cube[gid] & 1 for gid in circuit.inputs}
        values = simulate_packed(circuit, packed, 1)
        for src, required in timing.path_constraints(path):
            assert values[src] & 1 == required
    assert witnessed > 0, "expected the 64-pattern prefilter to hit"


def _hard_paths(circuit, paths):
    checker = SensitizationChecker(circuit)
    hard = [p for p in paths if not checker.is_sensitizable(p)]
    assert hard, "carry-skip adders have false paths"
    return hard


def test_core_store_serves_repeated_hard_path():
    circuit, timing, paths = _timing_and_paths("static")
    path = _hard_paths(circuit, paths)[0]
    assert timing.check_path(path) is False
    assert timing.viability_checks_exact == 1
    assert len(timing.cores) == 1
    assert timing.check_path(path) is False
    assert timing.viability_checks_exact == 1
    assert timing.viability_core_hits == 1


def test_core_store_survives_refresh_and_new_iteration():
    circuit, timing, paths = _timing_and_paths("static")
    path = _hard_paths(circuit, paths)[0]
    timing.check_path(path)
    cores = list(timing.cores)
    timing.refresh(set())
    timing.begin_iteration()
    assert timing.check_path(path) is False
    assert timing.viability_checks_exact == 1
    assert timing.viability_core_hits == 1
    assert timing.cores == cores


def test_core_resolves_a_different_path_containing_it():
    circuit = carry_skip_adder(4, 1)
    timing = IncrementalTiming(circuit, MODEL, mode="static")
    timing.begin_iteration()
    paths = list(iter_paths_longest_first(
        circuit, MODEL, timing.annotation(), max_paths=50
    ))
    first = _hard_paths(circuit, paths)[0]
    assert timing.check_path(first) is False
    (core,) = timing.cores
    fps = timing.fingerprints

    def pairs(path):
        return {(fps[src], v) for src, v in timing.path_constraints(path)}

    # the core is a proper subset of the path's constraints ...
    assert core < pairs(first)
    others = [
        p for p in paths if p != first and pairs(p) != pairs(first)
        and core <= pairs(p)
    ]
    assert others, "expected another longest path sharing the core"
    # ... so a different path containing it needs no solve
    assert timing.check_path(others[0]) is False
    assert timing.viability_checks_exact == 1
    assert timing.viability_core_hits == 1


# ---------------------------------------------------------------------- #
# paths_capped telemetry + warning
# ---------------------------------------------------------------------- #

def test_kms_warns_when_path_enumeration_is_capped():
    circuit = carry_skip_adder(4, 2)
    with pytest.warns(UserWarning, match="capped at 1 paths"):
        result = kms(circuit, model=MODEL, max_longest_paths=1)
    assert result.counters["paths_capped"] >= 1


def test_kms_uncapped_run_emits_no_cap_warning():
    circuit = carry_skip_adder(2, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = kms(circuit, model=MODEL)
    assert result.counters["paths_capped"] == 0


# ---------------------------------------------------------------------- #
# backward-seed tightening (PR 10)
# ---------------------------------------------------------------------- #

def test_backward_seed_skips_parents_when_parent_visible_state_unchanged():
    """Refreshing a touched gate whose delay, fanin edges, and dist are
    all unchanged must relax that gate alone -- not fan out to every
    fanin source the way the old unconditional parent seeding did."""
    circuit = ripple_carry_adder(4)
    sta = IncrementalSTA(circuit, MODEL)
    gid = next(
        g
        for g, gate in circuit.gates.items()
        if len(gate.fanin) >= 2 and gate.fanout
    )
    base_fwd = sta.arrival_relaxations
    base_bwd = sta.dist_relaxations
    sta.refresh({gid})
    # forward: the gate plus the early-cutoff visit of its fanouts;
    # backward: exactly the seed, no parent fan-out.
    assert sta.arrival_relaxations - base_fwd >= 1
    assert sta.dist_relaxations - base_bwd == 1
    ann = analyze(circuit, MODEL)
    assert sta.arrival == ann.arrival
    assert sta.dist_to_po == ann.dist_to_po


def test_backward_seed_still_reaches_parents_on_edge_delay_change():
    """An in-edge delay change leaves the touched gate's own dist alone
    but moves its parents' -- the memo key must catch it."""
    from repro.network import Builder
    from repro.timing import AsBuiltDelayModel

    b = Builder("seed")
    x, y = b.inputs("x", "y")
    g = b.and_(x, y, delay=1.0)
    b.output("o", g)
    circuit = b.done()
    model = AsBuiltDelayModel()
    sta = IncrementalSTA(circuit, model)
    assert sta.dist_to_po[x] == 1.0
    cid = circuit.gates[g].fanin[0]  # the x -> g edge
    circuit.set_connection_delay(cid, 5.0)
    sta.refresh({g})  # transform contract: the edge's dst is touched
    ann = analyze(circuit, model)
    assert sta.dist_to_po == ann.dist_to_po
    assert sta.dist_to_po[x] == 6.0
    assert sta.dist_to_po[y] == 1.0


def test_backward_seed_still_reaches_parents_on_gate_delay_change():
    from repro.network import Builder
    from repro.timing import AsBuiltDelayModel

    b = Builder("seed2")
    x, y = b.inputs("x", "y")
    inner = b.or_(x, y, delay=1.0)
    g = b.and_(inner, y, delay=1.0)
    b.output("o", g)
    circuit = b.done()
    model = AsBuiltDelayModel()
    sta = IncrementalSTA(circuit, model)
    circuit.set_gate_delay(g, 4.0)
    sta.refresh({g})
    ann = analyze(circuit, model)
    assert sta.arrival == ann.arrival
    assert sta.dist_to_po == ann.dist_to_po
    assert sta.dist_to_po[inner] == 4.0
