"""Property suite: every UNSAT core the KMS loop learns is a real proof.

``IncrementalTiming`` stores each exact UNSAT verdict as a minimal core
of ``(fingerprint, value)`` pairs and later answers any constraint set
containing it without a solve.  Here ``check_path`` is hooked so each
core is checked the moment it is learned, by machinery the solver does
not share: exhaustive packed simulation (``simulate_packed``) over all
``2**n`` input patterns must find no pattern meeting every constraint
of the core, and dropping any one constraint must let some pattern
through (the core is minimal).  Each run is also compared with the
from-scratch oracle ``kms(..., incremental=False)``: the final circuits
must be fingerprint-identical.

About 150 random and random-redundant circuits (at most 12 PIs) plus
small carry-skip adders, in static and viability mode, in batches kept
well under CI's per-test timeout.
"""

import pytest

from repro.circuits import (
    carry_skip_adder,
    random_circuit,
    random_redundant_circuit,
)
from repro.core import kms
from repro.engine.hashing import circuit_fingerprint
from repro.sim import simulate_packed
from repro.timing import AsBuiltDelayModel, IncrementalTiming, UnitDelayModel

BATCHES = 6
CIRCUITS_PER_BATCH = 25


def _exhaustive_values(circuit):
    """Every gate's value under all 2**n input patterns, one bit each."""
    width = 1 << len(circuit.inputs)
    packed = {}
    for i, gid in enumerate(circuit.inputs):
        word = 0
        for k in range(width):
            if (k >> i) & 1:
                word |= 1 << k
        packed[gid] = word
    return simulate_packed(circuit, packed, width), width


def _patterns_meeting(values, width, constraints):
    mask = (1 << width) - 1
    word = mask
    for gid, value in constraints:
        word &= values[gid] if value else ~values[gid] & mask
    return word


@pytest.fixture
def core_checks(monkeypatch):
    """Hook ``check_path``; returns the list of cores checked so far."""
    checked = []
    original = IncrementalTiming.check_path

    def hooked(self, path):
        before = len(self.cores)
        verdict = original(self, path)
        for core in self.cores[before:]:
            by_fp = {fp: gid for gid, fp in self.fingerprints.items()}
            constraints = [(by_fp[fp], value) for fp, value in core]
            values, width = _exhaustive_values(self.circuit)
            assert not _patterns_meeting(values, width, constraints), (
                f"learned core {sorted(constraints)} is satisfiable"
            )
            for dropped in constraints:
                rest = [c for c in constraints if c != dropped]
                assert _patterns_meeting(values, width, rest), (
                    f"core {sorted(constraints)} is not minimal"
                )
            checked.append(core)
        return verdict

    monkeypatch.setattr(IncrementalTiming, "check_path", hooked)
    return checked


def _assert_matches_oracle(circuit, mode, model):
    fast = kms(circuit, mode=mode, model=model)
    full = kms(circuit, mode=mode, model=model, incremental=False)
    assert circuit_fingerprint(fast.circuit) == circuit_fingerprint(
        full.circuit
    )
    assert fast.counters["paths_enumerated"] == (
        full.counters["paths_enumerated"]
    )
    return fast


def _random_case(seed):
    kind = seed % 3
    num_inputs = 3 + seed % 10  # 3..12 PIs
    if kind == 0:
        return random_redundant_circuit(
            num_inputs=num_inputs, num_gates=10 + seed % 15, seed=seed,
            max_arrival=float(seed % 3),
        )
    if kind == 1:
        return random_redundant_circuit(
            num_inputs=num_inputs, num_gates=12 + seed % 10, seed=seed,
        )
    return random_circuit(
        num_inputs=num_inputs, num_gates=12 + seed % 18, seed=seed,
        max_arrival=float(seed % 4),
    )


@pytest.mark.parametrize("batch", range(BATCHES))
def test_random_cores_are_proofs(core_checks, batch):
    model = AsBuiltDelayModel()
    for i in range(CIRCUITS_PER_BATCH):
        seed = 7000 + batch * CIRCUITS_PER_BATCH + i
        mode = "viability" if seed % 2 else "static"
        _assert_matches_oracle(_random_case(seed), mode, model)


@pytest.mark.parametrize("mode", ["static", "viability"])
@pytest.mark.parametrize("nbits,block", [(2, 2), (3, 1), (4, 2), (4, 4)])
def test_carry_skip_cores_are_proofs(core_checks, nbits, block, mode):
    model = UnitDelayModel(use_arrival_times=False)
    result = _assert_matches_oracle(
        carry_skip_adder(nbits, block), mode, model
    )
    hits = result.counters["viability_core_hits"]
    if hits:
        assert core_checks, "core hits need a learned core"
    assert result.counters["viability_checks_exact"] >= len(core_checks)


def test_random_batches_learn_cores(core_checks):
    """The random suite must actually exercise the core store."""
    model = AsBuiltDelayModel()
    hits = 0
    for seed in range(7000, 7000 + CIRCUITS_PER_BATCH):
        hits += kms(
            _random_case(seed), mode="static", model=model
        ).counters["viability_core_hits"]
    assert core_checks, "no core learned on 25 random circuits"
    assert hits, "no path check answered from a stored core"
