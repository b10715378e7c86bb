"""Independent output checks, run outside the timed region.

Each check uses machinery other than what produced the output:

* equivalence -- :func:`repro.bdd.bdd_equivalent`, no SAT solver;
* delay non-increase -- from-scratch :func:`repro.timing.analyze`;
* irredundancy -- exhaustive interpreted fault simulation (every input
  vector at once, ``compiled=False``) up to :data:`EXHAUSTIVE_MAX_PIS`
  inputs, else the from-scratch PODEM+SAT funnel
  (``redundant_faults(..., incremental=False)``);
* ``atpg`` -- the reported redundant-fault list must equal the
  exhaustive ground truth, every planted fault must be untestable and
  reported, and the reported coverage must equal the share of testable
  faults;
* ``serve`` -- done, and the result fingerprint equals the in-process
  ``run_pipeline`` result (checked in ``serve_pass.py``'s caller).

Every check returns a list of problem strings; empty means passed.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

EXHAUSTIVE_MAX_PIS = 16


def exhaustive_inputs(circuit) -> Tuple[Dict[int, int], int]:
    """Packed words applying all ``2**n`` input vectors at once:
    bit ``v`` of input ``i``'s word is bit ``i`` of ``v``."""
    n = len(circuit.inputs)
    width = 1 << n
    words = {}
    for i, gid in enumerate(circuit.inputs):
        period = 1 << i
        block = ((1 << period) - 1) << period  # period zeros, period ones
        word = block
        span = 2 * period
        while span < width:
            word |= word << span
            span *= 2
        words[gid] = word & ((1 << width) - 1)
    return words, width


def untestable_faults(circuit, faults=None) -> List:
    """Faults no input vector detects, by exhaustive interpreted
    simulation (inputs up to :data:`EXHAUSTIVE_MAX_PIS`), else by the
    from-scratch PODEM+SAT funnel."""
    from repro.atpg.faults import collapsed_faults
    from repro.atpg.faultsim import detecting_patterns
    from repro.sim import simulate_packed

    faults = collapsed_faults(circuit) if faults is None else list(faults)
    if len(circuit.inputs) > EXHAUSTIVE_MAX_PIS:
        from repro.atpg.satatpg import redundant_faults

        return redundant_faults(circuit, faults, incremental=False)
    packed, width = exhaustive_inputs(circuit)
    good = simulate_packed(circuit, packed, width)
    return [
        fault for fault in faults
        if not detecting_patterns(
            circuit, fault, packed, width, good, compiled=False
        )
    ]


def check_kms(record) -> List[str]:
    """Function preserved, delay not increased, result irredundant."""
    from repro.bdd import bdd_equivalent
    from repro.engine.serialize import circuit_from_dict
    from repro.timing import UnitDelayModel, analyze

    source = circuit_from_dict(record["input"])
    result = circuit_from_dict(record["output"])
    problems = []
    if not bdd_equivalent(source, result):
        problems.append("function changed (BDD equivalence failed)")
    model = UnitDelayModel(use_arrival_times=record["use_arrival_times"])
    before = analyze(source, model).delay
    after = analyze(result, model).delay
    if after > before + 1e-9:
        problems.append(f"delay increased: {before} -> {after}")
    redundant = untestable_faults(result)
    if redundant:
        problems.append(
            f"not irredundant: {len(redundant)} untestable faults, e.g. "
            f"{redundant[0].describe(result)}"
        )
    return problems


def kms_quality(record) -> Tuple[int, float]:
    """(gates, topological delay) of a KMS result."""
    from repro.engine.serialize import circuit_from_dict
    from repro.timing import UnitDelayModel, analyze

    result = circuit_from_dict(record["output"])
    model = UnitDelayModel(use_arrival_times=record["use_arrival_times"])
    return result.num_gates(), analyze(result, model).delay


_REPORT = {
    "total": re.compile(r"^collapsed faults : (\d+)$"),
    "redundant": re.compile(r"^redundant faults : (\d+)$"),
    "tests": re.compile(r"^test set\s+: (\d+) vectors"),
    "coverage": re.compile(r"^fault coverage\s+: ([\d.]+%)$"),
}


def parse_atpg_report(stdout: str) -> Tuple[Dict[str, str], List[str]]:
    """The ``repro atpg --tests`` report: headline fields plus the
    listed redundant faults."""
    fields: Dict[str, str] = {}
    listed: List[str] = []
    for line in stdout.splitlines():
        if line.startswith("  "):
            listed.append(line.strip())
            continue
        for key, pattern in _REPORT.items():
            match = pattern.match(line.strip())
            if match:
                fields[key] = match.group(1)
    return fields, listed


def map_planted_faults(planted, parsed):
    """Map faults of the planted circuit onto the circuit re-parsed
    from its BLIF.  ``write_blif`` lists one table per gate in
    topological order and the parser creates one gate per table in that
    order (outputs last), so gates pair up by creation order; the pairing
    is then verified gate by gate (type and fanin multiset -- lowering
    may reorder a gate's pins)."""
    from repro.atpg.faults import CONN, Fault
    from repro.network import GateType

    ends = (GateType.INPUT, GateType.OUTPUT)
    mapping = {}
    by_name = {parsed.gates[g].name: g for g in parsed.inputs}
    for gid in planted.inputs:
        mapping[gid] = by_name[planted.gates[gid].name]
    mapping.update(zip(planted.outputs, parsed.outputs))
    ours = [g for g in planted.topological_order()
            if planted.gates[g].gtype not in ends]
    theirs = sorted(g for g, gate in parsed.gates.items()
                    if gate.gtype not in ends)
    mapping.update(zip(ours, theirs))
    for gid, other in mapping.items():
        fanin = sorted(mapping[s] for s in planted.fanin_gates(gid))
        if (len(ours) != len(theirs)
                or planted.gates[gid].gtype is not parsed.gates[other].gtype
                or fanin != sorted(parsed.fanin_gates(other))):
            raise ValueError(f"no structural match for gate {gid}")

    def convert(fault) -> "Fault":
        if fault.kind != CONN:
            return Fault(fault.kind, mapping[fault.site], fault.value)
        # the k-th connection from the same source into the same gate
        # (pins a duplicated literal shares are interchangeable)
        conn = planted.conns[fault.site]
        twins = [c for c in planted.gates[conn.dst].fanin
                 if planted.conns[c].src == conn.src]
        targets = [c for c in parsed.gates[mapping[conn.dst]].fanin
                   if parsed.conns[c].src == mapping[conn.src]]
        return Fault(CONN, targets[twins.index(fault.site)], fault.value)

    return convert


def check_atpg(record) -> Tuple[List[str], Optional[int]]:
    """(problems, vectors in the generated test set)."""
    from repro.atpg.faults import Fault, collapsed_faults
    from repro.engine.serialize import circuit_from_dict
    from repro.io import parse_blif

    problems = []
    if record["exit_code"] != 0:
        return [f"repro atpg exited {record['exit_code']}"], None
    fields, listed = parse_atpg_report(record["stdout"])
    if set(fields) != set(_REPORT):
        return [f"unparsable report, got fields {sorted(fields)}"], None
    circuit = parse_blif(record["blif"])
    universe = collapsed_faults(circuit)
    truth = untestable_faults(circuit, universe)
    truth_names = sorted(f.describe(circuit) for f in truth)
    if int(fields["total"]) != len(universe):
        problems.append(
            f"fault count {fields['total']} != {len(universe)}"
        )
    if sorted(listed) != truth_names or int(fields["redundant"]) != len(truth):
        problems.append(
            f"redundant faults {sorted(listed)} != ground truth {truth_names}"
        )
    convert = map_planted_faults(
        circuit_from_dict(record["planted_circuit"]), circuit
    )
    planted = [convert(Fault(k, s, v)) for k, s, v in record["planted"]]
    if untestable_faults(circuit, planted) != planted:
        problems.append("a planted fault is testable")
    in_universe = set(universe)
    for fault in planted:
        if fault in in_universe and fault.describe(circuit) not in listed:
            problems.append(
                f"planted fault {fault.describe(circuit)} not reported"
            )
    expected = (len(universe) - len(truth)) / len(universe)
    if fields["coverage"] != f"{expected:.1%}":
        problems.append(
            f"coverage {fields['coverage']} != recomputed {expected:.1%}"
        )
    return problems, int(fields["tests"])
