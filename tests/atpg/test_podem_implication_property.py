"""Event-driven PODEM implication against from-scratch oracles.

Two properties, over every collapsed fault of about 200 small circuits
(seeded ``random_circuit`` / ``random_redundant_circuit`` draws, a mixed
generator with XOR/XNOR/BUF gates and constant sources, Fig. 1 and small
adders):

* after every fault injection, PI assignment and trail undo, the
  incremental implication state equals a full
  :func:`repro.sim.dcalc.simulate5` of the current assignment;
* every :class:`PodemResult` (status, test cube, backtracks) equals the
  one :class:`ReferencePodem` -- PODEM with a full composite
  resimulation and a full D-frontier scan per decision, kept here as
  the from-scratch reference -- returns at backtrack limits 0, 1, 100
  and the default.

The fault lists include stem faults on primary inputs (the faulty rail
of an assigned PI must stay stuck), branch faults into OUTPUT markers,
and faults next to constant-driven gates.
"""

import random
from typing import Dict, List, Optional, Tuple

import pytest

from repro.atpg import Podem, PodemResult, Status, collapsed_faults
from repro.atpg.faults import CONN, STEM, Fault
from repro.atpg.scoap import compute_scoap
from repro.circuits import (
    carry_lookahead_adder,
    carry_skip_adder,
    fig1_carry_skip_block,
    random_circuit,
    random_redundant_circuit,
    ripple_carry_adder,
)
from repro.network import (
    Builder,
    Circuit,
    GateType,
    has_controlling_value,
    noncontrolling_value,
)
from repro.sim import X, simulate5
from repro.sim.dcalc import is_d_or_dbar

LIMITS = (0, 1, 100, 20000)


class ReferencePodem:
    """PODEM with a full 5-valued resimulation per decision."""

    def __init__(self, circuit: Circuit, backtrack_limit: int = 20000):
        self.circuit = circuit
        self.backtrack_limit = backtrack_limit
        self._depth: Dict[int, int] = {}
        for gid in circuit.topological_order():
            preds = [self._depth[src] for src in circuit.fanin_gates(gid)]
            self._depth[gid] = 1 + max(preds, default=0)
        self._scoap = compute_scoap(circuit)

    def _site_gate(self, fault: Fault) -> int:
        if fault.kind == CONN:
            return self.circuit.conns[fault.site].src
        return fault.site

    def _simulate(self, fault, assignment):
        if fault.kind == CONN:
            return simulate5(self.circuit, assignment,
                             fault_conn=fault.site, stuck_value=fault.value)
        return simulate5(self.circuit, assignment,
                         fault_gate=fault.site, stuck_value=fault.value)

    def _d_frontier(self, fault, values) -> List[int]:
        frontier = []
        for gid, gate in self.circuit.gates.items():
            val = values[gid]
            if val[0] != X and val[1] != X:
                continue
            for cid in gate.fanin:
                v = values[self.circuit.conns[cid].src]
                if fault.kind == CONN and cid == fault.site:
                    v = (v[0], fault.value)
                if is_d_or_dbar(v):
                    frontier.append(gid)
                    break
        return frontier

    def _x_path_exists(self, frontier, values) -> bool:
        seen = set()
        stack = list(frontier)
        while stack:
            gid = stack.pop()
            if gid in seen:
                continue
            seen.add(gid)
            if self.circuit.gates[gid].gtype is GateType.OUTPUT:
                return True
            for dst in self.circuit.fanout_gates(gid):
                v = values[dst]
                if v[0] == X or v[1] == X or is_d_or_dbar(v):
                    stack.append(dst)
        return False

    def _objective(self, fault, values) -> Optional[Tuple[int, int]]:
        site = self._site_gate(fault)
        if values[site][0] == X:
            return (site, 1 - fault.value)
        frontier = self._d_frontier(fault, values)
        if not frontier:
            return None
        frontier.sort(key=lambda g: -self._depth[g])
        gate = self.circuit.gates[frontier[0]]
        ncv = (noncontrolling_value(gate.gtype)
               if has_controlling_value(gate.gtype) else None)
        for cid in gate.fanin:
            src = self.circuit.conns[cid].src
            if values[src][0] == X:
                return (src, ncv if ncv is not None else 1)
        return None

    def _backtrace(self, objective, values) -> Optional[Tuple[int, int]]:
        gid, value = objective
        guard = 0
        while True:
            guard += 1
            if guard > len(self.circuit.gates) + 2:
                return None
            gate = self.circuit.gates[gid]
            if gate.gtype is GateType.INPUT:
                return (gid, value)
            if gate.gtype in (GateType.CONST0, GateType.CONST1):
                return None
            if gate.gtype in (GateType.NOT, GateType.NAND, GateType.NOR):
                value = 1 - value
            x_pins = [
                self.circuit.conns[cid].src for cid in gate.fanin
                if values[self.circuit.conns[cid].src][0] == X
            ]
            if not x_pins:
                return None
            gid = min(x_pins,
                      key=lambda g: self._scoap.controllability(g, value))

    def _check(self, fault, values) -> Optional[bool]:
        for po in self.circuit.outputs:
            if is_d_or_dbar(values[po]):
                return True
        good = values[self._site_gate(fault)][0]
        if good != X and good == fault.value:
            return False
        if good != X:
            frontier = self._d_frontier(fault, values)
            if not frontier or not self._x_path_exists(frontier, values):
                return False
        return None

    def generate(self, fault: Fault) -> PodemResult:
        assignment: Dict[int, Tuple] = {}
        decisions: List[Tuple[int, int, bool]] = []
        backtracks = 0
        while True:
            values = self._simulate(fault, assignment)
            outcome = self._check(fault, values)
            if outcome is True:
                test = {pi: v[0] for pi, v in assignment.items()}
                return PodemResult(Status.TESTABLE, test, backtracks)
            if outcome is None:
                objective = self._objective(fault, values)
                target = (self._backtrace(objective, values)
                          if objective is not None else None)
                if target is None:
                    target = next(((pi, 0) for pi in self.circuit.inputs
                                   if pi not in assignment), None)
                if target is not None:
                    pi, value = target
                    decisions.append((pi, value, False))
                    assignment[pi] = (value, value)
                    continue
            while decisions:
                pi, value, flipped = decisions.pop()
                del assignment[pi]
                if not flipped:
                    backtracks += 1
                    if backtracks > self.backtrack_limit:
                        return PodemResult(Status.ABORTED, None, backtracks)
                    newv = 1 - value
                    decisions.append((pi, newv, True))
                    assignment[pi] = (newv, newv)
                    break
            else:
                return PodemResult(Status.UNTESTABLE, None, backtracks)


#: one rail of a packed implication word: bits "can be 1", "can be 0"
_RAIL = {1: 1, 2: 0, 3: X}


class CheckedPodem(Podem):
    """The production engine with its implication state compared to a
    full ``simulate5`` after every injection, assignment and undo."""

    checks = 0

    def _expected(self):
        assignment = {
            self._gid[pi]: (v, v) for pi, v, _, _ in self._decisions
        }
        kind = "fault_conn" if self._fault.kind == CONN else "fault_gate"
        return simulate5(self.circuit, assignment,
                         **{kind: self._fault.site},
                         stuck_value=self._fault.value)

    def _verify(self, when):
        state = {
            gid: (_RAIL[word & 3], _RAIL[word >> 2])
            for gid, word in zip(self._gid, self._vals)
        }
        assert state == self._expected(), (
            f"implication state diverged after {when} for {self._fault}"
        )
        CheckedPodem.checks += 1

    def _inject(self, fault):
        self._fault = fault
        super()._inject(fault)
        self._verify("injection")

    def _assign(self, pi, value):
        super()._assign(pi, value)
        self._verify(f"assigning {self._gid[pi]}={value}")

    def _undo(self, mark):
        super()._undo(mark)
        self._verify("undo")


# ---------------------------------------------------------------------- #
# circuits
# ---------------------------------------------------------------------- #

_MIXED = (GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
          GateType.XOR, GateType.XNOR, GateType.NOT, GateType.BUF)


def mixed_circuit(seed: int) -> Circuit:
    """Random logic over the whole gate vocabulary, with a constant
    source and a PI wired straight to an output."""
    rng = random.Random(seed)
    b = Builder(f"mixed_{seed}")
    signals = [b.input(f"x{i}") for i in range(rng.randint(2, 4))]
    signals.append(b.const(rng.randint(0, 1)))
    for _ in range(rng.randint(4, 9)):
        gtype = rng.choice(_MIXED)
        if gtype in (GateType.NOT, GateType.BUF):
            fanin = [rng.choice(signals)]
        else:
            fanin = [rng.choice(signals)
                     for _ in range(rng.randint(2, 3))]
        signals.append(b.circuit.add_simple(gtype, fanin))
    b.output("y0", signals[-1])
    b.output("y1", rng.choice(signals[-4:]))
    b.output("yi", signals[0])
    return b.done()


def _circuits():
    out = []
    for seed in range(70):
        out.append((f"rand{seed}", lambda s=seed: random_circuit(
            num_inputs=3 + s % 3, num_gates=8 + s % 7, seed=s)))
    for seed in range(70):
        out.append((f"randred{seed}", lambda s=seed: random_redundant_circuit(
            num_inputs=3 + s % 3, num_gates=8 + s % 8, seed=s)))
    for seed in range(60):
        out.append((f"mixed{seed}", lambda s=seed: mixed_circuit(s)))
    out += [
        ("fig1", fig1_carry_skip_block),
        ("rca2", lambda: ripple_carry_adder(2)),
        ("cla2", lambda: carry_lookahead_adder(2)),
        ("csa2.2", lambda: carry_skip_adder(2, 2)),
    ]
    return out


CIRCUITS = _circuits()


def _faults(circuit: Circuit) -> List[Fault]:
    """Collapsed faults plus PI stems and branches into OUTPUT markers,
    which collapsing may fold into other representatives."""
    faults = list(collapsed_faults(circuit))
    seen = set(faults)
    extra = []
    for gid in circuit.inputs:
        if circuit.gates[gid].fanout:
            extra += [Fault(STEM, gid, 0), Fault(STEM, gid, 1)]
    for gid in circuit.outputs:
        cid = circuit.gates[gid].fanin[0]
        extra += [Fault(CONN, cid, 0), Fault(CONN, cid, 1)]
    return faults + [f for f in extra if f not in seen]


@pytest.mark.parametrize("name,build", CIRCUITS,
                         ids=[name for name, _ in CIRCUITS])
def test_implication_matches_full_resimulation(name, build):
    circuit = build()
    faults = _faults(circuit)
    for limit in LIMITS:
        podem = CheckedPodem(circuit, backtrack_limit=limit)
        reference = ReferencePodem(circuit, backtrack_limit=limit)
        for fault in faults:
            got = podem.generate(fault)
            want = reference.generate(fault)
            assert got == want, (
                f"{name} limit={limit} {fault}: {got} != {want}"
            )
            assert list(got.test or {}) == list(want.test or {})


def test_suite_covers_the_tricky_fault_sites():
    """The circuit list really contains PI stem faults, branch faults
    into OUTPUT markers, and constant-driven gates."""
    pi_stems = out_branches = const_driven = 0
    for _, build in CIRCUITS:
        c = build()
        for f in _faults(c):
            if f.kind == STEM and c.gates[f.site].gtype is GateType.INPUT:
                pi_stems += 1
            if (f.kind == CONN and
                    c.gates[c.conns[f.site].dst].gtype is GateType.OUTPUT):
                out_branches += 1
        const_driven += sum(
            1 for g in c.gates.values()
            if g.gtype in (GateType.CONST0, GateType.CONST1) and g.fanout
        )
    assert len(CIRCUITS) >= 200
    assert pi_stems > 100 and out_branches > 100 and const_driven > 20


def test_state_checks_ran():
    """Guard against the hooks silently not firing."""
    CheckedPodem.checks = 0
    c = fig1_carry_skip_block()
    podem = CheckedPodem(c)
    for fault in _faults(c):
        podem.generate(fault)
    assert CheckedPodem.checks > len(_faults(c))
