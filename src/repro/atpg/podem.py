"""PODEM test pattern generation (Goel 1981).

A complete branch-and-bound over primary-input assignments: objectives
are backtraced to PIs, candidate assignments are validated by 5-valued
implication, and exhaustion of the PI space proves a fault *untestable*
-- exactly the redundancy identification the paper relies on ("the
single stuck-at-0 fault on the output of the gate 10 is not testable").

Implication is event-driven.  Each :class:`Podem` instance lowers its
circuit once into a flat view indexed by topological position and
caches the all-X state.  A fault is injected by propagating from its
site; assigning a PI re-evaluates only the gates of its fanout cone
whose inputs changed, in topological order, and records every
overwritten value on a trail that a backtrack pops back to the
decision's mark.  The search itself -- objective, backtrace, decision
order, backtracks -- is the textbook one, so the outcome of a run is
the same as with a full resimulation per decision;
:func:`repro.sim.dcalc.simulate5` is the oracle the implication state
is checked against in the test suite, and the SAT-based engine
(:mod:`repro.atpg.satatpg`) independently cross-checks the verdicts.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..network import (
    Circuit,
    GateType,
    has_controlling_value,
    noncontrolling_value,
)
# simulate5 is not called here; it stays bound in this module because
# perfbench's layer tracer patches ``podem.simulate5``
from ..sim import X, simulate5  # noqa: F401
from ..sim.opcodes import (
    OP_AND,
    OP_BUF,
    OP_CONST0,
    OP_CONST1,
    OP_INPUT,
    OP_NAND,
    OP_NOR,
    OP_NOT,
    OP_OR,
    OP_XNOR,
    OP_XOR,
    OPCODE,
)
from .faults import CONN, Fault

# ---------------------------------------------------------------------- #
# packed composite values
# ---------------------------------------------------------------------- #
# One rail (good or faulty) is two bits: bit 0 "can be 1", bit 1 "can be
# 0", so 1 -> 0b01, 0 -> 0b10 and X -> 0b11.  A composite value packs
# the good rail in bits 0-1 and the faulty rail in bits 2-3; in this
# encoding AND/OR over both rails at once is one bitwise reduction.

_RAIL = {1: 1, 0: 2, X: 3}
_ONE, _ZERO, _XX = 5, 10, 15
_D, _DBAR = 9, 6
_CAN1 = 5   # "can be 1" bits of both rails
_CAN0 = 10  # "can be 0" bits of both rails


def _invert(word: int) -> int:
    return (word & _CAN1) << 1 | (word & _CAN0) >> 1


def _eval_word(op: int, words) -> int:
    """Evaluate one gate over packed composite input words."""
    if op == OP_AND or op == OP_NAND or op == OP_OR or op == OP_NOR:
        every, some = 15, 0
        for w in words:
            every &= w
            some |= w
        if op == OP_AND or op == OP_NAND:
            out = every & _CAN1 | some & _CAN0
            return out if op == OP_AND else _invert(out)
        out = some & _CAN1 | every & _CAN0
        return out if op == OP_OR else _invert(out)
    if op == OP_BUF:
        return words[0]
    if op == OP_NOT:
        return _invert(words[0])
    if op == OP_XOR or op == OP_XNOR:
        acc = _ZERO
        for w in words:
            a1, a0 = acc & _CAN1, acc >> 1 & _CAN1
            b1, b0 = w & _CAN1, w >> 1 & _CAN1
            acc = (a1 & b0 | a0 & b1) | (a0 & b0 | a1 & b1) << 1
        return acc if op == OP_XOR else _invert(acc)
    if op == OP_CONST0:
        return _ZERO
    if op == OP_CONST1:
        return _ONE
    raise ValueError(f"cannot evaluate opcode {op}")


class Status(enum.Enum):
    TESTABLE = "testable"
    UNTESTABLE = "untestable"
    ABORTED = "aborted"


@dataclass
class PodemResult:
    """Outcome of a PODEM run for one fault."""

    status: Status
    #: PI gid -> 0/1 test cube (only assigned PIs; others are don't-care).
    test: Optional[Dict[int, int]] = None
    backtracks: int = 0

    @property
    def testable(self) -> bool:
        return self.status is Status.TESTABLE


class Podem:
    """PODEM engine bound to one circuit.

    Reuse one instance for a whole fault list: the flat view of the
    circuit is built once, on the first :meth:`generate`, and per-fault
    state is reset by every call.  The circuit must not change while
    the instance is in use.
    """

    def __init__(self, circuit: Circuit, backtrack_limit: int = 20000):
        self.circuit = circuit
        self.backtrack_limit = backtrack_limit
        #: accumulated over every :meth:`generate` call on this instance;
        #: telemetry surfaces these as ``podem_calls`` /
        #: ``podem_backtracks`` / ``podem_aborts`` /
        #: ``podem_implication_evals`` (gates evaluated by implication).
        self.stats = {
            "calls": 0, "backtracks": 0, "aborts": 0,
            "implication_evals": 0,
        }
        # the flat view, built by _lower on the first generate
        self._gid: Optional[List[int]] = None
        # per-fault state (set by _inject)
        self._vals: List[int] = []
        self._trail: List[Tuple[int, int]] = []
        self._decisions: List[Tuple[int, int, bool, int]] = []
        self._stem = -1      # position whose output is stuck, or -1
        self._pin_dst = -1   # position whose input pin is stuck, or -1
        self._pin = -1       # that pin's index
        self._stuck = 0      # stuck value on the faulty rail (bits 2-3)
        self._site = -1      # position whose good value excites the fault
        self._excite = 0     # the good value that excites it
        self._cone: List[int] = []
        self._cone_outputs: List[int] = []

    # -- the flat view ----------------------------------------------------#

    def _lower(self) -> None:
        """Build the flat view: per topological position the opcode,
        fanin and fanout positions, depth, SCOAP controllability, and
        the fault-free all-X state every fault starts from."""
        gates, conns = self.circuit.gates, self.circuit.conns
        order = self.circuit.topological_order()
        pos = {gid: i for i, gid in enumerate(order)}
        self._gid = order
        self._pos = pos
        self._op = [OPCODE[gates[g].gtype] for g in order]
        self._fanin = [
            tuple(pos[conns[c].src] for c in gates[g].fanin) for g in order
        ]
        self._fanout = [
            tuple(pos[conns[c].dst] for c in gates[g].fanout) for g in order
        ]
        self._is_output = [
            gates[g].gtype is GateType.OUTPUT for g in order
        ]
        # gates-dict order, which breaks D-frontier depth ties
        rank = {gid: i for i, gid in enumerate(gates)}
        self._rank = [rank[g] for g in order]
        # static order: prefer objectives closer to outputs
        depth: List[int] = []
        for p in range(len(order)):
            depth.append(1 + max((depth[q] for q in self._fanin[p]),
                                 default=0))
        self._depth = depth
        # the value a propagation objective asks of a frontier gate's
        # X inputs: noncontrolling where there is one, else 1
        self._want = [
            noncontrolling_value(gates[g].gtype)
            if has_controlling_value(gates[g].gtype)
            else 1
            for g in order
        ]
        self._pi_pos = [pos[g] for g in self.circuit.inputs]
        # SCOAP controllability steers backtrace toward easy inputs
        from .scoap import compute_scoap

        scoap = compute_scoap(self.circuit)
        self._cc = (
            [scoap.cc0[g] for g in order], [scoap.cc1[g] for g in order]
        )
        base: List[int] = []
        for op, fanin in zip(self._op, self._fanin):
            if op == OP_INPUT:
                base.append(_XX)
            else:
                base.append(_eval_word(op, [base[q] for q in fanin]))
        self._base = base
        self._queued = bytearray(len(order))

    # -- implication ------------------------------------------------------#

    def _inject(self, fault: Fault) -> None:
        """Reset to the all-X state and propagate ``fault`` from its
        site through its fanout cone."""
        if self._gid is None:
            self._lower()
        self._stuck = _RAIL[fault.value] << 2
        self._excite = 1 - fault.value
        self._vals = list(self._base)
        self._decisions = []
        if fault.kind == CONN:
            conn = self.circuit.conns[fault.site]
            self._stem = -1
            self._pin_dst = anchor = self._pos[conn.dst]
            self._pin = self.circuit.gates[conn.dst].fanin.index(fault.site)
            self._site = self._pos[conn.src]
        else:
            self._stem = anchor = self._site = self._pos[fault.site]
            self._pin_dst = self._pin = -1
        cone = {anchor}
        stack = [anchor]
        fanout = self._fanout
        while stack:
            for q in fanout[stack.pop()]:
                if q not in cone:
                    cone.add(q)
                    stack.append(q)
        self._cone = sorted(cone, key=self._rank.__getitem__)
        self._cone_outputs = [p for p in cone if self._is_output[p]]
        self._trail = []
        if self._stem >= 0:
            self._write(anchor, self._vals[anchor] & 3 | self._stuck)
        else:
            self._queued[anchor] = 1
            self._propagate([anchor])
        self._trail.clear()  # the injected state is the search's root

    def _assign(self, pi: int, value: int) -> None:
        """Set the PI at position ``pi`` and imply its fanout cone."""
        word = _ONE if value else _ZERO
        if pi == self._stem:
            word = word & 3 | self._stuck
        self._write(pi, word)

    def _undo(self, mark: int) -> None:
        """Pop the trail back to ``mark``, restoring every value."""
        trail, vals = self._trail, self._vals
        for p, old in reversed(trail[mark:]):
            vals[p] = old
        del trail[mark:]

    def _write(self, p: int, word: int) -> None:
        """Overwrite a source position and imply its fanout."""
        old = self._vals[p]
        if word == old:
            return
        self._trail.append((p, old))
        self._vals[p] = word
        heap = []
        queued = self._queued
        for q in self._fanout[p]:
            if not queued[q]:
                queued[q] = 1
                heap.append(q)
        heapq.heapify(heap)
        self._propagate(heap)

    def _propagate(self, heap: List[int]) -> None:
        """Re-evaluate queued gates in topological order; a gate whose
        value does not change queues nothing."""
        vals, trail, queued = self._vals, self._trail, self._queued
        ops, fanin, fanout = self._op, self._fanin, self._fanout
        stem, pin_dst = self._stem, self._pin_dst
        heappop, heappush = heapq.heappop, heapq.heappush
        evals = 0
        while heap:
            p = heappop(heap)
            queued[p] = 0
            evals += 1
            op = ops[p]
            if p == pin_dst:
                words = [vals[q] for q in fanin[p]]
                words[self._pin] = words[self._pin] & 3 | self._stuck
                word = _eval_word(op, words)
            elif OP_AND <= op <= OP_NOR:
                # the simple gates inline, the rest through _eval_word
                every, some = 15, 0
                for q in fanin[p]:
                    w = vals[q]
                    every &= w
                    some |= w
                if op == OP_AND:
                    word = every & _CAN1 | some & _CAN0
                elif op == OP_OR:
                    word = some & _CAN1 | every & _CAN0
                elif op == OP_NAND:
                    word = (every & _CAN1) << 1 | (some & _CAN0) >> 1
                else:
                    word = (some & _CAN1) << 1 | (every & _CAN0) >> 1
            elif op == OP_NOT:
                w = vals[fanin[p][0]]
                word = (w & _CAN1) << 1 | (w & _CAN0) >> 1
            else:
                word = _eval_word(op, [vals[q] for q in fanin[p]])
            if p == stem:
                word = word & 3 | self._stuck
            old = vals[p]
            if word == old:
                continue
            trail.append((p, old))
            vals[p] = word
            for q in fanout[p]:
                if not queued[q]:
                    queued[q] = 1
                    heappush(heap, q)
        self.stats["implication_evals"] += evals

    # -- frontier and checks ----------------------------------------------#

    def _d_frontier(self) -> List[int]:
        """Cone gates with a fault effect on some input and X on the
        output, in gates-dict order."""
        vals, fanin = self._vals, self._fanin
        frontier = []
        for p in self._cone:
            v = vals[p]
            if v & 3 != 3 and v < 12:
                continue  # both rails known
            words = [vals[q] for q in fanin[p]]
            if p == self._pin_dst:
                words[self._pin] = words[self._pin] & 3 | self._stuck
            if _D in words or _DBAR in words:
                frontier.append(p)
        return frontier

    def _x_path_exists(self, frontier: List[int]) -> bool:
        """Is there a path from some frontier gate to a PO along gates
        whose output is still undetermined (X in either component)?"""
        vals, fanout, is_output = self._vals, self._fanout, self._is_output
        seen = set()
        stack = list(frontier)
        while stack:
            p = stack.pop()
            if p in seen:
                continue
            seen.add(p)
            if is_output[p]:
                return True
            for q in fanout[p]:
                v = vals[q]
                if v != _ONE and v != _ZERO:
                    stack.append(q)
        return False

    def _check(self) -> Tuple[Optional[bool], Optional[List[int]]]:
        """(outcome, D-frontier): outcome True = detected, False =
        provably impossible here, None = open.  The frontier is
        computed only once the fault is excited, and handed on to
        :meth:`_objective`."""
        vals = self._vals
        for p in self._cone_outputs:
            if vals[p] == _D or vals[p] == _DBAR:
                return True, None
        good = vals[self._site] & 3
        if good == 3:
            return None, None
        if good != _RAIL[self._excite]:
            return False, None  # fault can never be excited here
        frontier = self._d_frontier()
        if not frontier or not self._x_path_exists(frontier):
            return False, None
        return None, frontier

    # -- objective and backtrace ----------------------------------------#

    def _objective(
        self, frontier: Optional[List[int]]
    ) -> Optional[Tuple[int, int]]:
        """(position, desired good value) or None when stuck."""
        if frontier is None:
            # activate the fault
            return (self._site, self._excite)
        # propagate through the frontier gate closest to an output
        # (max keeps the first of equal depths, in gates-dict order)
        gate = max(frontier, key=self._depth.__getitem__)
        vals = self._vals
        for q in self._fanin[gate]:
            if vals[q] & 3 == 3:
                return (q, self._want[gate])
        return None

    def _backtrace(
        self, objective: Tuple[int, int]
    ) -> Optional[Tuple[int, int]]:
        """Walk an objective back to an unassigned PI.

        Classic inversion-parity walk: request value v on a gate; on
        AND/OR/BUF ask v of an X input, on NAND/NOR/NOT ask 1-v.
        """
        p, value = objective
        vals, ops, fanin = self._vals, self._op, self._fanin
        guard = 0
        while True:
            guard += 1
            if guard > len(ops) + 2:
                return None  # cycle-proof; cannot happen in a DAG
            op = ops[p]
            if op == OP_INPUT:
                return (p, value)
            if op == OP_CONST0 or op == OP_CONST1:
                return None
            if op == OP_NOT or op == OP_NAND or op == OP_NOR:
                value = 1 - value
            x_pins = [q for q in fanin[p] if vals[q] & 3 == 3]
            if not x_pins:
                return None
            # easiest-first: pick the X input with the lowest SCOAP
            # controllability toward the requested value
            p = min(x_pins, key=self._cc[value].__getitem__)

    # -- the search ------------------------------------------------------#

    def generate(self, fault: Fault) -> PodemResult:
        """Run PODEM for one fault."""
        result = self._generate(fault)
        self.stats["calls"] += 1
        self.stats["backtracks"] += result.backtracks
        if result.status is Status.ABORTED:
            self.stats["aborts"] += 1
        return result

    def _decide(self, pi: int, value: int, flipped: bool) -> None:
        self._decisions.append((pi, value, flipped, len(self._trail)))
        self._assign(pi, value)

    def _generate(self, fault: Fault) -> PodemResult:
        self._inject(fault)
        decisions = self._decisions  # (pi, value, flipped, trail mark)
        backtracks = 0

        while True:
            outcome, frontier = self._check()
            if outcome is True:
                test = {self._gid[pi]: v for pi, v, _, _ in decisions}
                return PodemResult(Status.TESTABLE, test, backtracks)
            if outcome is None:
                objective = self._objective(frontier)
                target = (
                    self._backtrace(objective)
                    if objective is not None
                    else None
                )
                if target is None:
                    # Completeness fallback: the heuristic objective can
                    # fail while a test still exists deeper in the PI
                    # space (e.g. the D-frontier is X only in the faulty
                    # component).  Decide any unassigned PI instead of
                    # declaring a dead end.
                    assigned = {d[0] for d in decisions}
                    target = next(
                        (
                            (pi, 0)
                            for pi in self._pi_pos
                            if pi not in assigned
                        ),
                        None,
                    )
                if target is not None:
                    self._decide(target[0], target[1], False)
                    continue
                # every PI assigned and still undetected: dead end
            # outcome is False (or dead end): backtrack
            while decisions:
                pi, value, flipped, mark = decisions.pop()
                self._undo(mark)
                if not flipped:
                    backtracks += 1
                    if backtracks > self.backtrack_limit:
                        return PodemResult(Status.ABORTED, None, backtracks)
                    self._decide(pi, 1 - value, True)
                    break
            else:
                return PodemResult(Status.UNTESTABLE, None, backtracks)


def generate_test(
    circuit: Circuit, fault: Fault, backtrack_limit: int = 20000
) -> PodemResult:
    """One-shot PODEM call."""
    return Podem(circuit, backtrack_limit).generate(fault)
