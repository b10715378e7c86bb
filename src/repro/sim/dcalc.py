"""Roth's 5-valued D-calculus for test generation.

A composite value is a pair (good, faulty), each in {0, 1, X}:

    ZERO = (0, 0)    ONE = (1, 1)    XX = (X, X)
    D    = (1, 0)    DBAR = (0, 1)

A stuck-at fault is *detected* at a primary output when the output carries
D or D' -- the good and faulty machines disagree.  PODEM
(:mod:`repro.atpg.podem`) keeps the composite state of the circuit
incrementally; :func:`simulate5` is the from-scratch oracle its
implication is tested against.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence, Tuple

from ..network import Circuit, GateType
from .logic import X, eval_gate3

#: Composite values (good, faulty).
ZERO: Tuple = (0, 0)
ONE: Tuple = (1, 1)
XX: Tuple = (X, X)
D: Tuple = (1, 0)
DBAR: Tuple = (0, 1)


def composite(good, faulty) -> Tuple:
    """Build a composite value from good/faulty components."""
    return (good, faulty)


def is_known(value: Tuple) -> bool:
    """True if both components are binary."""
    return value[0] != X and value[1] != X

def is_d_or_dbar(value: Tuple) -> bool:
    """True if the value is D or D' (fault effect visible)."""
    return value in (D, DBAR)


def eval_gate5(gtype: GateType, inputs: Sequence[Tuple]) -> Tuple:
    """Evaluate a gate in the composite 5-valued algebra.

    Good and faulty components evaluate independently under 3-valued
    semantics -- the composite algebra is exactly the product algebra.
    """
    good = eval_gate3(gtype, [v[0] for v in inputs])
    faulty = eval_gate3(gtype, [v[1] for v in inputs])
    return (good, faulty)


def simulate5(
    circuit: Circuit,
    assignment: Mapping[int, Tuple],
    fault_conn: int = None,
    fault_gate: int = None,
    stuck_value: int = 0,
) -> Dict[int, Tuple]:
    """Composite simulation with an injected stuck-at fault.

    ``assignment`` maps PI gid -> composite value (unassigned PIs are XX).
    The fault site is either a connection (``fault_conn``: the fault
    applies only where that connection feeds its destination pin) or a
    gate output stem (``fault_gate``: all fanouts see the faulty value).

    Returns gate gid -> composite value.  Connection-level faulty values
    are applied on the fly while evaluating the destination gate.
    """
    values: Dict[int, Tuple] = {}
    for gid in circuit.topological_order():
        gate = circuit.gates[gid]
        if gate.gtype is GateType.INPUT:
            val = assignment.get(gid, XX)
        else:
            ins = []
            for cid in gate.fanin:
                v = values[circuit.conns[cid].src]
                if cid == fault_conn:
                    v = (v[0], stuck_value)
                ins.append(v)
            val = eval_gate5(gate.gtype, ins)
        if gid == fault_gate:
            val = (val[0], stuck_value)
        values[gid] = val
    return values
