"""The offline workloads: fixed operation lists built from a seed.

Each workload's :func:`setup` builds its inputs (the part ``setup_s``
charges) and returns :class:`Op` objects.  ``Op.run`` is the timed
operation -- one public ``repro`` entry point, called through its
module attribute so a traced pass sees the patched layer -- and
``Op.record`` turns the result into the JSON the independent checks
read, outside the timed region.

Why these rows (the full reasoning is in ``NOTES.md``):

* ``kms-csa`` -- carry-skip rows where the Fig. 3 loop iterates (STA,
  path enumeration, viability SAT, transforms, arena) and the cleanup's
  PODEM hits its budget and escalates to SAT.  csa8.2 (about 23 s) and
  csa8.4 (about 8 s) do not fit a cold pass of a run; csa3.1, csa4.1
  and csa6.2 iterate 26, 75 and 40 times in 0.3-2.7 s instead.
* ``kms-mcnc`` -- Table I MCNC stand-ins after ``optimized_mcnc``:
  zero loop iterations, time in the cleanup proof engine.  duke2 (16 s)
  and misex2 (5 s, 25 inputs) do not fit a pass; clip spends 1.4 s in
  synthesis for 0.15 s of KMS.
* ``atpg`` -- ``repro atpg <blif> --tests`` on fuzz-planted MCNC
  stand-ins with at most 10 inputs, so PODEM's 20,000-backtrack test
  generation stays bounded on the planted (proven-redundant) faults.
  Each base gets two seeded variants with one plant each.  Bases whose
  test-generation time moved with where a plant landed by more than a
  bound allows were tried and left out: rca4, cla4, csa4.2, csa4.4
  (20-90% from seed to seed) and z4ml (30%); the five kept move 4-17%.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import random
import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, List

CSA_ROWS = ((2, 2), (4, 4), (4, 2), (3, 1), (4, 1), (6, 2))
MCNC_ROWS = ("5xp1", "misex1", "rd73", "sao2", "z4ml", "f51m")
MCNC_LATE_ARRIVAL = 6.0
ATPG_BASES = ("misex1", "clip", "sao2", "5xp1", "rd73")
ATPG_VARIANTS = 2
ATPG_PLANTS = 1

#: Modules the operations import lazily on first use (about 70 ms).
#: Importing them during set-up keeps that cost in ``setup_s`` instead
#: of on whichever operation the seed happens to put first.
PRELOAD = (
    "repro.cli",
    "repro.core.kms",
    "repro.atpg.proofengine",
    "repro.atpg.redundancy",
    "repro.atpg.satatpg",
    "repro.bench.table1",
    "repro.engine",
    "repro.fuzz.plant",
    "repro.net",
    "repro.synth.optimize",
    "repro.timing.hier",
    "repro.timing.incremental",
)


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    record: Callable[[Any], Dict[str, Any]]


def setup(workload: str, seed: int, workdir: str) -> List[Op]:
    """Build the workload's inputs and its operation list."""
    for name in PRELOAD:
        importlib.import_module(name)
    if workload == "kms-csa":
        ops = _csa_ops()
    elif workload == "kms-mcnc":
        ops = _mcnc_ops()
    elif workload == "atpg":
        ops = _atpg_ops(seed, workdir)
    else:
        raise ValueError(f"unknown offline workload {workload!r}")
    # the rows are fixed; the seed decides the order they run in
    random.Random(seed).shuffle(ops)
    return ops


def _kms_op(name: str, circuit, use_arrival_times: bool) -> Op:
    from repro.engine.serialize import circuit_to_dict
    from repro.timing import UnitDelayModel

    model = UnitDelayModel(use_arrival_times=use_arrival_times)
    source = circuit_to_dict(circuit)

    def run():
        return sys.modules["repro.core.kms"].kms(
            circuit, mode="static", model=model
        )

    def record(result) -> Dict[str, Any]:
        return {
            "kind": "kms",
            "input": source,
            "output": circuit_to_dict(result.circuit),
            "use_arrival_times": use_arrival_times,
        }

    return Op(name, run, record)


def _csa_ops() -> List[Op]:
    from repro.circuits import carry_skip_adder

    return [
        _kms_op(f"csa{n}.{b}", carry_skip_adder(n, b), False)
        for n, b in CSA_ROWS
    ]


def _mcnc_ops() -> List[Op]:
    from repro.bench.table1 import optimized_mcnc

    return [
        _kms_op(name, optimized_mcnc(name, MCNC_LATE_ARRIVAL), True)
        for name in MCNC_ROWS
    ]


def _atpg_ops(seed: int, workdir: str) -> List[Op]:
    from repro.circuits import named_circuit
    from repro.engine.serialize import circuit_to_dict
    from repro.fuzz.plant import plant_redundancies
    from repro.io import parse_blif, write_blif

    rng = random.Random(seed)
    ops = []
    for name in ATPG_BASES:
        # one BLIF round trip first: the planted circuit then uses only
        # gate types BLIF re-parses one-to-one, so the checker can map
        # the planted fault sites onto the circuit the CLI reads
        base = parse_blif(write_blif(named_circuit(name)))
        for variant in range(ATPG_VARIANTS):
            planted = plant_redundancies(
                base, plants=ATPG_PLANTS, seed=rng.randrange(1 << 30)
            )
            text = write_blif(planted.circuit)
            row = f"{name}#{variant}"
            path = os.path.join(workdir, f"atpg-{row}.blif")
            with open(path, "w") as handle:
                handle.write(text)
            ops.append(_atpg_op(row, path, text, planted, circuit_to_dict))
    return ops


def _atpg_op(name, path, text, planted, circuit_to_dict) -> Op:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = sys.modules["repro.cli"].main(["atpg", path, "--tests"])
        return code, out.getvalue()

    def record(result) -> Dict[str, Any]:
        code, stdout = result
        return {
            "kind": "atpg",
            "exit_code": code,
            "stdout": stdout,
            "blif": text,
            "planted_circuit": circuit_to_dict(planted.circuit),
            "planted": planted.planted_payload(),
        }

    return Op(name, run, record)
