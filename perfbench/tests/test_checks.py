"""The independent checks reject wrong outputs."""

import pytest

import checks
from repro.circuits import carry_skip_adder
from repro.core.kms import kms
from repro.engine.serialize import circuit_to_dict
from repro.network import GateType
from repro.timing import UnitDelayModel


@pytest.fixture(scope="module")
def csa42():
    source = carry_skip_adder(4, 2)
    result = kms(source, model=UnitDelayModel(use_arrival_times=False))
    return source, result.circuit


def _record(source, output):
    return {
        "kind": "kms",
        "input": circuit_to_dict(source),
        "output": circuit_to_dict(output),
        "use_arrival_times": False,
    }


def test_kms_result_passes(csa42):
    assert checks.check_kms(_record(*csa42)) == []


def test_rejects_one_flipped_gate_type(csa42):
    source, result = csa42
    broken = result.copy()
    flip = {GateType.AND: GateType.OR, GateType.OR: GateType.AND}
    gid = next(g for g, gate in broken.gates.items() if gate.gtype in flip)
    broken.gates[gid].gtype = flip[broken.gates[gid].gtype]
    problems = checks.check_kms(_record(source, broken))
    assert any("function changed" in p for p in problems)


def test_rejects_planted_redundancy(csa42):
    from repro.fuzz.plant import plant_redundancies

    source, result = csa42
    planted = plant_redundancies(result, plants=1, seed=3).circuit
    problems = checks.check_kms(_record(source, planted))
    assert not any("function changed" in p for p in problems)
    assert any("not irredundant" in p for p in problems)


def test_exhaustive_inputs_enumerate_every_vector():
    circuit = carry_skip_adder(2, 2)
    words, width = checks.exhaustive_inputs(circuit)
    assert width == 1 << len(circuit.inputs)
    vectors = {
        tuple((words[g] >> v) & 1 for g in circuit.inputs)
        for v in range(width)
    }
    assert len(vectors) == width


def test_atpg_report_check_catches_a_missing_fault(tmp_path):
    import workloads

    op = next(o for o in workloads.setup("atpg", 1, str(tmp_path))
              if o.name == "misex1#0")
    record = op.record(op.run())
    problems, tests = checks.check_atpg(record)
    assert problems == [] and tests >= 64
    lines = record["stdout"].splitlines()
    dropped = next(i for i, line in enumerate(lines) if line.startswith("  "))
    record["stdout"] = "\n".join(lines[:dropped] + lines[dropped + 1:])
    problems, _ = checks.check_atpg(record)
    assert any("ground truth" in p for p in problems)
