"""Failed-assumption cores: every ``False`` answer names a subset of its
assumptions that is UNSAT with the formula, checked by enumeration."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sat import CNF, Solver

from .test_solver import brute_force_sat, random_cnf


def _sat_with_units(cnf: CNF, literals) -> bool:
    """Brute-force satisfiability of the formula plus unit clauses."""
    extended = cnf.copy()
    for lit in literals:
        extended.add_clause([lit])
    return brute_force_sat(extended)


def _check_answer(solver: Solver, cnf: CNF, assumptions) -> None:
    answer = solver.solve(assumptions)
    assert answer == _sat_with_units(cnf, assumptions)
    if answer:
        assert cnf.evaluate(solver.model()) is True
        return
    core = solver.core()
    assert set(core) <= set(assumptions)
    assert not _sat_with_units(cnf, core)


@st.composite
def cnf_and_queries(draw):
    cnf = draw(random_cnf())
    literal = st.builds(
        lambda var, sign: var if sign else -var,
        st.integers(1, cnf.num_vars),
        st.booleans(),
    )
    queries = draw(st.lists(st.lists(literal, max_size=6), min_size=1,
                            max_size=4))
    return cnf, queries


@given(cnf_and_queries())
@settings(max_examples=300, deadline=None)
def test_core_is_an_unsat_subset_of_the_assumptions(case):
    """Several queries on one solver, so later calls run on top of the
    learned clauses and root units of earlier ones."""
    cnf, queries = case
    solver = Solver(cnf.copy())
    for assumptions in queries:
        _check_answer(solver, cnf, assumptions)


def _chain_cnf() -> CNF:
    # 1 -> 2, 2 -> 3, and the unit -4
    cnf = CNF()
    cnf.add_clause([-1, 2])
    cnf.add_clause([-2, 3])
    cnf.add_clause([-4])
    return cnf


def test_assumption_false_at_root_is_its_own_core():
    solver = Solver(_chain_cnf())
    assert solver.solve([1, 4]) is False
    assert solver.core() == [4]


def test_assumption_false_by_earlier_assumption_names_both():
    solver = Solver(_chain_cnf())
    assert solver.solve([5, 1, -3]) is False
    assert sorted(solver.core()) == [-3, 1]


def test_both_polarities_assumed():
    solver = Solver(_chain_cnf())
    assert solver.solve([2, 5, -2]) is False
    assert sorted(solver.core()) == [-2, 2]


def test_duplicated_assumption():
    solver = Solver(_chain_cnf())
    assert solver.solve([1, 1, 5, -3]) is False
    assert sorted(solver.core()) == [-3, 1]
    assert solver.solve([1, 1]) is True


def test_conflict_at_an_assumption_level():
    # 1 & 2 -> 3 and 1 & 2 -> -3: the conflict needs both assumptions
    cnf = CNF()
    cnf.add_clause([-1, -2, 3])
    cnf.add_clause([-1, -2, -3])
    solver = Solver(cnf)
    assert solver.solve([6, 1, 5, 2]) is False
    assert sorted(solver.core()) == [1, 2]


def test_formula_unsat_without_assumptions_has_empty_core():
    cnf = CNF()
    cnf.add_clause([1, 2])
    cnf.add_clause([1, -2])
    cnf.add_clause([-1, 2])
    cnf.add_clause([-1, -2])
    solver = Solver(cnf)
    assert solver.solve([]) is False
    assert solver.core() == []
    # once the solver has refuted the formula itself, no assumption is
    # needed for the refutation
    assert solver.solve([1, 2]) is False
    assert solver.core() == []


def test_later_solves_still_answer_correctly():
    cnf = _chain_cnf()
    solver = Solver(cnf.copy())
    assert solver.solve([1, -3]) is False
    assert sorted(solver.core()) == [-3, 1]
    assert solver.solve([1]) is True
    assert solver.model()[3] is True
    assert solver.solve([-3]) is True
    assert solver.model()[1] is False
    assert solver.solve([4]) is False
    assert solver.core() == [4]


def test_core_needs_an_unsat_answer():
    solver = Solver(_chain_cnf())
    assert solver.solve([1]) is True
    try:
        solver.core()
    except RuntimeError:
        return
    raise AssertionError("core() after a SAT answer must raise")
