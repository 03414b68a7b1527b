"""Unit and property tests for the CDCL solver."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sat import LIMIT, SAT, UNSAT, Cnf, Limits, solve_cdcl, solve_with


def make_cnf(num_vars, clauses):
    cnf = Cnf()
    for _ in range(num_vars):
        cnf.new_var()
    for clause in clauses:
        cnf.add_clause(clause)
    return cnf


def pigeonhole(holes):
    pigeons = holes + 1
    cnf = Cnf()
    var = {}
    for p in range(pigeons):
        for h in range(holes):
            var[p, h] = cnf.new_var()
    for p in range(pigeons):
        cnf.add_clause([var[p, h] for h in range(holes)])
    for h in range(holes):
        for p1, p2 in itertools.combinations(range(pigeons), 2):
            cnf.add_clause([-var[p1, h], -var[p2, h]])
    return cnf


class TestBasics:
    def test_empty_formula(self):
        assert solve_cdcl(Cnf()).status == SAT

    def test_unit_conflict(self):
        assert solve_cdcl(make_cnf(1, [[1], [-1]])).status == UNSAT

    def test_empty_clause(self):
        assert solve_cdcl(make_cnf(1, [[]])).status == UNSAT

    def test_model_is_valid(self):
        cnf = make_cnf(4, [[1, 2], [-1, 3], [-3, -2], [2, 4], [-4, 1]])
        result = solve_cdcl(cnf)
        assert result.status == SAT
        assert cnf.evaluate(result.assignment)

    def test_implication_chain_no_decisions(self):
        clauses = [[1]] + [[-i, i + 1] for i in range(1, 12)]
        result = solve_cdcl(make_cnf(12, clauses))
        assert result.status == SAT
        assert result.decisions == 0


class TestLearning:
    def test_pigeonhole_unsat_fast(self):
        # PHP(7, 6) chokes plain DPLL but is easy with learning.
        result = solve_cdcl(pigeonhole(6))
        assert result.status == UNSAT

    def test_limits_respected(self):
        result = solve_cdcl(pigeonhole(10), Limits(max_backtracks=20))
        assert result.status == LIMIT

    def test_time_limit(self):
        result = solve_cdcl(pigeonhole(12), Limits(max_seconds=0.05))
        assert result.status == LIMIT


class TestOneShot:
    def test_fresh_solver_reports_no_reuse(self):
        # A one-shot solve reuses nothing, so the counters that measure
        # reuse of a persistent solver stay out of its metrics.
        result = solve_cdcl(pigeonhole(5))
        assert result.status == UNSAT
        assert result.backtracks > 0
        assert "incremental_solves" not in result.metrics
        assert "learned_kept" not in result.metrics


class TestSolveWith:
    def test_engines_agree(self):
        cnf = make_cnf(3, [[1, 2], [-1, 3], [-2, -3]])
        assert solve_with(cnf, engine="dpll").status == SAT
        assert solve_with(cnf, engine="cdcl").status == SAT
        assert solve_with(cnf, engine="hybrid").status == SAT

    def test_hybrid_falls_back_to_cdcl(self):
        # PHP(6): DPLL exceeds the hybrid budget, CDCL refutes it.
        result = solve_with(pigeonhole(6), engine="hybrid")
        assert result.status == UNSAT

    def test_unknown_engine(self):
        import pytest

        with pytest.raises(ValueError):
            solve_with(Cnf(), engine="quantum")


def brute_force_sat(num_vars, clauses):
    for bits in itertools.product([False, True], repeat=num_vars):
        assignment = {v: bits[v - 1] for v in range(1, num_vars + 1)}
        if all(
            any(assignment[abs(l)] == (l > 0) for l in clause)
            for clause in clauses
        ):
            return True
    return False


@st.composite
def random_formula(draw):
    num_vars = draw(st.integers(min_value=1, max_value=7))
    num_clauses = draw(st.integers(min_value=1, max_value=24))
    clauses = []
    for _ in range(num_clauses):
        size = draw(st.integers(min_value=1, max_value=3))
        clauses.append(
            [
                draw(st.integers(min_value=1, max_value=num_vars))
                * (1 if draw(st.booleans()) else -1)
                for _ in range(size)
            ]
        )
    return num_vars, clauses


@settings(max_examples=250, deadline=None)
@given(random_formula())
def test_cdcl_matches_brute_force(formula):
    num_vars, clauses = formula
    cnf = make_cnf(num_vars, clauses)
    result = solve_cdcl(cnf)
    expected = brute_force_sat(num_vars, cnf.clauses)
    assert result.status == (SAT if expected else UNSAT)
    if result.status == SAT:
        assert cnf.evaluate(result.assignment)


@settings(max_examples=120, deadline=None)
@given(random_formula())
def test_engines_agree_on_random_formulas(formula):
    num_vars, clauses = formula
    cnf = make_cnf(num_vars, clauses)
    a = solve_cdcl(cnf).status
    cnf2 = make_cnf(num_vars, clauses)
    b = solve_with(cnf2, engine="dpll").status
    assert a == b
