"""Unit tests for the SAT-CSC encoding."""

import pytest

from repro.csc import (
    Assignment,
    IntrinsicConflictError,
    build_csc_formula,
)
from repro.csc.values import edge_compatible
from repro.sat import solve
from repro.stg import parse_g
from repro.stategraph import build_state_graph, csc_conflicts, quotient
from repro.stategraph.graph import EPSILON

from tests.example_stgs import CSC_CONFLICT


def conflict_graph():
    return build_state_graph(parse_g(CSC_CONFLICT))


class TestBuild:
    def test_m_must_be_positive(self):
        with pytest.raises(ValueError):
            build_csc_formula(conflict_graph(), 0)

    def test_variables_allocated(self):
        graph = conflict_graph()
        formula = build_csc_formula(graph, 2)
        # 2 boolean vars per (state, signal) pair plus auxiliaries.
        assert formula.num_vars >= 2 * 2 * graph.num_states
        assert formula.num_clauses > 0

    def test_formula_stats(self):
        formula = build_csc_formula(conflict_graph(), 1)
        assert formula.num_vars == formula.cnf.num_vars
        assert formula.num_clauses == formula.cnf.num_clauses

    def test_conflicts_found_automatically(self):
        formula = build_csc_formula(conflict_graph(), 1)
        assert len(formula.conflict_pairs) == 1

    def test_intrinsic_conflict_rejected(self):
        graph = conflict_graph()
        q = quotient(graph, hidden_signals=["b"])
        with pytest.raises(IntrinsicConflictError):
            build_csc_formula(q, 1, outputs=["c"])

    def test_clause_count_scales_with_m(self):
        graph = conflict_graph()
        one = build_csc_formula(graph, 1)
        two = build_csc_formula(graph, 2)
        assert two.num_clauses > one.num_clauses
        assert two.num_vars > one.num_vars


class TestSolveAndDecode:
    def _solve(self, graph, m, outputs=None):
        formula = build_csc_formula(graph, m, outputs=outputs)
        result = solve(formula.cnf)
        assert result.status == "sat"
        return formula.decode(result.assignment)

    def test_solution_is_edge_compatible(self):
        graph = conflict_graph()
        rows = self._solve(graph, 1)
        for source, label, target in graph.edges:
            if label is EPSILON:
                continue
            assert edge_compatible(rows[source][0], rows[target][0])

    def test_solution_resolves_conflicts(self):
        graph = conflict_graph()
        rows = self._solve(graph, 1)
        assignment = Assignment(("n0",), rows)
        remaining = csc_conflicts(
            graph,
            extra_codes=assignment.cur_bits(),
            extra_implied=assignment.implied_bits(),
        )
        assert remaining == []

    def test_conflict_pair_stably_separated(self):
        graph = conflict_graph()
        rows = self._solve(graph, 1)
        ((i, j),) = csc_conflicts(graph)
        vi, vj = rows[i][0], rows[j][0]
        assert not vi.excited and not vj.excited
        assert vi.cur != vj.cur

    def test_decode_shape(self):
        graph = conflict_graph()
        rows = self._solve(graph, 2)
        assert len(rows) == graph.num_states
        assert all(len(row) == 2 for row in rows)


class TestIncrementalFormula:
    def _formula(self):
        from repro.csc.sat_csc import IncrementalCscFormula

        return IncrementalCscFormula(conflict_graph())

    def test_columns_grow_monotonically(self):
        formula = self._formula()
        formula.ensure_m(1)
        vars_one, clauses_one = formula.num_vars, formula.num_clauses
        formula.ensure_m(2)
        assert formula.num_vars > vars_one
        assert formula.num_clauses > clauses_one
        # Growing is idempotent: re-asking for a covered m adds nothing.
        vars_two, clauses_two = formula.num_vars, formula.num_clauses
        formula.ensure_m(1)
        assert (formula.num_vars, formula.num_clauses) \
            == (vars_two, clauses_two)

    def test_assumptions_select_attempt(self):
        formula = self._formula()
        formula.ensure_m(1)
        formula.ensure_m(2)
        banned = formula.assumptions(1, allow_serialisation=False)
        permissive = formula.assumptions(1, allow_serialisation=True)
        assert banned[-1] == formula.noserial
        assert permissive[-1] == -formula.noserial
        assert banned[:-1] == permissive[:-1]
        # The m=2 attempt assumes one more enable column.
        assert len(formula.assumptions(2, True)) \
            == len(permissive) + 1

    def test_solve_and_decode_resolve_conflicts(self):
        graph = conflict_graph()
        from repro.csc.sat_csc import IncrementalCscFormula

        formula = IncrementalCscFormula(graph)
        formula.ensure_m(1)
        # The banned variant is UNSAT at m=1 on this graph (the one-shot
        # build agrees; see test_matches_oneshot_satisfiability) and must
        # report which assumptions the refutation used.
        banned = formula.solve(1, allow_serialisation=False)
        assert banned.status == "unsat"
        assert banned.failed_assumptions is not None
        result = formula.solve(1, allow_serialisation=True)
        assert result.status == "sat"
        rows = formula.decode(result.assignment, 1)
        assert all(len(row) == 1 for row in rows)
        assignment = Assignment(("n0",), rows)
        assert csc_conflicts(
            graph,
            extra_codes=assignment.cur_bits(),
            extra_implied=assignment.implied_bits(),
        ) == []

    def test_matches_oneshot_satisfiability(self):
        # Same graph, same m, same variant: the monotone formula under
        # assumptions and the one-shot build must agree on status.
        graph = conflict_graph()
        from repro.csc.sat_csc import IncrementalCscFormula

        formula = IncrementalCscFormula(graph)
        for m in (1, 2):
            formula.ensure_m(m)
            for allow_serialisation in (False, True):
                oneshot = build_csc_formula(
                    graph, m, allow_serialisation=allow_serialisation
                )
                assert (
                    formula.solve(m, allow_serialisation).status
                    == solve(oneshot.cnf).status
                )
