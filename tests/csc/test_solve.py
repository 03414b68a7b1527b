"""Unit tests for the shared m-growing solve loop."""

import pytest

from repro.csc import Assignment, BacktrackLimitError, Value
from repro.csc.errors import SynthesisError
from repro.csc.solve import solve_state_signals
from repro.sat.solver import Limits
from repro.stategraph import build_state_graph, csc_conflicts
from repro.stg import parse_g

from tests.example_stgs import CSC_CONFLICT, HANDSHAKE


def conflict_graph():
    return build_state_graph(parse_g(CSC_CONFLICT))


class TestBasics:
    def test_no_conflicts_no_signals(self):
        graph = build_state_graph(parse_g(HANDSHAKE))
        outcome = solve_state_signals(graph)
        assert outcome.m == 0
        assert outcome.attempts == []
        assert all(row == () for row in outcome.rows)

    def test_single_conflict_one_signal(self):
        outcome = solve_state_signals(conflict_graph())
        assert outcome.m == 1
        assert outcome.attempts[-1].status == "sat"

    def test_rows_resolve_conflicts(self):
        graph = conflict_graph()
        outcome = solve_state_signals(graph)
        assignment = Assignment(("n0",), outcome.rows)
        assert csc_conflicts(
            graph,
            extra_codes=assignment.cur_bits(),
            extra_implied=assignment.implied_bits(),
        ) == []

    def test_engines_available(self):
        for engine in ("dpll", "cdcl", "hybrid"):
            outcome = solve_state_signals(conflict_graph(), engine=engine)
            assert outcome.m == 1


class TestPolicies:
    def test_on_limit_raise(self):
        # A whole-benchmark instance is guaranteed to backtrack at least
        # once under the chronological engine; a zero budget then aborts.
        from repro.bench import load_benchmark

        graph = build_state_graph(load_benchmark("mmu1"))
        with pytest.raises(BacktrackLimitError):
            solve_state_signals(
                graph,
                limits=Limits(max_backtracks=0),
                engine="dpll",
            )

    def test_on_limit_skip_never_aborts(self):
        # Under the skip policy a budget exhaustion becomes "try the next
        # m" and can only end in success or SynthesisError -- never in a
        # BacktrackLimitError abort.
        try:
            outcome = solve_state_signals(
                conflict_graph(),
                limits=Limits(max_backtracks=0),
                engine="dpll",
                on_limit="skip",
                max_signals=2,
            )
        except SynthesisError:
            pass
        except BacktrackLimitError:  # pragma: no cover - the regression
            pytest.fail("skip policy must not abort on limits")
        else:
            assert outcome.m >= 1

    def test_explicit_conflict_pairs(self):
        graph = conflict_graph()
        ((a, b),) = csc_conflicts(graph)
        outcome = solve_state_signals(graph, conflict_pairs=[(a, b)])
        assert outcome.m == 1

    def test_empty_conflict_pairs_is_noop(self):
        outcome = solve_state_signals(
            conflict_graph(), conflict_pairs=[]
        )
        assert outcome.m == 0


class TestIncrementalLoop:
    @pytest.fixture(autouse=True)
    def _clean_faults(self):
        from repro.runtime import faults

        faults.clear()
        yield
        faults.clear()

    def test_incremental_matches_oneshot_m(self):
        graph = conflict_graph()
        incremental = solve_state_signals(graph, sat_mode="incremental")
        oneshot = solve_state_signals(graph, sat_mode="oneshot")
        assert incremental.m == oneshot.m == 1
        assignment = Assignment(("n0",), incremental.rows)
        assert csc_conflicts(
            graph,
            extra_codes=assignment.cur_bits(),
            extra_implied=assignment.implied_bits(),
        ) == []

    def test_incremental_attempt_metrics(self):
        outcome = solve_state_signals(conflict_graph())
        final = outcome.attempts[-1]
        assert final.metrics["incremental_solves"] == 1

    def test_dpll_engine_stays_oneshot(self):
        outcome = solve_state_signals(
            conflict_graph(), engine="dpll", sat_mode="incremental"
        )
        assert outcome.m == 1
        assert outcome.attempts[-1].metrics["incremental_solves"] == 0

    def test_oneshot_retry_core_does_not_skip_permissive(self):
        # The banned variant of m=1 is UNSAT and the permissive one SAT.
        # An injected limit sends the banned attempt to a one-shot CDCL
        # retry, whose UNSAT carries an empty core for *its own* CNF;
        # that must not count as a refutation of the permissive variant.
        from repro.runtime import faults

        with faults.injected("solver-limit", times=1):
            outcome = solve_state_signals(
                conflict_graph(), engine="cdcl", on_limit="skip"
            )
        assert outcome.m == 1
        assert [(a.m, a.status) for a in outcome.attempts] == [
            (1, "unsat"), (1, "sat"),
        ]

    def test_limit_falls_back_to_oneshot(self):
        # One injected budget exhaustion on the incremental attempt:
        # the loop must retry that attempt one-shot and still succeed.
        from repro.runtime import faults

        with faults.injected("solver-limit", times=1):
            outcome = solve_state_signals(
                conflict_graph(), on_limit="skip"
            )
        assert outcome.m == 1
        graph = conflict_graph()
        assignment = Assignment(("n0",), outcome.rows)
        assert csc_conflicts(
            graph,
            extra_codes=assignment.cur_bits(),
            extra_implied=assignment.implied_bits(),
        ) == []

    def test_persistent_limit_raises_under_raise_policy(self):
        from repro.runtime import faults

        with faults.injected("solver-limit", times=None):
            with pytest.raises(BacktrackLimitError):
                solve_state_signals(conflict_graph())


class TestExtraPairFiltering:
    def test_unseparated_pair_kept(self):
        graph = conflict_graph()
        ((a, b),) = csc_conflicts(graph)
        outcome = solve_state_signals(
            graph, extra_conflict_pairs=((a, b),)
        )
        assert outcome.m == 1

    def test_stably_separated_pair_dropped(self):
        graph = conflict_graph()
        ((a, b),) = csc_conflicts(graph)
        cur = [(0,)] * graph.num_states
        cur[b] = (1,)
        excited = [(0,)] * graph.num_states
        implied = cur
        outcome = solve_state_signals(
            graph,
            extra_codes=cur,
            extra_implied=implied,
            extra_excited=excited,
            extra_conflict_pairs=((a, b),),
        )
        assert outcome.m == 0

    def test_excitedly_separated_pair_kept(self):
        graph = conflict_graph()
        ((a, b),) = csc_conflicts(graph)
        # b's bit differs but is excited there: splits would collide, so
        # the pair must stay in force.
        cur = [(0,)] * graph.num_states
        cur[b] = (1,)
        excited = [(0,)] * graph.num_states
        excited[b] = (1,)
        implied = [(0,)] * graph.num_states
        outcome = solve_state_signals(
            graph,
            extra_codes=cur,
            extra_implied=implied,
            extra_excited=excited,
            extra_conflict_pairs=((a, b),),
        )
        assert outcome.m >= 1
