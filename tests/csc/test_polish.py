"""Unit tests for post-SAT assignment polishing."""

import pytest

from repro import obs
from repro.csc import (
    Assignment,
    Value,
    direct_synthesis,
    expand,
    modular_synthesis,
)
from repro.csc.polish import polish_assignment
from repro.runtime.budget import Budget, BudgetExhaustedError
from repro.stategraph import build_state_graph, csc_conflicts
from repro.stg import parse_g
from repro.runtime.options import SynthesisOptions

from tests.example_stgs import CSC_CONFLICT, HANDSHAKE


def _excited_count(assignment):
    return sum(
        1
        for row in assignment.values
        for value in row
        if value.excited
    )


class TestPolish:
    def test_empty_assignment_unchanged(self):
        graph = build_state_graph(parse_g(HANDSHAKE))
        empty = Assignment.empty(graph.num_states)
        assert polish_assignment(graph, empty) is empty

    def test_sprawling_region_shrinks(self):
        graph = build_state_graph(parse_g(CSC_CONFLICT))
        # Valid but wasteful: three excited states where one suffices.
        sprawling = Assignment(
            ("n0",),
            [
                (Value.ZERO,), (Value.UP,), (Value.UP,),
                (Value.UP,), (Value.ONE,), (Value.DOWN,),
            ],
        )
        polished = polish_assignment(graph, sprawling)
        assert _excited_count(polished) < _excited_count(sprawling)
        # Still a correct solution.
        assert csc_conflicts(expand(graph, polished)) == []

    def test_minimal_region_stable(self):
        graph = build_state_graph(parse_g(CSC_CONFLICT))
        minimal = Assignment(
            ("n0",),
            [
                (Value.ZERO,), (Value.ZERO,), (Value.ZERO,),
                (Value.UP,), (Value.ONE,), (Value.DOWN,),
            ],
        )
        polished = polish_assignment(graph, minimal)
        # Exactly one rise and one fall must remain excited.
        assert _excited_count(polished) == 2

    def test_invalid_input_returned_unchanged(self):
        graph = build_state_graph(parse_g(CSC_CONFLICT))
        # All-zero does not resolve the conflict: not accepted, unchanged.
        broken = Assignment(
            ("n0",), [(Value.ZERO,)] * graph.num_states
        )
        polished = polish_assignment(graph, broken)
        assert polished.values == broken.values

    def test_synthesis_results_are_polished(self):
        graph = build_state_graph(parse_g(CSC_CONFLICT))
        result = modular_synthesis(
            graph, options=SynthesisOptions(minimize=False)
        )
        # The rise and fall of the single state signal each occupy one
        # state after polishing.
        assert _excited_count(result.assignment) == 2


def _sprawling():
    graph = build_state_graph(parse_g(CSC_CONFLICT))
    return graph, Assignment(
        ("n0",),
        [
            (Value.ZERO,), (Value.UP,), (Value.UP,),
            (Value.UP,), (Value.ONE,), (Value.DOWN,),
        ],
    )


class TickingClock:
    """Fake clock that advances one second per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


class RecordingBudget(Budget):
    """Unlimited budget that remembers every checkpoint name."""

    def __init__(self):
        super().__init__()
        self.points = []

    def checkpoint(self, point=""):
        self.points.append(point)
        super().checkpoint(point)


class TestPolishBudget:
    def test_deadline_mid_loop_names_polish(self):
        graph, sprawling = _sprawling()
        # Construction reads the clock once; the deadline then passes
        # at the third checkpoint, inside the state loop.
        budget = Budget(max_seconds=2.5, clock=TickingClock())
        with pytest.raises(BudgetExhaustedError) as excinfo:
            polish_assignment(graph, sprawling, budget=budget)
        assert excinfo.value.point == "polish"
        assert excinfo.value.resource == "wall-clock"
        assert budget.checkpoints == 3
        assert budget.exhausted_at == "polish"

    def test_one_checkpoint_per_state_and_pass(self):
        graph, sprawling = _sprawling()
        budget = RecordingBudget()
        polish_assignment(graph, sprawling, budget=budget)
        # Two passes: one that changes something, one that confirms.
        assert budget.points == ["polish"] * (2 * graph.num_states)

    @pytest.mark.parametrize("synthesise", [modular_synthesis,
                                            direct_synthesis])
    def test_call_sites_pass_the_budget(self, synthesise):
        graph = build_state_graph(parse_g(CSC_CONFLICT))
        budget = RecordingBudget()
        synthesise(graph, options=SynthesisOptions(
            minimize=False, budget=budget,
        ))
        assert budget.points.count("polish") >= graph.num_states


class TestPolishCounters:
    def test_counters_are_in_the_glossary(self):
        for name in ("polish_accept_checks", "polish_flips_tried",
                     "polish_flips_accepted"):
            assert name in obs.COUNTER_GLOSSARY

    def test_flips_and_checks_counted(self):
        graph, sprawling = _sprawling()
        with obs.tracing() as tracer, obs.span("polish"):
            polished = polish_assignment(graph, sprawling)
        totals = tracer.counter_totals()
        assert totals["polish_accept_checks"] == 1
        assert totals["polish_flips_accepted"] == (
            _excited_count(sprawling) - _excited_count(polished)
        )
        assert totals["polish_flips_tried"] >= \
            totals["polish_flips_accepted"] > 0

    def test_rejected_input_costs_one_check(self):
        graph = build_state_graph(parse_g(CSC_CONFLICT))
        broken = Assignment(("n0",), [(Value.ZERO,)] * graph.num_states)
        with obs.tracing() as tracer, obs.span("polish"):
            polish_assignment(graph, broken)
        totals = tracer.counter_totals()
        assert totals["polish_accept_checks"] == 1
        assert "polish_flips_tried" not in totals
