"""Differential suite: delta acceptance against the whole-graph check.

``polish_assignment`` judges each trial flip on a per-state index of the
expanded graph instead of re-expanding it.  Two contracts pin that down:

* every trial verdict equals :func:`repro.csc.polish._accepts` on the
  full trial assignment, and after every accepted flip the index equals
  one rebuilt from scratch -- for the flips polish tries and for a
  seeded random walk of arbitrary value changes, which is what drives
  the CSC and persistence rejections (polish itself rarely meets them);
* the polished assignment equals the one produced by the reference loop
  below, which re-expands and re-checks the whole graph per trial (the
  pass as it was before delta acceptance).
"""

import random

import pytest

from repro.bench import load_benchmark
from repro.csc import Assignment, Value, direct_synthesis, modular_synthesis
from repro.csc import polish
from repro.csc.errors import SynthesisError
from repro.csc.insertion import expand
from repro.csc.values import edge_compatible
from repro.runtime.options import SynthesisOptions
from repro.stategraph import build_state_graph
from repro.stategraph.csc import csc_conflicts, persistence_violations
from repro.stategraph.graph import EPSILON, StateGraph

from tests.example_stgs import generated_corpus

SMALL_TABLE1 = (
    "vbe-ex1", "vbe-ex2", "nousc-ser", "sendr-done", "nouse", "wrdata",
    "fifo", "sbuf-read-ctl", "atod", "sbuf-send-pkt2",
)


def _reference_polish(graph, assignment):
    """Full re-check per trial flip: the pre-delta polish loop."""
    if assignment.num_signals == 0:
        return assignment
    if not polish._accepts(graph, assignment):
        return assignment
    rows = [list(row) for row in assignment.values]
    names = assignment.names
    for _pass in range(polish._MAX_PASSES):
        changed = False
        for state in graph.states():
            for k in range(len(names)):
                value = rows[state][k]
                for candidate in polish._CANDIDATES.get(value, ()):
                    if not _locally_compatible(graph, rows, state, k,
                                               candidate):
                        continue
                    rows[state][k] = candidate
                    trial = Assignment(names, [tuple(row) for row in rows])
                    if polish._accepts(graph, trial):
                        changed = True
                        break
                    rows[state][k] = value
        if not changed:
            break
    return Assignment(names, [tuple(row) for row in rows])


def _locally_compatible(graph, rows, state, k, candidate):
    for label, target in graph.out_edges(state):
        if label is not EPSILON and \
                not edge_compatible(candidate, rows[target][k]):
            return False
    for label, source in graph.in_edges(state):
        if label is not EPSILON and \
                not edge_compatible(rows[source][k], candidate):
            return False
    return True


def _reject_cause(graph, trial):
    """Which whole-graph check refuses ``trial`` (``None``: accepted)."""
    if trial.check_edge_compatibility(graph):
        return "edge"
    if trial.check_input_realizability(graph):
        return "input"
    try:
        expanded = expand(graph, trial)
    except SynthesisError:
        return "epsilon"
    if csc_conflicts(expanded):
        return "csc"
    if persistence_violations(expanded):
        return "persistence"
    return None


class _CheckedIndex(polish._DeltaIndex):
    """Delta index that re-judges every trial on the whole graph.

    Appends ``"accept"`` or the rejecting check's name to ``verdicts``.
    """

    verdicts = None

    def __init__(self, graph, assignment):
        super().__init__(graph, assignment)
        self.graph = graph

    def flip(self, s, k, code):
        rows = [list(row) for row in self.rows]
        rows[s][k] = code
        trial = Assignment(self.names, [
            tuple(polish._VALUES[c] for c in row) for row in rows
        ])
        expected = polish._accepts(self.graph, trial)
        verdict = super().flip(s, k, code)
        assert verdict == expected, (s, k, polish._VALUES[code])
        if verdict:
            fresh = polish._DeltaIndex(self.graph, self.assignment())
            assert self.copies == fresh.copies
            assert self.classes == fresh.classes
            self.verdicts.append("accept")
        else:
            self.verdicts.append(_reject_cause(self.graph, trial))
        return verdict


@pytest.fixture
def verdicts(monkeypatch):
    seen = []
    monkeypatch.setattr(_CheckedIndex, "verdicts", seen)
    monkeypatch.setattr(polish, "_DeltaIndex", _CheckedIndex)
    return seen


def _assert_matches_reference(graph, assignment):
    expected = _reference_polish(graph, assignment)
    polished = polish.polish_assignment(graph, assignment)
    assert polished.names == expected.names
    assert polished.values == expected.values
    return polished


def _unpolished(graph, method):
    options = SynthesisOptions(polish=False, minimize=False)
    synthesise = modular_synthesis if method == "modular" else \
        direct_synthesis
    return synthesise(graph, options=options).assignment


CASES = (
    [("generated", g.name, method)
     for g in generated_corpus() for method in ("modular", "direct")]
    + [("table1", name, "modular") for name in SMALL_TABLE1]
    + [("table1", name, "direct") for name in SMALL_TABLE1[:4]]
)


def _graph(kind, name):
    if kind == "generated":
        stg = next(g.stg for g in generated_corpus() if g.name == name)
    else:
        stg = load_benchmark(name)
    return build_state_graph(stg)


@pytest.mark.parametrize("kind,name,method", CASES)
def test_delta_verdicts_and_result_match_full_recheck(verdicts, kind, name,
                                                      method):
    graph = _graph(kind, name)
    assignment = _unpolished(graph, method)
    _assert_matches_reference(graph, assignment)


WALK_STEPS = 300


@pytest.mark.parametrize("kind,name,method", CASES)
def test_random_walk_verdicts_match_full_recheck(verdicts, kind, name,
                                                 method):
    graph = _graph(kind, name)
    assignment = _unpolished(graph, method)
    if assignment.num_signals == 0:
        return
    rng = random.Random(f"{name}/{method}")
    index = _CheckedIndex(graph, assignment)
    for _step in range(WALK_STEPS):
        s = rng.randrange(graph.num_states)
        k = rng.randrange(assignment.num_signals)
        code = rng.choice([c for c in range(4) if c != index.rows[s][k]])
        index.flip(s, k, code)
    # Polish from wherever the walk ended: typically sprawling regions.
    _assert_matches_reference(graph, index.assignment())


def test_corpus_exercises_every_verdict(verdicts):
    for kind, name, method in CASES:
        if kind == "table1":
            test_random_walk_verdicts_match_full_recheck(
                verdicts, kind, name, method
            )
    assert {"accept", "edge", "input", "csc", "persistence"} <= \
        set(verdicts)


# -- hand-built graph: ε edge and input edges -------------------------------

#: Inputs ``a`` and ``c``, output ``b``; state 1 reaches state 6 (same
#: code) over an ε edge, and both fire ``c+`` into state 2.
HAND_CODES = [
    (0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1),
    (0, 1, 1), (0, 0, 1), (1, 0, 0),
]
HAND_EDGES = [
    (0, ("a", "+"), 1), (1, ("c", "+"), 2), (2, ("b", "+"), 3),
    (3, ("a", "-"), 4), (4, ("c", "-"), 5), (5, ("b", "-"), 0),
    (1, EPSILON, 6), (6, ("c", "+"), 2),
]
#: Accepted: ``x`` rises across ``c+`` (states 1, 2) and over the ε
#: edge (states 1, 6), falls in state 5.
HAND_COLUMN = (
    Value.ZERO, Value.UP, Value.UP, Value.ONE,
    Value.ONE, Value.DOWN, Value.UP,
)


def _hand_built():
    graph = StateGraph(("a", "c", "b"), HAND_CODES, HAND_EDGES,
                       non_inputs={"b"})
    return graph, Assignment(("x",), [(v,) for v in HAND_COLUMN])


def _trial(assignment, state, value):
    values = list(assignment.values)
    values[state] = (value,)
    return Assignment(assignment.names, values)


def test_hand_built_assignment_is_accepted():
    graph, assignment = _hand_built()
    assert polish._accepts(graph, assignment)


def test_epsilon_edge_rejects_a_flip():
    graph, assignment = _hand_built()
    # Up -> 0 across the ε edge 1 -> 6: legal on every labelled edge, so
    # only the expansion (which checks ε edges too) refuses it.
    trial = _trial(assignment, 6, Value.ZERO)
    assert trial.check_edge_compatibility(graph) == []
    assert not polish._accepts(graph, trial)
    index = polish._DeltaIndex(graph, assignment)
    assert not index.flip(6, 0, polish._CODE[Value.ZERO])
    assert index.assignment().values == assignment.values


def test_input_edge_rejects_a_flip():
    graph, assignment = _hand_built()
    # (Up, 1) across the input edges 1 -c+-> 2 and 6 -c+-> 2: x would
    # have to fire before the environment's c+.
    trial = _trial(assignment, 2, Value.ONE)
    assert trial.check_edge_compatibility(graph) == []
    assert trial.check_input_realizability(graph) == [
        (1, 2, "x"), (6, 2, "x"),
    ]
    assert not polish._accepts(graph, trial)
    index = polish._DeltaIndex(graph, assignment)
    assert not index.flip(2, 0, polish._CODE[Value.ONE])
    assert index.assignment().values == assignment.values


def test_hand_built_polish_matches_full_recheck(verdicts):
    graph, assignment = _hand_built()
    _assert_matches_reference(graph, assignment)
    assert {"epsilon", "input", "csc"} <= set(verdicts)


def test_persistence_lost_upstream_rejects_a_flip():
    # Outputs y, o, z and input a.  x rises over the whole y/o diamond
    # 0 -> {1, 2} -> 3.  Moving x's firing out of 3 (Up -> 1) makes o+
    # in 1 and y+ in 2 wait for x, so state 0, which the flip leaves
    # alone, now disables o and y along its edges into 1 and 2: the
    # index must re-check edges *into* the flipped state's predecessors.
    codes = [
        (0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 1, 1, 0),
        (0, 1, 1, 1), (1, 1, 1, 1), (1, 0, 1, 1), (1, 0, 0, 1),
        (1, 0, 0, 0),
    ]
    edges = [
        (0, ("y", "+"), 1), (0, ("o", "+"), 2), (1, ("o", "+"), 3),
        (2, ("y", "+"), 3), (3, ("z", "+"), 4), (4, ("a", "+"), 5),
        (5, ("y", "-"), 6), (6, ("o", "-"), 7), (7, ("z", "-"), 8),
        (8, ("a", "-"), 0),
    ]
    graph = StateGraph(("a", "y", "o", "z"), codes, edges,
                       non_inputs={"y", "o", "z"})
    up, one, down, zero = Value.UP, Value.ONE, Value.DOWN, Value.ZERO
    assignment = Assignment(("x",), [
        (v,) for v in (up, up, up, up, one, one, down, zero, zero)
    ])
    assert polish._accepts(graph, assignment)
    trial = _trial(assignment, 3, Value.ONE)
    assert _reject_cause(graph, trial) == "persistence"
    index = polish._DeltaIndex(graph, assignment)
    assert not index.flip(3, 0, polish._CODE[Value.ONE])
    assert index.assignment().values == assignment.values
