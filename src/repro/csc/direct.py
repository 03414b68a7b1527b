"""The direct (no-decomposition) method of Vanbekbergen et al.

One monolithic SAT-CSC formula over the complete state graph: all state
pairs, all constraints, no partitioning.  This is the baseline column
"Vanbekbergen et al. (No Decomposition)" of Table 1, including its
characteristic failure mode -- the SAT backtrack limit aborts on the large
benchmarks (:class:`~repro.csc.errors.BacktrackLimitError`).
"""

from __future__ import annotations

from repro import obs
from repro.csc.assignment import Assignment
from repro.csc.insertion import expand
from repro.csc.solve import DEFAULT_MAX_SIGNALS, solve_state_signals
from repro.csc.verify import assert_csc
from repro.obs import Stopwatch
from repro.stategraph.build import build_state_graph
from repro.stategraph.graph import StateGraph


class DirectResult:
    """Outcome of :func:`direct_synthesis`.

    Attributes
    ----------
    graph / expanded:
        The complete state graph and its expansion with state signals.
    assignment:
        The four-valued state-signal assignment found by SAT.
    attempts:
        Per-formula solver statistics (one entry per tried ``m``).
    covers / literals:
        Minimised two-level covers per non-input signal, and their total
        literal count (``None`` when ``minimize=False``).
    seconds:
        End-to-end wall-clock time.
    """

    def __init__(self, graph, expanded, assignment, attempts, covers,
                 literals, seconds):
        self.graph = graph
        self.expanded = expanded
        self.assignment = assignment
        self.attempts = attempts
        self.covers = covers
        self.literals = literals
        self.seconds = seconds

    @property
    def initial_states(self):
        return self.graph.num_states

    @property
    def final_states(self):
        return self.expanded.num_states

    @property
    def initial_signals(self):
        return len(self.graph.signals)

    @property
    def final_signals(self):
        return len(self.graph.signals) + self.assignment.num_signals

    @property
    def state_signals(self):
        return self.assignment.num_signals

    def __repr__(self):
        return (
            f"DirectResult(states {self.initial_states}->"
            f"{self.final_states}, signals {self.initial_signals}->"
            f"{self.final_signals}, literals={self.literals}, "
            f"{self.seconds:.2f}s)"
        )


def solve_csc_direct(graph, limits=None, max_signals=DEFAULT_MAX_SIGNALS,
                     signal_prefix="csc", max_refinements=10, engine="hybrid",
                     budget=None, fallback=False, sat_mode="incremental"):
    """Solve CSC on the whole graph with one monolithic formula.

    The SAT encoding constrains state *codes*; in rare corner cases the
    chosen interleavings between a state signal and a concurrent output
    only surface as a CSC violation after expansion.  Those violations are
    mapped back to state pairs, added as extra distinction constraints,
    and the formula is re-solved (a verify-and-refine loop standing in for
    the concurrency terms of the original formulation).

    Returns ``(assignment, outcome, expanded)``.
    """
    from repro.csc.errors import SynthesisError
    from repro.stategraph.csc import csc_conflicts

    extra_pairs = []
    attempts = []
    for _round in range(max_refinements):
        if budget is not None:
            budget.checkpoint("direct-solve")
        with obs.span("direct_solve", round=_round):
            outcome = solve_state_signals(
                graph, limits=limits, max_signals=max_signals,
                extra_conflict_pairs=tuple(extra_pairs), engine=engine,
                budget=budget, fallback=fallback, sat_mode=sat_mode,
            )
        attempts.extend(outcome.attempts)
        outcome.attempts = attempts
        names = [f"{signal_prefix}{k}" for k in range(outcome.m)]
        assignment = Assignment(names, outcome.rows)
        expanded, origins = expand(graph, assignment, return_origins=True)
        violations = csc_conflicts(expanded)
        if not violations:
            return assignment, outcome, expanded
        new_pairs = set()
        for p, q in violations:
            a, b = sorted((origins[p], origins[q]))
            if a != b:
                new_pairs.add((a, b))
        new_pairs -= set(extra_pairs)
        if not new_pairs:
            raise SynthesisError(
                "expansion-level CSC violations could not be mapped to new "
                "state-pair constraints"
            )
        extra_pairs.extend(sorted(new_pairs))
    raise SynthesisError(
        f"CSC refinement did not converge in {max_refinements} rounds"
    )


def direct_synthesis(stg, options=None):
    """Run the full direct flow: state graph, monolithic SAT, expansion.

    Parameters
    ----------
    stg:
        A :class:`~repro.stg.model.SignalTransitionGraph`, or an already
        built :class:`~repro.stategraph.graph.StateGraph`.
    options:
        A :class:`~repro.runtime.options.SynthesisOptions`; this method
        reads ``limits`` (SAT budget -- exceeding it raises
        :class:`~repro.csc.errors.BacktrackLimitError`, mirroring the
        paper's aborted runs), ``minimize``, ``max_signals``,
        ``signal_prefix``, ``engine``, ``polish``, ``budget`` and
        ``fallback``.

    Returns
    -------
    DirectResult
    """
    from repro.runtime.options import coerce_options

    opts = coerce_options(options, "direct_synthesis")
    watch = Stopwatch()
    budget = opts.budget
    if isinstance(stg, StateGraph):
        graph = stg
    else:
        graph = build_state_graph(stg, budget=budget)

    assignment, outcome, expanded = solve_csc_direct(
        graph, limits=opts.limits,
        max_signals=opts.resolved_max_signals(DEFAULT_MAX_SIGNALS),
        signal_prefix=opts.resolved_prefix("csc"), engine=opts.engine,
        budget=budget, fallback=opts.fallback, sat_mode=opts.sat_mode,
    )
    if opts.polish:
        from repro.csc.polish import polish_assignment

        with obs.span("polish"):
            assignment = polish_assignment(graph, assignment, budget=budget)
            expanded = expand(graph, assignment)
    assert_csc(expanded, context="direct synthesis result")
    from repro.csc.synthesis import _assert_realizable

    _assert_realizable(graph, assignment)

    covers = literals = None
    if opts.minimize:
        from repro.logic.extract import synthesize_logic

        with obs.span("minimize"):
            covers, literals = synthesize_logic(expanded, budget=budget)
    return DirectResult(
        graph, expanded, assignment, outcome.attempts, covers, literals,
        watch.elapsed(),
    )
