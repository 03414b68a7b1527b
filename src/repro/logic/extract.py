"""Logic extraction from encoded state graphs.

Once the expanded state graph satisfies CSC, every non-input signal's
next-state function is well-defined on the reachable state codes: the
implied value while excited, the current value while stable (Section 3.5).
The unreachable codes are don't-cares, which is exactly the shape
:func:`repro.logic.espresso.espresso` minimises.
"""

from __future__ import annotations

from repro.logic.espresso import espresso


def next_state_tables(graph, signals=None):
    """ON/OFF minterm sets of each non-input signal's next-state function.

    Parameters
    ----------
    graph:
        A state graph satisfying CSC (e.g. the expanded graph produced by
        synthesis).  Codes are the function inputs.
    signals:
        Signals to extract; defaults to all non-inputs.

    Returns
    -------
    dict
        ``signal -> (onset, offset)`` where each set contains code tuples.

    Raises
    ------
    ValueError
        If some code implies both 0 and 1 for a signal -- a CSC violation.
    """
    chosen = sorted(graph.non_inputs) if signals is None else list(signals)
    tables = {}
    for signal in chosen:
        onset = set()
        offset = set()
        for state in graph.states():
            code = graph.code_of(state)
            if graph.implied_value(state, signal):
                onset.add(code)
            else:
                offset.add(code)
        clash = onset & offset
        if clash:
            raise ValueError(
                f"signal {signal!r} has contradictory implied values on "
                f"{len(clash)} code(s); the graph does not satisfy CSC"
            )
        tables[signal] = (sorted(onset), sorted(offset))
    return tables


def synthesize_logic(graph, signals=None, budget=None):
    """Minimised single-output covers for each non-input signal.

    This mirrors the paper's use of ``espresso -Dso -S1``: every output is
    minimised separately and the area is the summed literal count of the
    unfactored covers.  With a :class:`~repro.runtime.budget.Budget`,
    each signal's extraction and minimisation is preceded by a
    checkpoint named ``"minimize"``.

    Returns
    -------
    (dict, int)
        ``covers[signal] -> Cover`` and the total literal count.
    """
    n = len(graph.signals)
    chosen = sorted(graph.non_inputs) if signals is None else list(signals)
    covers = {}
    for signal in chosen:
        if budget is not None:
            budget.checkpoint("minimize")
        onset, offset = next_state_tables(graph, [signal])[signal]
        covers[signal] = espresso(onset, offset, n)
    total = sum(cover.literals for cover in covers.values())
    return covers, total
