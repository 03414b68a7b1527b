"""Pinned Table-1 quality of the default modular flow.

Every circuit's ``final_states`` (expanded graph size), ``literals``
(two-level area) and ``state_signals`` under default
:class:`~repro.runtime.options.SynthesisOptions`.  The figures were
recorded before polish switched from whole-graph re-checks to delta
acceptance; a speed-up of the pipeline must leave them exactly as they
are.
"""

import pytest

from repro.bench.suite import benchmark_names, load_benchmark
from repro.csc import modular_synthesis
from repro.runtime.options import SynthesisOptions

#: name -> (final_states, literals, state_signals)
PINNED = {
    "mr0": (303, 47, 3),
    "mmu0": (470, 53, 4),
    "mr1": (216, 43, 3),
    "mmu1": (68, 31, 2),
    "vbe4a": (118, 67, 5),
    "sbuf-ram-write": (66, 24, 2),
    "nak-pa": (60, 16, 1),
    "pe-rcv-ifc-fc": (33, 24, 2),
    "ram-read-sbuf": (75, 31, 3),
    "pa": (40, 38, 4),
    "sbuf-send-ctl": (24, 20, 2),
    "alex-nonfc": (24, 22, 2),
    "alloc-outbound": (20, 23, 2),
    "atod": (23, 20, 2),
    "sbuf-send-pkt2": (18, 13, 1),
    "fifo": (14, 18, 1),
    "wrdata": (14, 12, 1),
    "sbuf-read-ctl": (22, 19, 2),
    "nouse": (10, 14, 1),
    "vbe-ex2": (12, 18, 2),
    "nousc-ser": (8, 7, 1),
    "sendr-done": (8, 7, 1),
    "vbe-ex1": (8, 8, 1),
}


def test_pinned_table_covers_the_suite():
    assert set(PINNED) == set(benchmark_names())
    totals = [sum(row[i] for row in PINNED.values()) for i in range(3)]
    assert totals == [1654, 575, 48]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_table1_quality_pinned(name):
    result = modular_synthesis(
        load_benchmark(name), options=SynthesisOptions()
    )
    measured = (result.final_states, result.literals, result.state_signals)
    assert measured == PINNED[name]
