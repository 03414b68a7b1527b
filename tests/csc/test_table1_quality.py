"""Pinned Table-1 quality of the default modular flow.

Every circuit's ``final_states`` (expanded graph size), ``literals``
(two-level area) and ``state_signals`` under default
:class:`~repro.runtime.options.SynthesisOptions`.  The figures were
recorded before polish switched from whole-graph re-checks to delta
acceptance; a speed-up of the pipeline must leave them exactly as they
are.

The covers themselves are pinned too, as one sha256 per circuit over
the sorted ``signal=cube|cube|...`` lines (cubes in cover order).  The
digests were recorded before espresso moved to bit columns; a change
to the minimizer that keeps the literal count but picks other cubes,
or orders them differently, fails here.
"""

import functools
import hashlib
import os

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

#: name -> sha256 of the circuit's covers (see :func:`cover_digest`)
COVER_SHA256 = {
    "alex-nonfc":
        "4530388d97a74318e39736eeaa4969f3947aafba7575812c9a95864a97dc5fb7",
    "alloc-outbound":
        "59f2938a052b5a1b7a0bdd75c73d9902af16330d844ece4af1625f872764ef5d",
    "atod":
        "4bbb336792a56826f3532d401558b5fea88298b4de28160e7ca55ad3dc2fb52e",
    "fifo":
        "fd9e31e534c4b67b7b158752654af73c9c8bfe84a5be4d1ee46002915fab7570",
    "mmu0":
        "7d678759171f19851cfe1506081b44fdb0537cd98b330972f54556a684444806",
    "mmu1":
        "c5b669f69a96be16fb9b3a8c91fc7cc2fe040d5eef76e6f3e05844c633fe38c5",
    "mr0":
        "06f0a8119c0933ec2f48a6f064e632842620f6088181db3728ad40df7eca941c",
    "mr1":
        "aa5ed6995c7b941fb0424efd83a44c1ac6e81bb54130c15e45048739b0fa6e4f",
    "nak-pa":
        "ca54e50345eab8b8468d8a4adb1f33eee67eb2593cd170027efbfe0f5f7e4360",
    "nousc-ser":
        "df7c2d374c78da1b77028d292c59fd2fd8dcf356a25ca5e0abe5c9e031a58921",
    "nouse":
        "bbfc08e43cc1d49f7f06a8f0fec992be086283cc573107c5b0cfa69e1e142e3b",
    "pa":
        "84a76c9971c61c899c89b12e0dd1c0170380638e00710806733af34578eb6916",
    "pe-rcv-ifc-fc":
        "1a285e7c54efd433da6a049767a11cf35b67958a8f1a0ad89f15902b7a5c602f",
    "ram-read-sbuf":
        "0c5e2d65477ff0f25f4b40f94991e18010ad85c5a747707ad93b1ffba835f84b",
    "sbuf-ram-write":
        "812cf580960a92c1c9fef9dd108dbdb8b3acec70631c4f17f39feca37b2e7528",
    "sbuf-read-ctl":
        "4444ed4598bd89aeb6a999ae9066bb0067e013a23281a49bd893e7fc52a242fb",
    "sbuf-send-ctl":
        "941c21181cec3cf0a298d51fb4bb1f0273d892debe5b947054626311a39b4c21",
    "sbuf-send-pkt2":
        "a32513071837bc3ce8d4b3e8b0f6d6bbc195747109c3d4c2ccd08dc4a43b92ce",
    "sendr-done":
        "ee7b9d386d7492d31f24db7aa8412ff7035a30ddbc437b60c6410cb562378154",
    "vbe-ex1":
        "36a6db8edc6d23f82dc45beaa8f11009ba09e7f39d1e13c7347375a59fdb1cbb",
    "vbe-ex2":
        "7c5a78f004199804bba9d3af59482ca8ef5521ca84a6ec32a8eecb7aa77f5031",
    "vbe4a":
        "350d8fca3f9f2701c3672c3c49d1af9c9978828cd383d1a3e79370c390281721",
    "wrdata":
        "bf4be8ccf9f19ed5dc3157f5d73c638d8f4cae02c203d19bae78398bb4f2ce49",
}


def cover_digest(covers):
    lines = sorted(
        f"{signal}={'|'.join(str(cube) for cube in cover)}"
        for signal, cover in covers.items()
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def _synthesise(name):
    return modular_synthesis(load_benchmark(name), options=SynthesisOptions())


def test_pinned_table_covers_the_suite():
    assert set(PINNED) == set(benchmark_names())
    assert set(COVER_SHA256) == set(PINNED)
    totals = [sum(row[i] for row in PINNED.values()) for i in range(3)]
    assert totals == [1654, 575, 48]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_table1_quality_pinned(name):
    result = _synthesise(name)
    measured = (result.final_states, result.literals, result.state_signals)
    assert measured == PINNED[name]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_table1_covers_pinned(name):
    assert cover_digest(_synthesise(name).covers) == COVER_SHA256[name]


def _experiments_modular_column():
    """``{name: (signals, states, literals)}`` from EXPERIMENTS.md Table 1.

    The modular cell is ``final signals / final states / literals / cpu``
    in the third column of every ``| STG | ...`` row of the table.
    """
    path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)))),
        "EXPERIMENTS.md",
    )
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    section = text.split("\n## Table 1\n", 1)[1].split("\n## ", 1)[0]
    column = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if cells[0] in PINNED:
            signals, states, literals, _cpu = cells[2].split("/")
            column[cells[0]] = (int(signals), int(states), int(literals))
    return column


def test_experiments_table1_modular_column_matches_pins():
    column = _experiments_modular_column()
    assert set(column) == set(PINNED)
    for name, (states, literals, state_signals) in PINNED.items():
        initial = len(load_benchmark(name).signals)
        assert column[name] == (initial + state_signals, states, literals), (
            f"EXPERIMENTS.md Table 1 modular cell of {name} drifted from "
            f"the pin; regenerate it with "
            f"`python -m repro.bench.table1 --methods modular`"
        )
