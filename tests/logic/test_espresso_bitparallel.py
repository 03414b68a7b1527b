"""Differential suite: bit-column espresso against the scan-based one.

:func:`repro.logic.espresso.espresso` answers its containment questions
with per-variable bit columns of the ON- and OFF-sets.  The reference
below is the minimizer as it was before: every OFF-set test, coverage
table and reduction scans the minterm lists one by one.  Both must
return the same cubes in the same order on random incompletely
specified functions (Hypothesis-drawn ones with up to 8 variables, and
seeded dense ones where IRREDUNDANT's tie-break decides the cover), on
the next-state functions of the generated corpus and of every Table-1
circuit, and on the C-element set/reset functions; and both must reject
the same malformed inputs.
"""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.suite import benchmark_names, load_benchmark
from repro.csc import modular_synthesis
from repro.logic.celement import excitation_regions
from repro.logic.cover import DASH, Cover, Cube
from repro.logic.espresso import espresso
from repro.logic.extract import next_state_tables
from repro.runtime.options import SynthesisOptions

from tests.example_stgs import generated_corpus

# -- the scan-based reference ------------------------------------------------


def _reference_espresso(onset, offset, n):
    on_ints = sorted({_ref_to_int(bits, n) for bits in onset})
    off_ints = sorted({_ref_to_int(bits, n) for bits in offset})
    overlap = set(on_ints) & set(off_ints)
    if overlap:
        raise ValueError(
            f"ON-set and OFF-set overlap on {len(overlap)} minterm(s)"
        )
    if not on_ints:
        return Cover(n)
    full_mask = (1 << n) - 1
    cubes = [(m, full_mask) for m in on_ints]
    best = None
    for round_index in range(6):
        order = list(range(n))
        if n:
            shift = round_index % n
            order = order[shift:] + order[:shift]
        cubes = _ref_expand(cubes, off_ints, order)
        cubes = _ref_remove_covered(cubes)
        cubes = _ref_irredundant(cubes, on_ints)
        cost = (sum(_popcount(care) for _v, care in cubes), len(cubes))
        if best is None or cost < best[0]:
            best = (cost, list(cubes))
        else:
            break
        cubes = _ref_reduce(cubes, on_ints, full_mask)
    return Cover(n, (_ref_to_cube(v, c, n) for v, c in best[1]))


def _ref_to_int(bits, n):
    if len(bits) != n:
        raise ValueError(f"minterm {bits} does not have {n} bits")
    value = 0
    for i, bit in enumerate(bits):
        if bit not in (0, 1):
            raise ValueError(f"minterm {bits} has non-binary entry")
        if bit:
            value |= 1 << i
    return value


def _ref_to_cube(value, care, n):
    return Cube(
        (1 if value & 1 << i else 0) if care & 1 << i else DASH
        for i in range(n)
    )


def _ref_expand(cubes, off_ints, order):
    expanded = []
    for value, care in cubes:
        for i in order:
            bit = 1 << i
            if not care & bit:
                continue
            new_care = care & ~bit
            new_value = value & new_care
            if not any(not (m ^ new_value) & new_care for m in off_ints):
                care, value = new_care, new_value
        expanded.append((value, care))
    return expanded


def _ref_covers(a, b):
    return not (a[1] & ~b[1]) and not ((a[0] ^ b[0]) & a[1])


def _ref_remove_covered(cubes):
    result = []
    for i, cube in enumerate(cubes):
        redundant = False
        for j, other in enumerate(cubes):
            if j == i:
                continue
            if other == cube:
                if j < i:
                    redundant = True
                    break
                continue
            if _ref_covers(other, cube):
                redundant = True
                break
        if not redundant:
            result.append(cube)
    return result


def _ref_irredundant(cubes, on_ints):
    table = {}
    for m in on_ints:
        covering = [
            index for index, (value, care) in enumerate(cubes)
            if not (m ^ value) & care
        ]
        assert covering, f"ON minterm {m} uncovered"
        table[m] = covering
    chosen = {c[0] for c in table.values() if len(c) == 1}
    uncovered = {
        m for m, covering in table.items()
        if not any(index in chosen for index in covering)
    }
    while uncovered:
        gains = {}
        for m in uncovered:
            for index in table[m]:
                gains[index] = gains.get(index, 0) + 1
        best_index = max(
            gains,
            key=lambda index: (gains[index], -_popcount(cubes[index][1])),
        )
        chosen.add(best_index)
        uncovered = {m for m in uncovered if best_index not in table[m]}
    return [cube for index, cube in enumerate(cubes) if index in chosen]


def _ref_reduce(cubes, on_ints, full_mask):
    current = list(cubes)
    for index in range(len(current)):
        value, care = current[index]
        mine = [
            m for m in on_ints
            if not (m ^ value) & care
            and not any(
                not (m ^ ov) & oc
                for j, (ov, oc) in enumerate(current) if j != index
            )
        ]
        if mine:
            diff = 0
            for m in mine[1:]:
                diff |= mine[0] ^ m
            new_care = full_mask & ~diff
            current[index] = (mine[0] & new_care, new_care)
    return current


def _popcount(x):
    return bin(x).count("1")


# -- helpers -----------------------------------------------------------------


def _cubes(cover):
    return [str(cube) for cube in cover]


def _assert_same(onset, offset, n):
    expected = _cubes(_reference_espresso(onset, offset, n))
    assert _cubes(espresso(onset, offset, n)) == expected


def _bits(code, n):
    return tuple(code >> i & 1 for i in range(n))


@functools.lru_cache(maxsize=1)
def _table1_graphs():
    """Expanded (CSC-solved) graphs of every Table-1 circuit."""
    return tuple(
        (name, modular_synthesis(
            load_benchmark(name), options=SynthesisOptions(minimize=False)
        ).expanded)
        for name in sorted(benchmark_names())
    )


@functools.lru_cache(maxsize=1)
def _corpus_graphs():
    """Expanded graphs of the shared generated corpus."""
    return tuple(
        (g.name, modular_synthesis(
            g.stg, options=SynthesisOptions(minimize=False)
        ).expanded)
        for g in generated_corpus()
    )


# -- the differential contracts ----------------------------------------------


@st.composite
def incompletely_specified(draw):
    n = draw(st.integers(min_value=0, max_value=8))
    codes = st.integers(min_value=0, max_value=2 ** n - 1)
    on = draw(st.sets(codes, max_size=2 ** n))
    off = draw(st.sets(codes, max_size=2 ** n)) - on
    return (
        [_bits(m, n) for m in sorted(on)],
        [_bits(m, n) for m in sorted(off)],
        n,
    )


@settings(max_examples=300, deadline=None)
@given(incompletely_specified())
def test_random_functions_match_reference(function):
    _assert_same(*function)


def test_seeded_dense_functions_match_reference():
    # Dense 8-variable functions leave IRREDUNDANT many cubes of equal
    # gain and size; on some of these the tie-break decides the cover.
    rng = random.Random(8)
    for _ in range(40):
        onset, offset = [], []
        for code in range(2 ** 8):
            draw = rng.random()
            if draw < 0.6:
                onset.append(_bits(code, 8))
            elif draw < 0.8:
                offset.append(_bits(code, 8))
        _assert_same(onset, offset, 8)


def test_generated_corpus_matches_reference():
    for _name, graph in _corpus_graphs():
        n = len(graph.signals)
        for onset, offset in next_state_tables(graph).values():
            _assert_same(onset, offset, n)


@pytest.mark.parametrize("index", range(len(benchmark_names())))
def test_table1_next_state_functions_match_reference(index):
    _name, graph = _table1_graphs()[index]
    n = len(graph.signals)
    for onset, offset in next_state_tables(graph).values():
        _assert_same(onset, offset, n)


def test_celement_set_and_reset_functions_match_reference():
    graphs = _table1_graphs() + _corpus_graphs()
    for _name, graph in graphs:
        n = len(graph.signals)
        for signal in sorted(graph.non_inputs):
            set_on, set_off, reset_on, reset_off = excitation_regions(
                graph, signal
            )
            _assert_same(set_on, set_off, n)
            _assert_same(reset_on, reset_off, n)


@pytest.mark.parametrize(
    "onset, offset, n",
    [
        ([(1, 1)], [(1, 1)], 2),          # ON/OFF overlap
        ([(1, 2)], [], 2),                # DASH is not a minterm value
        ([(1, 3)], [], 2),                # nor is any other entry
        ([(1,)], [], 2),                  # wrong width
        ([], [(0, 1, 1)], 2),             # wrong width in the OFF-set
    ],
)
def test_error_paths_match_reference(onset, offset, n):
    with pytest.raises(ValueError) as expected:
        _reference_espresso(onset, offset, n)
    with pytest.raises(ValueError) as actual:
        espresso(onset, offset, n)
    assert str(actual.value) == str(expected.value)
