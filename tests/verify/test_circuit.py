"""Unit tests for the gate-level circuit model."""

import random

import pytest

from repro.csc import modular_synthesis
from repro.logic.cover import Cover, Cube
from repro.stg import parse_g
from repro.verify import Circuit, mutant_circuit, mutate_result
from repro.runtime.options import SynthesisOptions

from tests.example_stgs import CSC_CONFLICT, HANDSHAKE, generated_corpus


def simple_circuit():
    """b = a over the vector (a, b)."""
    return Circuit(
        signals=("a", "b"),
        inputs=["a"],
        covers={"b": Cover.from_strings(2, ["1-"])},
    )


class TestConstruction:
    def test_unknown_input_rejected(self):
        with pytest.raises(ValueError):
            Circuit(("a",), ["zz"], {"a": Cover(1)})

    def test_missing_cover_rejected(self):
        with pytest.raises(ValueError):
            Circuit(("a", "b"), ["a"], {})

    def test_cover_width_checked(self):
        with pytest.raises(ValueError):
            Circuit(
                ("a", "b"), ["a"], {"b": Cover.from_strings(3, ["1--"])}
            )

    def test_from_synthesis(self):
        stg = parse_g(HANDSHAKE)
        result = modular_synthesis(stg)
        circuit = Circuit.from_synthesis(result, stg.inputs)
        assert circuit.signals == result.expanded.signals
        assert set(circuit.inputs) == {"a"}

    def test_from_synthesis_needs_covers(self):
        stg = parse_g(HANDSHAKE)
        result = modular_synthesis(
            stg, options=SynthesisOptions(minimize=False)
        )
        with pytest.raises(ValueError):
            Circuit.from_synthesis(result, stg.inputs)


class TestEvaluation:
    def test_next_value(self):
        circuit = simple_circuit()
        assert circuit.next_value("b", (1, 0)) == 1
        assert circuit.next_value("b", (0, 1)) == 0

    def test_excited(self):
        circuit = simple_circuit()
        assert circuit.excited((1, 0)) == ["b"]
        assert circuit.excited((1, 1)) == []
        assert circuit.excited((0, 1)) == ["b"]

    def test_fire_toggles(self):
        circuit = simple_circuit()
        assert circuit.fire((1, 0), "b") == (1, 1)
        assert circuit.fire((1, 1), "a") == (0, 1)


def _assert_matches_covers(circuit, rng, samples=64):
    """Mask-compiled gates against ``Cover.evaluate`` on random vectors."""
    width = len(circuit.signals)
    for _ in range(samples):
        vector = tuple(rng.randint(0, 1) for _ in range(width))
        expected = {}
        for signal in circuit.non_inputs:
            expected[signal] = circuit.covers[signal].evaluate(vector)
            assert circuit.next_value(signal, vector) == expected[signal]
        assert circuit.excited(vector) == [
            signal for signal in circuit.non_inputs
            if expected[signal] != vector[circuit.index(signal)]
        ]


class TestCompiledGates:
    def test_constant_gates(self):
        # Empty cover: constant 0.  Universal cube: constant 1.
        circuit = Circuit(
            signals=("a", "zero", "one"),
            inputs=["a"],
            covers={"zero": Cover(3), "one": Cover(3, [Cube.full(3)])},
        )
        for vector in [(0, 0, 0), (1, 0, 1), (1, 1, 0), (0, 1, 1)]:
            assert circuit.next_value("zero", vector) == 0
            assert circuit.next_value("one", vector) == 1
        assert circuit.excited((0, 1, 0)) == ["zero", "one"]
        assert circuit.excited((1, 0, 1)) == []
        _assert_matches_covers(circuit, random.Random(0))

    def test_synthesised_circuits_match_covers(self):
        rng = random.Random(1)
        stgs = [parse_g(CSC_CONFLICT)] + [g.stg for g in generated_corpus()]
        for stg in stgs:
            result = modular_synthesis(stg)
            _assert_matches_covers(
                Circuit.from_synthesis(result, stg.inputs), rng
            )

    def test_mutant_circuits_match_covers(self):
        rng = random.Random(2)
        stgs = [parse_g(CSC_CONFLICT)] + [g.stg for g in generated_corpus()]
        mutants = 0
        for stg in stgs:
            result = modular_synthesis(stg)
            for mutant in mutate_result(result, seed=3):
                circuit, _initial = mutant_circuit(result, stg.inputs, mutant)
                _assert_matches_covers(circuit, rng, samples=16)
                mutants += 1
        assert mutants > 0

    def test_caller_cover_appended_later_leaves_circuit_alone(self):
        cover = Cover.from_strings(2, ["11"])
        circuit = Circuit(("a", "b"), ["a"], {"b": cover})
        cover.append(Cube.parse("0-"))
        assert len(circuit.covers["b"]) == 1
        assert circuit.next_value("b", (0, 0)) == 0
        assert circuit.excited((0, 1)) == ["b"]
        assert circuit.excited((0, 0)) == []
