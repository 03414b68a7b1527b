"""Unit tests for the run-wide :class:`Budget`."""

import pytest

from repro.runtime.budget import Budget, BudgetExhaustedError
from repro.sat.solver import Limits


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_unlimited_budget_never_exhausts():
    budget = Budget.unlimited()
    for _ in range(100):
        budget.checkpoint("anywhere")
    budget.check_states(10**9)
    assert budget.remaining_seconds() is None
    assert budget.remaining_backtracks() is None
    assert budget.sub_limits(None) is None


def test_deadline_checkpoint_raises():
    clock = FakeClock()
    budget = Budget(max_seconds=5.0, clock=clock)
    budget.checkpoint("early")
    clock.advance(5.1)
    with pytest.raises(BudgetExhaustedError) as excinfo:
        budget.checkpoint("late")
    assert excinfo.value.resource == "wall-clock"
    assert excinfo.value.point == "late"
    assert budget.exhausted_at == "late"


def test_state_cap():
    budget = Budget(max_states=100)
    budget.check_states(100)
    with pytest.raises(BudgetExhaustedError) as excinfo:
        budget.check_states(101, point="reachability")
    assert excinfo.value.resource == "states"


def test_sub_limits_clips_seconds_to_deadline():
    clock = FakeClock()
    budget = Budget(max_seconds=10.0, clock=clock)
    clock.advance(8.0)
    limits = budget.sub_limits(Limits(max_backtracks=500, max_seconds=60.0))
    assert limits.max_backtracks == 500
    assert limits.max_seconds == pytest.approx(2.0)


def test_sub_limits_never_negative():
    clock = FakeClock()
    budget = Budget(max_seconds=1.0, clock=clock)
    clock.advance(5.0)
    limits = budget.sub_limits(Limits(max_seconds=60.0))
    assert limits.max_seconds == 0.0


def test_backtrack_pool_drains():
    budget = Budget(max_backtracks=1000)
    budget.charge_backtracks(400)
    assert budget.remaining_backtracks() == 600
    limits = budget.sub_limits(Limits(max_backtracks=10_000))
    assert limits.max_backtracks == 600
    budget.charge_backtracks(700)
    assert budget.remaining_backtracks() == 0
    assert budget.sub_limits(None).max_backtracks == 0


def test_sub_limits_without_caps_passes_through():
    budget = Budget()
    original = Limits(max_backtracks=7, max_seconds=3.0)
    assert budget.sub_limits(original) is original


def test_snapshot_shape():
    budget = Budget(max_seconds=2.0, max_states=50, max_backtracks=10)
    budget.charge_backtracks(3)
    budget.checkpoint()
    snap = budget.snapshot()
    assert snap["max_seconds"] == 2.0
    assert snap["max_states"] == 50
    assert snap["backtracks_used"] == 3
    assert snap["checkpoints"] == 1
    assert snap["exhausted_at"] is None


def test_pool_is_charged_every_engine_call(monkeypatch):
    # Tiny per-solve limits send incremental attempts to one-shot
    # retries and up the escalation ladder; the run-wide pool must be
    # charged the conflicts of every engine call, not just the last
    # call of each attempt.
    import repro.sat
    from repro.bench.suite import load_benchmark
    from repro.csc import modular_synthesis
    from repro.runtime.options import SynthesisOptions
    from repro.sat.incremental import IncrementalSolver

    performed = []

    def counted(owner, name):
        engine = getattr(owner, name)

        def wrapper(*args, **kwargs):
            result = engine(*args, **kwargs)
            performed.append((name, result.backtracks))
            return result

        monkeypatch.setattr(owner, name, wrapper)

    counted(IncrementalSolver, "solve")  # incremental and one-shot CDCL
    counted(repro.sat, "solve")  # DPLL
    counted(repro.sat, "solve_bdd")
    budget = Budget(max_backtracks=10**7)
    modular_synthesis(load_benchmark("mmu1"), options=SynthesisOptions(
        limits=Limits(max_backtracks=3), budget=budget, fallback=True,
    ))
    assert any(name == "solve" and spent for name, spent in performed)
    assert budget.backtracks_used == sum(spent for _, spent in performed)


@pytest.mark.parametrize("method", ["modular", "direct", "lavagno"])
def test_deadline_after_first_signal_stops_minimisation(monkeypatch, method):
    # The fake clock only moves when a signal has been minimised, so
    # every earlier checkpoint passes and the second signal's
    # "minimize" checkpoint is the first to see the deadline gone.
    from repro.baselines import lavagno_synthesis
    from repro.csc import direct_synthesis, modular_synthesis
    from repro.logic import extract
    from repro.runtime.options import SynthesisOptions
    from repro.stg import parse_g

    from tests.example_stgs import CSC_CONFLICT

    clock = FakeClock()
    budget = Budget(max_seconds=5.0, clock=clock)
    minimised = []
    espresso = extract.espresso

    def espresso_then_expire(onset, offset, n):
        minimised.append(n)
        clock.advance(10.0)
        return espresso(onset, offset, n)

    monkeypatch.setattr(extract, "espresso", espresso_then_expire)
    synthesise = {
        "modular": modular_synthesis,
        "direct": direct_synthesis,
        "lavagno": lavagno_synthesis,
    }[method]
    with pytest.raises(BudgetExhaustedError) as excinfo:
        synthesise(
            parse_g(CSC_CONFLICT), options=SynthesisOptions(budget=budget)
        )
    assert excinfo.value.point == "minimize"
    assert excinfo.value.resource == "wall-clock"
    assert budget.exhausted_at == "minimize"
    assert len(minimised) == 1
