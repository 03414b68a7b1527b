"""SAT solving: CNF building and three interchangeable engines.

The paper solves its CSC constraint formulas with "an efficient
implementation of a branch and bound algorithm" (the SAT program shipped
with SIS, Stephan et al. 1992).  This package provides:

* :mod:`repro.sat.cnf` -- a CNF builder with named variables and
  optional optimisation weights;
* :mod:`repro.sat.solver` -- the era-faithful chronological DPLL with
  two-watched-literal propagation (its "backtrack limit" produces the
  Table-1 aborts);
* :mod:`repro.sat.incremental` -- the one conflict-driven solver
  (1UIP learning, VSIDS, Luby restarts, solving under assumptions).
  The grow-``m`` loop keeps one instance per module; :func:`solve_cdcl`
  is a one-shot solve on a fresh instance;
* :mod:`repro.sat.bdd_engine` -- decision by BDD construction returning
  *minimum-weight* models (the follow-up paper's area-driven approach);
* :func:`solve_with` -- engine dispatch, defaulting to a DPLL-then-CDCL
  hybrid, with an optional fallback ladder that escalates engines on a
  ``LIMIT`` outcome;
* :mod:`repro.sat.encode` -- small clause-encoding helpers.
"""

from repro import obs
from repro.obs import Counters
from repro.runtime.faults import should_fire as _fault_fires
from repro.sat.cnf import Cnf
from repro.sat.bdd_engine import solve_bdd
from repro.sat.incremental import IncrementalSolver
from repro.sat.solver import (
    LIMIT,
    SAT,
    UNSAT,
    Limits,
    SolveResult,
    solve,
)


#: Counters of solver reuse, which a one-shot solve does not have.
_REUSE_COUNTERS = ("incremental_solves", "learned_kept")

#: Budget for the DPLL pass of the hybrid engine.
_HYBRID_DPLL_LIMITS = Limits(max_backtracks=50_000, max_seconds=2.0)

#: Budget multipliers for the ladder's enlarged CDCL retry.
_LADDER_BACKTRACK_FACTOR = 4
_LADDER_SECONDS_FACTOR = 2.0


def solve_cdcl(cnf, limits=None):
    """Decide ``cnf`` one-shot on a fresh :class:`IncrementalSolver`."""
    result = IncrementalSolver.from_cnf(cnf, limits).solve()
    result.metrics = Counters(**{
        name: value for name, value in result.metrics.as_dict().items()
        if name not in _REUSE_COUNTERS
    })
    return result


def solve_with(cnf, limits=None, engine="hybrid", fallback=False,
               budget=None):
    """Solve with a named engine.

    * ``"dpll"`` -- the chronological branch-and-bound search matching
      the solver class the paper used.
    * ``"cdcl"`` -- clause learning, backjumping, restarts.
    * ``"bdd"`` -- decide by BDD construction and return the model
      minimising the CNF's variable weights (the follow-up paper's
      area-driven approach); on a node/time blow-up the instance falls
      back to CDCL (losing only the optimality, not the decision).
    * ``"hybrid"`` (default) -- a budgeted DPLL pass first, CDCL on
      limit.  DPLL's static variable order sweeps the state graph like a
      wavefront and tends to produce *compact* state-signal excitation
      regions (smaller covers); CDCL guarantees the instance still gets
      decided when DPLL thrashes.

    All engines honour the same :class:`Limits` budget.

    With ``fallback=True`` a ``LIMIT`` outcome climbs the escalation
    ladder -- the requested engine, then CDCL with an enlarged budget,
    then the BDD engine (whose own rescue is CDCL) -- and the trail of
    ``(engine, status)`` rungs is recorded on ``result.escalations``.
    ``budget`` (a :class:`~repro.runtime.budget.Budget`) additionally
    clips every rung to the run's remaining global allowance, so the
    ladder can never climb past the run deadline, and is charged the
    backtracks of every engine call -- a rescue's discarded first phase
    and the rungs below the last one included.
    """
    if budget is not None:
        limits = budget.sub_limits(limits)
    result = _solve_once(cnf, limits, engine, budget)
    if result.status != LIMIT or not fallback:
        return result
    trail = [(engine, result.status)]
    for rung_engine, rung_limits in _ladder(engine, limits, budget):
        obs.add("escalations")
        obs.event("escalate", engine=rung_engine)
        result = _solve_once(cnf, rung_limits, rung_engine, budget)
        trail.append((rung_engine, result.status))
        if result.status != LIMIT:
            break
    result.escalations = trail
    return result


def _solve_once(cnf, limits, engine, budget):
    """One rung: a single engine, then its built-in rescue on ``LIMIT``.

    Every engine call is charged to ``budget``, a discarded first phase
    included.
    """
    if _fault_fires("solver-limit", detail=engine):
        return SolveResult(LIMIT, None, 0, 0, 0, 0.0)
    if engine == "cdcl":
        phases = [(solve_cdcl, limits)]
    elif engine == "dpll":
        phases = [(solve, limits)]
    elif engine == "bdd":
        phases = [(solve_bdd, limits), (solve_cdcl, limits)]
    elif engine == "hybrid":
        first = _HYBRID_DPLL_LIMITS
        if limits is not None:
            first = Limits(
                max_backtracks=_min_opt(
                    limits.max_backtracks, first.max_backtracks
                ),
                max_seconds=_min_opt(limits.max_seconds, first.max_seconds),
            )
        phases = [(solve, first), (solve_cdcl, limits)]
    else:
        raise ValueError(f"unknown SAT engine {engine!r}")
    for search, search_limits in phases:
        result = search(cnf, search_limits)
        if budget is not None:
            budget.charge_backtracks(result.backtracks)
        if result.status != LIMIT:
            break
    return result


def _ladder(engine, limits, budget):
    """Escalation rungs after ``engine`` exhausted ``limits``.

    CDCL gets an enlarged budget (learning needs room the first attempt
    did not have); the BDD rung is the last resort because its cost is
    structural, not search-bound.  Every rung is clipped to the global
    budget so escalation never outlives the run deadline.
    """
    enlarged = None
    if limits is not None:
        enlarged = Limits(
            max_backtracks=_scale_opt(
                limits.max_backtracks, _LADDER_BACKTRACK_FACTOR
            ),
            max_seconds=_scale_opt(
                limits.max_seconds, _LADDER_SECONDS_FACTOR
            ),
        )
    rungs = [("cdcl", enlarged)]
    if engine != "bdd":
        rungs.append(("bdd", enlarged))
    for rung_engine, rung_limits in rungs:
        if budget is not None:
            rung_limits = budget.sub_limits(rung_limits)
        yield rung_engine, rung_limits


def _scale_opt(value, factor):
    if value is None:
        return None
    scaled = value * factor
    return type(value)(scaled) if isinstance(value, int) else scaled


def _min_opt(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


from repro.sat.encode import (
    add_at_most_one,
    add_equal,
    add_implies,
    add_xor_var,
)

__all__ = [
    "Cnf",
    "IncrementalSolver",
    "LIMIT",
    "Limits",
    "SAT",
    "SolveResult",
    "UNSAT",
    "add_at_most_one",
    "add_equal",
    "add_implies",
    "add_xor_var",
    "solve",
    "solve_bdd",
    "solve_cdcl",
    "solve_with",
]
