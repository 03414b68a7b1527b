"""Complete state coding: encodings, solvers, and the paper's core method.

* :mod:`repro.csc.values` / :mod:`repro.csc.assignment` -- the four-valued
  state-variable domain {0, 1, Up, Down} and per-state assignments.
* :mod:`repro.csc.sat_csc` -- the SAT-CSC constraint encoding.
* :mod:`repro.csc.direct` -- the monolithic (Vanbekbergen-style) baseline.
* :mod:`repro.csc.input_set`, :mod:`repro.csc.modular`,
  :mod:`repro.csc.propagate`, :mod:`repro.csc.synthesis` -- the paper's
  modular partitioning method (Figures 2-6).
* :mod:`repro.csc.insertion` -- state-graph expansion with state signals.
* :mod:`repro.csc.verify` -- CSC verification of solved graphs.
"""

from repro.csc.assignment import Assignment
from repro.csc.direct import DirectResult, direct_synthesis, solve_csc_direct
from repro.csc.errors import (
    BacktrackLimitError,
    CscError,
    IntrinsicConflictError,
    SynthesisError,
)
from repro.csc.input_set import InputSetResult, determine_input_set, sg_triggers
from repro.csc.insertion import expand
from repro.csc.modular import PartitionResult, partition_sat
from repro.csc.propagate import propagate
from repro.csc.sat_csc import CscFormula, build_csc_formula
from repro.csc.solve import AttemptStats, SolveOutcome, solve_state_signals
from repro.csc.synthesis import ModularResult, ModuleReport, modular_synthesis
from repro.csc.values import Value, edge_compatible, merge_values
from repro.csc.verify import assert_csc, verify_csc

__all__ = [
    "Assignment",
    "AttemptStats",
    "BacktrackLimitError",
    "CscError",
    "CscFormula",
    "DirectResult",
    "InputSetResult",
    "IntrinsicConflictError",
    "ModularResult",
    "ModuleReport",
    "PartitionResult",
    "SolveOutcome",
    "SynthesisError",
    "Value",
    "assert_csc",
    "build_csc_formula",
    "determine_input_set",
    "direct_synthesis",
    "edge_compatible",
    "expand",
    "merge_values",
    "modular_synthesis",
    "partition_sat",
    "propagate",
    "sg_triggers",
    "solve_csc_direct",
    "solve_state_signals",
    "verify_csc",
]
