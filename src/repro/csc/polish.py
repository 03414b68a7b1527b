"""Post-SAT assignment polishing: shrink excitation regions.

A satisfying SAT assignment is free to mark large swaths of states as
``Up``/``Down``; every excited state splits in two during expansion, so
sprawling excitation regions inflate the final state count and -- because
every split adds a fresh minterm pattern -- the two-level covers.  The
solver has no objective function, so this pass supplies the missing
quality: it walks the excited states and re-stabilises each one (``Up``
to 0 or 1, ``Down`` to 1 or 0) whenever the change provably keeps the
solution correct.

Correctness is re-checked semantically, not via the encoding.  The
ground-truth test (:func:`_accepts`) expands the whole graph and demands
it be edge-compatible, input-realisable, CSC-clean and persistent.  It
runs once, as the entry gate; after that the loop only ever holds an
accepted assignment, and a flip at (Σ state ``s``, signal ``k``) changes
just the expanded copies of ``s`` (their codes and excitation) and the
excitation of the copies of ``s``'s predecessors along output edges.
:class:`_DeltaIndex` keeps the expanded graph per Σ state and re-checks
only those copies, their code classes and their edges -- the same
verdict as :func:`_accepts` on the trial assignment, at a fraction of
the cost.  Regions therefore shrink from their boundaries inward until
only the genuinely required transition states stay excited.
"""

from __future__ import annotations

from repro import obs
from repro.csc.assignment import Assignment
from repro.csc.errors import SynthesisError
from repro.csc.insertion import expand
from repro.csc.values import Value, edge_compatible
from repro.stategraph.csc import csc_conflicts, persistence_violations
from repro.stategraph.graph import EPSILON

_MAX_PASSES = 4

#: Stable replacement candidates per excited value, in preference order:
#: push the transition later (keep the pre-transition value) first.
_CANDIDATES = {
    Value.UP: (Value.ZERO, Value.ONE),
    Value.DOWN: (Value.ONE, Value.ZERO),
}

#: Integer coding of :class:`Value`: bit 0 is the current value, bit 1
#: the excited flag (the SAT encoding of :attr:`Value.bits`), so the
#: implied value is ``code & 1 ^ code >> 1``.
_VALUES = tuple(Value.from_bits(code & 1, code >> 1) for code in range(4))
_CODE = {value: code for code, value in enumerate(_VALUES)}
_CODED_CANDIDATES = tuple(
    tuple(_CODE[c] for c in _CANDIDATES.get(value, ())) for value in _VALUES
)
_COMPATIBLE = tuple(
    tuple(edge_compatible(x, y) for y in _VALUES) for x in _VALUES
)


def polish_assignment(graph, assignment, budget=None):
    """Return an equivalent assignment with fewer excited states.

    The result satisfies the same acceptance criterion as the input
    (expanded graph edge-compatible, input-realisable, CSC-clean and
    persistent); if the input does not satisfy it, it is returned
    unchanged.  ``budget`` (a :class:`~repro.runtime.budget.Budget`) is
    checkpointed as ``"polish"`` once per Σ state of every pass.
    """
    if assignment.num_signals == 0:
        return assignment
    obs.add("polish_accept_checks")
    if not _accepts(graph, assignment):
        return assignment

    index = _DeltaIndex(graph, assignment)
    rows = index.rows
    tried = accepted = 0
    try:
        for _pass in range(_MAX_PASSES):
            changed = False
            for state in graph.states():
                if budget is not None:
                    budget.checkpoint("polish")
                row = rows[state]
                for k in range(len(row)):
                    for candidate in _CODED_CANDIDATES[row[k]]:
                        tried += 1
                        if index.flip(state, k, candidate):
                            accepted += 1
                            changed = True
                            break
            if not changed:
                break
    finally:
        obs.add("polish_flips_tried", tried)
        obs.add("polish_flips_accepted", accepted)
    return index.assignment()


def _accepts(graph, assignment):
    """Ground truth: realisable, expansion succeeds, CSC satisfied."""
    if assignment.check_edge_compatibility(graph):
        return False
    if assignment.check_input_realizability(graph):
        return False
    try:
        expanded = expand(graph, assignment)
    except SynthesisError:
        return False
    if csc_conflicts(expanded):
        return False
    return not persistence_violations(expanded)


class _DeltaIndex:
    """The expansion of an accepted assignment, kept per Σ state.

    Expanding splits Σ state ``s`` once per signal excited in it, so its
    copies are keyed by a *phase mask* over those signals (bit ``k`` set:
    signal ``k`` has already fired, the post-transition half).  Per copy
    the index holds

    * ``key`` -- the full expanded code: Σ code id and state-signal bits;
    * ``signature`` -- the implied values of every non-input, the
      quantity CSC compares within a code class;
    * ``excitation`` -- the excited non-inputs as a bit set (bit ``i``
      for Σ output ``i``, bit ``m + k`` for state signal ``k``).  On an
      edge that does not fire it, a signal's direction is fixed by its
      code bit (Σ outputs) or by edge compatibility (state signals), so
      one bit per signal decides persistence.

    A Σ edge ``a -> b`` expands to one edge per copy ``ma`` of ``a``
    whose mask holds every signal excited in ``a`` but stable in ``b``
    (those fire inside ``a``); it lands on copy ``ma & E_b`` of ``b``.
    ``classes`` maps each code to a ``{signature: count}`` multiset, so
    CSC-clean means every class holds one signature.
    """

    def __init__(self, graph, assignment):
        self.names = assignment.names
        self.rows = [[_CODE[v] for v in row] for row in assignment.values]
        self.width = n = assignment.num_signals
        outputs = sorted(graph.non_inputs)
        position = {signal: i for i, signal in enumerate(outputs)}
        self.state_shift = len(outputs)
        code_ids = {}
        self.code_key = [
            code_ids.setdefault(code, len(code_ids)) << n
            for code in graph.codes
        ]
        self.base_signature = [
            sum(graph.codes[s][graph.signal_index(o)] << i
                for i, o in enumerate(outputs))
            for s in graph.states()
        ]
        # Per state: every neighbour (ε included), and the labelled edges
        # as (neighbour, fired bit) where the bit is 0 for an input.
        self.succ = [[] for _ in graph.states()]
        self.pred = [[] for _ in graph.states()]
        self.fire_succ = [[] for _ in graph.states()]
        self.fire_pred = [[] for _ in graph.states()]
        for source, label, target in graph.edges:
            self.succ[source].append(target)
            self.pred[target].append(source)
            if label is EPSILON:
                continue
            signal = label[0]
            bit = 1 << position[signal] if signal in position else 0
            self.fire_succ[source].append((target, bit))
            self.fire_pred[target].append((source, bit))
        self.excited = [self._excited_mask(row) for row in self.rows]
        self.copies = [self._copies(s) for s in graph.states()]
        self.classes = {}
        for copies in self.copies:
            for key, signature, _excitation in copies.values():
                members = self.classes.setdefault(key, {})
                members[signature] = members.get(signature, 0) + 1

    @staticmethod
    def _excited_mask(row):
        mask = 0
        for k, code in enumerate(row):
            if code & 2:
                mask |= 1 << k
        return mask

    def _copies(self, s):
        """``{phase mask: (key, signature, excitation)}`` of state ``s``."""
        row = self.rows[s]
        excited = self.excited[s]
        current = 0
        for k, code in enumerate(row):
            current |= (code & 1) << k
        implied = current ^ excited
        enabling = [
            (excited & ~self.excited[t], bit)
            for t, bit in self.fire_succ[s] if bit
        ]
        key_base = self.code_key[s]
        base = self.base_signature[s]
        n = self.width
        shift = self.state_shift
        copies = {}
        mask = excited
        while True:
            flips = 0
            for need, bit in enabling:
                if mask & need == need:
                    flips |= bit
            copies[mask] = (
                key_base | (current ^ mask),
                (base ^ flips) << n | implied,
                flips | (excited & ~mask) << shift,
            )
            if not mask:
                return copies
            mask = (mask - 1) & excited

    def flip(self, s, k, code):
        """Set ``rows[s][k] = code`` if the result is accepted."""
        rows = self.rows
        compatible = _COMPATIBLE
        for t in self.succ[s]:
            if t != s and not compatible[code][rows[t][k]]:
                return False
        for p in self.pred[s]:
            if p != s and not compatible[rows[p][k]][code]:
                return False
        for t, bit in self.fire_succ[s]:
            if not bit and _fires_before_input(code, rows[t][k]):
                return False
        for p, bit in self.fire_pred[s]:
            if not bit and _fires_before_input(rows[p][k], code):
                return False

        old_code, old_excited = rows[s][k], self.excited[s]
        rows[s][k] = code
        self.excited[s] = self._excited_mask(rows[s])
        affected = [s] + [p for p, bit in self.fire_pred[s] if bit]
        touched = {state: self._copies(state) for state in affected}
        deltas = self._class_deltas(touched)
        if self._csc_clean(deltas) and self._persistent(touched):
            self._commit(touched, deltas)
            return True
        rows[s][k] = old_code
        self.excited[s] = old_excited
        return False

    def _class_deltas(self, touched):
        """``{code: {signature: count change}}`` of replacing copies."""
        deltas = {}
        for state, new in touched.items():
            for key, signature, _excitation in self.copies[state].values():
                delta = deltas.setdefault(key, {})
                delta[signature] = delta.get(signature, 0) - 1
            for key, signature, _excitation in new.values():
                delta = deltas.setdefault(key, {})
                delta[signature] = delta.get(signature, 0) + 1
        return deltas

    def _csc_clean(self, deltas):
        """Every code class the deltas touch keeps one signature."""
        for key, delta in deltas.items():
            members = self.classes.get(key, {})
            live = 0
            for signature in members.keys() | delta.keys():
                if members.get(signature, 0) + delta.get(signature, 0):
                    live += 1
            if live > 1:
                return False
        return True

    def _persistent(self, touched):
        """No excited non-input is disabled along a touched edge."""
        shift = self.state_shift
        for state, copies in touched.items():
            excited = self.excited[state]
            for mask, (_key, _signature, before) in copies.items():
                pending = excited & ~mask
                while pending:
                    low = pending & -pending
                    fired = low << shift
                    if before & ~fired & ~copies[mask | low][2]:
                        return False
                    pending ^= low
            for target, bit in self.fire_succ[state]:
                if not self._edge_persistent(state, target, bit, touched):
                    return False
            for source, bit in self.fire_pred[state]:
                if source in touched:
                    continue  # checked as that state's out-edge
                if not self._edge_persistent(source, state, bit, touched):
                    return False
        return True

    def _edge_persistent(self, source, target, fired, touched):
        sources = touched.get(source, self.copies[source])
        targets = touched.get(target, self.copies[target])
        landing = self.excited[target]
        need = self.excited[source] & ~landing
        for mask, (_key, _signature, before) in sources.items():
            if mask & need != need:
                continue
            if before & ~fired & ~targets[mask & landing][2]:
                return False
        return True

    def _commit(self, touched, deltas):
        for key, delta in deltas.items():
            members = self.classes.setdefault(key, {})
            for signature, change in delta.items():
                count = members.get(signature, 0) + change
                if count:
                    members[signature] = count
                else:
                    members.pop(signature, None)
            if not members:
                del self.classes[key]
        for state, copies in touched.items():
            self.copies[state] = copies

    def assignment(self):
        return Assignment(
            self.names,
            [tuple(_VALUES[code] for code in row) for row in self.rows],
        )


def _fires_before_input(before, after):
    """Coded form of the (Up, 1) / (Down, 0) test across an input edge."""
    return bool(before & 2) and not after & 2 and (before ^ after) & 1
