"""An espresso-like two-level minimizer.

Produces a prime irredundant cover of an incompletely specified function
given its ON-set and OFF-set minterms (everything else is don't-care --
the natural shape for state-graph logic, where unreachable codes are
free).  The loop is the classic espresso recipe: EXPAND each cube to a
prime against the OFF-set, extract an IRREDUNDANT subset, REDUCE cubes to
the smallest cube covering their essential minterms, and iterate while
the literal count improves.

Internally cubes are ``(value, care)`` integer bit masks
(:func:`~repro.logic.cover.cube_masks`), and minterm *sets* are bit
columns: for each variable and polarity one integer whose bit ``k``
stands for minterm ``k`` of the ON- or OFF-set.  The minterms a cube
contains are then the AND of the columns of its literals, so "does this
cube hit the OFF-set?" and "which ON minterms does it cover?" cost at
most one big-integer AND per literal instead of a scan over the
minterms.  The public API speaks
:class:`~repro.logic.cover.Cube`/:class:`~repro.logic.cover.Cover`.
"""

from __future__ import annotations

from repro.logic.cover import Cover, Cube, cube_masks

_MAX_ROUNDS = 6


def espresso(onset, offset, n):
    """Minimise the function with the given ON-set and OFF-set.

    Parameters
    ----------
    onset / offset:
        Iterables of minterms -- tuples of 0/1 of length ``n``.  The two
        sets must be disjoint; minterms in neither are don't-cares.
    n:
        Number of input variables.

    Returns
    -------
    Cover
        A prime irredundant cover of the ON-set that avoids the OFF-set.
    """
    on_ints = sorted({_to_int(bits, n) for bits in onset})
    off_ints = sorted({_to_int(bits, n) for bits in offset})
    overlap = set(on_ints) & set(off_ints)
    if overlap:
        raise ValueError(
            f"ON-set and OFF-set overlap on {len(overlap)} minterm(s)"
        )
    if not on_ints:
        return Cover(n)

    full_mask = (1 << n) - 1
    on = _MintermSet(on_ints, n)
    off = _MintermSet(off_ints, n)
    cubes = [(m, full_mask) for m in on_ints]

    best = None
    for round_index in range(_MAX_ROUNDS):
        order = _var_order(n, round_index)
        cubes = _expand(cubes, off, order)
        cubes = _remove_covered(cubes)
        cubes = _irredundant(cubes, on)
        cost = _cost(cubes)
        if best is None or cost < best[0]:
            best = (cost, list(cubes))
        else:
            break
        cubes = _reduce(cubes, on)
    cubes = best[1]
    return Cover(n, (Cube.from_masks(value, care, n) for value, care in cubes))


def verify_cover(cover, onset, offset):
    """Check a cover implements the incompletely specified function.

    Returns a list of human-readable problems (empty when correct): ON-set
    minterms left uncovered and OFF-set minterms wrongly covered.
    """
    problems = []
    for bits in onset:
        if not cover.contains_minterm(bits):
            problems.append(f"ON minterm {bits} not covered")
    for bits in offset:
        if cover.contains_minterm(bits):
            problems.append(f"OFF minterm {bits} covered")
    return problems


# -- bit-mask internals ------------------------------------------------------


def _to_int(bits, n):
    if len(bits) != n:
        raise ValueError(f"minterm {bits} does not have {n} bits")
    try:
        value, care = cube_masks(bits)
    except ValueError:  # an entry outside {0, 1, DASH}
        care = None
    if care != (1 << n) - 1:
        raise ValueError(f"minterm {bits} has non-binary entry")
    return value


class _MintermSet:
    """A sorted minterm list as per-variable bit columns.

    ``ones[i]`` has bit ``k`` set when ``minterms[k]`` has variable ``i``
    at 1, ``zeros[i]`` when it has it at 0, and ``all`` has every
    minterm's bit set.
    """

    def __init__(self, minterms, n):
        self.minterms = minterms
        self.all = (1 << len(minterms)) - 1
        # Transpose with zip: row k is minterm k's n bits, variable n-1
        # first (the leading sentinel 1 fixes the width, even at n = 0);
        # reversing each column puts minterm 0 at bit 0.
        rows = [format(m | 1 << n, "b")[1:] for m in minterms]
        self.ones = [
            int("".join(column)[::-1], 2) for column in zip(*rows)
        ][::-1] if minterms else [0] * n
        self.zeros = [self.all & ~column for column in self.ones]

    def inside(self, value, care):
        """Bitset of the minterms inside cube ``(value, care)``."""
        inside = self.all
        while care and inside:
            low = care & -care
            i = low.bit_length() - 1
            inside &= self.ones[i] if value & low else self.zeros[i]
            care ^= low
        return inside


def _var_order(n, round_index):
    """Rotate the expansion order between rounds to escape local minima."""
    order = list(range(n))
    if n:
        shift = round_index % n
        order = order[shift:] + order[:shift]
    return order


def _expand(cubes, off, order):
    """Raise every cube to a prime against the OFF-set.

    Literals are tried in ``order``.  When a literal is tried, the raised
    candidate keeps the literals kept before it and every literal after
    it, so the OFF minterms inside the candidate are ``kept & rest``: the
    AND of the kept literals' columns (grown as literals are kept) with
    a suffix AND over the later literals (computed once per cube).  One
    AND per trial.
    """
    expanded = []
    for value, care in cubes:
        literals = [i for i in order if care >> i & 1]
        columns = [
            off.ones[i] if value >> i & 1 else off.zeros[i] for i in literals
        ]
        after = [off.all] * len(literals)
        for t in range(len(literals) - 1, 0, -1):
            after[t - 1] = after[t] & columns[t]
        kept = off.all
        for i, column, rest in zip(literals, columns, after):
            if kept & rest:
                kept &= column  # raising i would hit the OFF-set
            else:
                care &= ~(1 << i)
        expanded.append((value & care, care))
    return expanded


def _remove_covered(cubes):
    """Drop repeated cubes (keeping the first) and strictly covered ones."""
    unique = list(dict.fromkeys(cubes))
    return [
        (value, care)
        for value, care in unique
        if not any(
            (other_care != care or other_value != value)
            and not other_care & ~care
            and not (other_value ^ value) & other_care
            for other_value, other_care in unique
        )
    ]


def _irredundant(cubes, on):
    """Greedy minimal subset: essentials first, then largest gain.

    ``covered[j]`` is the bitset of ON minterms inside cube ``j``.  Ties
    on gain and size go to the cube the scan-based formulation met first:
    walking the uncovered minterms in the iteration order of a Python
    set of their codes, each minterm's cubes by index.  The set is
    therefore kept, built and filtered exactly as that formulation did.
    """
    covered = [on.inside(value, care) for value, care in cubes]
    once = twice = 0
    for bits in covered:
        twice |= once & bits
        once |= bits
    if once != on.all:
        first = (on.all & ~once & -(on.all & ~once)).bit_length() - 1
        raise AssertionError(
            f"minimizer invariant broken: ON minterm {on.minterms[first]} "
            "uncovered"
        )
    sole = once & ~twice
    chosen = {j for j, bits in enumerate(covered) if bits & sole}
    chosen_bits = 0
    for j in chosen:
        chosen_bits |= covered[j]
    uncovered_bits = on.all & ~chosen_bits
    uncovered = {
        m for k, m in enumerate(on.minterms) if uncovered_bits >> k & 1
    }
    position = {m: k for k, m in enumerate(on.minterms)}
    while uncovered_bits:
        best_key = None
        tied = []
        for j, bits in enumerate(covered):
            gain_bits = bits & uncovered_bits
            if not gain_bits:
                continue
            # Largest gain; ties broken by fewer literals (more dashes).
            key = (_bit_count(gain_bits), -_bit_count(cubes[j][1]))
            if best_key is None or key > best_key:
                best_key, tied = key, [j]
            elif key == best_key:
                tied.append(j)
        best_index = tied[0]
        if len(tied) > 1:
            tied_bits = 0
            for j in tied:
                tied_bits |= covered[j]
            for m in uncovered:
                k = position[m]
                if tied_bits >> k & 1:
                    best_index = next(
                        j for j in tied if covered[j] >> k & 1
                    )
                    break
        chosen.add(best_index)
        value, care = cubes[best_index]
        uncovered = {m for m in uncovered if (m ^ value) & care}
        uncovered_bits &= ~covered[best_index]
    return [cube for index, cube in enumerate(cubes) if index in chosen]


def _reduce(cubes, on):
    """Shrink each cube onto the ON minterms it alone is responsible for.

    Processed sequentially so the cover property is preserved: a cube only
    sheds minterms that some *current* other cube still covers.
    """
    current = list(cubes)
    covered = [on.inside(value, care) for value, care in current]
    # later[i]: union of the cubes after i, none of them reduced yet.
    later = [0] * (len(current) + 1)
    for index in range(len(current) - 1, -1, -1):
        later[index] = later[index + 1] | covered[index]
    earlier = 0
    for index in range(len(current)):
        mine = covered[index] & ~(earlier | later[index + 1])
        if mine:
            current[index] = _supercube(mine, on)
            covered[index] = on.inside(*current[index])
        earlier |= covered[index]
    return current


def _supercube(members, on):
    """Smallest cube containing the ON minterms in bitset ``members``."""
    value = care = 0
    for i, ones in enumerate(on.ones):
        if not members & ~ones:
            value |= 1 << i
            care |= 1 << i
        elif not members & ones:
            care |= 1 << i
    return (value, care)


def _cost(cubes):
    """(total literals, cube count): the comparison key between rounds."""
    literals = sum(_bit_count(care) for _value, care in cubes)
    return (literals, len(cubes))


def _bit_count(x):
    return bin(x).count("1")
