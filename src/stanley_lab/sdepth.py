"""Exact Stanley depth via interval partitions of the characteristic poset.

The poset of a presentation J/I consists of the multidegrees a <= g with
x^a in J \\ I, where g is the componentwise maximum over the minimal
generators of both ideals.  Interval partitions of this finite poset
correspond to Stanley decompositions, and the best achievable value
min over interval tops b of rho(b) = #{j : b_j = g_j} equals the Stanley
depth.  Variables absent from all generators never leave the floor of the
box and count toward every rho, which is exactly the additive free-variable
behavior.

The poset is convex: a <= c <= b with x^a in J and x^b not in I puts x^c in
J \\ I.  So the interval [a, b] of two elements is up[a] & down[b], the
elements reached from a by unit steps up and from b by unit steps down.
These bitset closures are built once per poset, on their first read, and a
row of the candidate table is built from them only when the search first
forces its bottom.

The search is a deterministic exact-cover backtracking: the lexicographically
(degree-first) least uncovered element must be the bottom of its interval, so
only tops are branched on.  The walk is one loop over an explicit path of
open nodes, not a recursion, so a walk as deep as the poset is large runs
without touching interpreter state such as the recursion limit.  At a target
at or below the least rank the walk provably takes the singleton partition
of Herzog-Vladoiu-Zheng, one node per element, so the search returns it
without walking or reading a closure.  Budgets are node counts; exceeding one
is a distinct tri-state outcome, never a silent failure.  ``sdepth_exact``
searches the Hilbert-depth cap first: a partition found there is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, compress, product as lattice_product
from operator import eq, itemgetter
from typing import NamedTuple

from .errors import BudgetExceededError, InputError, UndefinedValueError
from .monomials import BOX_POINT_CAP, Box, Multidegree
from .stanley import (
    ModulePresentation,
    StanleyDecomposition,
    StanleySpace,
    generator_corner,
    module_basis,
    shared_z,
)

DEFAULT_BUDGET = 1_000_000

_MEMO_CAP = 2_000_000

# Most closure bits a poset may take: m elements need m^2 bits for ``up``
# (and as many for ``down``), so m is at most 32,768.
POSET_BIT_CAP = 64 * BOX_POINT_CAP


@dataclass(frozen=True)
class CharacteristicPoset:
    """Elements in degree-lexicographic order, with their total ``degrees`` and
    ``ranks`` (rho); bit c of ``up[i]`` (``down[i]``) is set iff element c >= (<=) i.
    The closures are built from ``box``, the box [0, g], on first read."""

    n: int
    g: Multidegree
    elements: tuple[Multidegree, ...]
    degrees: tuple[int, ...]
    ranks: tuple[int, ...]
    box: Box = field(compare=False, repr=False)
    up = cached_property(lambda self: self._closures[0])
    down = cached_property(lambda self: self._closures[1])

    @cached_property
    def _closures(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``(up, down)``, both built by the first read of either."""
        box, elements = self.box, self.elements
        where = {box.index(e): i for i, e in enumerate(elements)}
        # steps[i]: the elements e_i + e_j, one box stride above e_i
        steps = [
            [where[b + s] for x, c, s in zip(e, box.corner, box.strides) if x < c and b + s in where]
            for e, b in zip(elements, where)
        ]
        up = [1 << i for i in range(len(elements))]
        down = up[:]
        for i in reversed(range(len(elements))):  # e + e_j comes after e in grlex order
            for k in steps[i]:
                up[i] |= up[k]
        for i, row in enumerate(steps):
            for k in row:
                down[k] |= down[i]
        return tuple(up), tuple(down)

    def rho(self, b: Multidegree) -> int:
        """Count of coordinates pinned at the box corner (free ones included)."""
        return sum(1 for x, y in zip(b, self.g) if x == y)


def build_poset(module: ModulePresentation) -> CharacteristicPoset:
    """The characteristic poset, read from one box bitset.  A zero module, or
    one whose poset would exceed ``POSET_BIT_CAP`` closure bits, raises here."""
    g = generator_corner(module)
    box = Box(g)
    basis = module_basis(box, module)
    if not basis:
        raise UndefinedValueError("the zero module has no Stanley depth")
    m = basis.bit_count()
    if m * m > POSET_BIT_CAP:  # fail before any closure is built
        raise BudgetExceededError(f"poset of {m} elements needs over {POSET_BIT_CAP} closure bits")
    # points come in lexicographic order and the sort by degree is stable: grlex order
    points = list(box.points(basis))
    degrees, elements = zip(*sorted(zip(map(sum, points), points), key=itemgetter(0)))
    ranks = tuple(sum(map(eq, e, g)) for e in elements)
    return CharacteristicPoset(module.n, g, elements, degrees, ranks, box)


# A dataclass, not a NamedTuple: perfbench/test_perfbench.py rebuilds it with dataclasses.replace.
@dataclass(frozen=True)
class IntervalPartition:
    intervals: tuple[tuple[Multidegree, Multidegree], ...]

    def value(self, poset: CharacteristicPoset) -> int:
        return min(poset.rho(b) for _, b in self.intervals)


class SearchOutcome(NamedTuple):
    status: str  # "found" | "none" | "exceeded"
    partition: IntervalPartition | None
    nodes: int


def _row(poset: CharacteristicPoset, tall: int, i: int) -> list[tuple]:
    """(top, mask) for each interval [elements[i], top] with top in the bitset
    ``tall``, sorted by top.  Bit c of the mask is set iff element c lies in
    the interval: the mask is up[i] & down[top] (see the module docstring)."""
    above, elements, down = poset.up[i], poset.elements, poset.down
    bits, row = above & tall, []
    while bits:
        j = (bits & -bits).bit_length() - 1
        row.append((elements[j], above & down[j]))
        bits &= bits - 1
    return sorted(row)


def search_partition(
    poset: CharacteristicPoset, target: int, budget: int = DEFAULT_BUDGET
) -> SearchOutcome:
    """Find an interval partition with every top's rho >= target, if one exists.

    "none" is a proof of nonexistence; "exceeded" makes no claim.  The search
    is deterministic: bottoms are forced (least uncovered element in the
    degree-lexicographic order), candidate tops are tried in lexicographic
    order, and failed cover states are memoized, at most ``POSET_BIT_CAP``
    bits of them.
    """
    if not 0 <= target <= poset.n:
        raise InputError(f"target {target} outside 0..{poset.n}")
    elems = poset.elements
    m = len(elems)
    if target <= min(poset.ranks):
        # the singleton partition, as the walk finds it: the least top above a
        # forced bottom e is e itself and [e, e] always fits, one node each
        if m > budget:
            return SearchOutcome("exceeded", None, max(budget + 1, 1))
        return SearchOutcome("found", IntervalPartition(tuple((e, e) for e in elems)), m)
    tall = sum(1 << j for j, r in enumerate(poset.ranks) if r >= target)
    # c is covered by some interval iff [c, b] is one for some tall b >= c
    if any(not above & tall for above in poset.up):
        return SearchOutcome("none", None, 0)
    memo_cap = min(_MEMO_CAP, POSET_BIT_CAP // m)  # failed states of m bits each
    rows: list = [None] * m  # row i is built when the walk first forces bottom i
    failed: set[int] = set()
    # the open nodes above the current one: (uncovered, bottom, row iterator, top)
    path: list[tuple] = []
    uncovered, nodes = (1 << m) - 1, 0
    while uncovered:  # open a node at the uncovered set
        nodes += 1
        if nodes > budget:
            return SearchOutcome("exceeded", None, nodes)
        i = (uncovered & -uncovered).bit_length() - 1
        if rows[i] is None:
            rows[i] = _row(poset, tall, i)
        tops = iter(rows[i])
        while True:  # take the next fitting top, backtracking while a node has none left
            for top, mask in tops:
                # mask lies inside uncovered, so ^ removes it; failed states are not entered
                if mask & uncovered == mask and uncovered ^ mask not in failed:
                    path.append((uncovered, i, tops, top))
                    uncovered ^= mask
                    break
            else:
                if len(failed) < memo_cap:
                    failed.add(uncovered)
                if not path:
                    return SearchOutcome("none", None, nodes)
                uncovered, i, tops, _ = path.pop()
                continue
            break
    chosen = tuple((elems[i], top) for _, i, _, top in path)
    return SearchOutcome("found", IntervalPartition(chosen), nodes)


def hilbert_cap(poset: CharacteristicPoset) -> tuple[int, tuple[int, int, int] | None]:
    """The Hilbert depth, an upper bound on sdepth, and a witness (d, degree,
    coefficient) that sdepth < d one above it: a negative coefficient of
    (1-t)^d H_M(t) (Uliczka; Bruns-Krattenthaler-Uliczka); None at the largest
    rank.  H_M = P_least/(1-t)^least + ..., P_r the degree counts of rank r; past
    degree max |a| + d only terms of rank >= d, all nonnegative, remain."""
    least, most, top = min(poset.ranks), max(poset.ranks), poset.degrees[-1]
    rows = [[0] * (top + most + 1) for _ in range(least, most + 1)]
    for s, r in zip(poset.degrees, poset.ranks):
        rows[r - least][s] += 1
    coeffs = rows.pop()
    while rows:  # (1-t)^least H_M by Horner's rule; dividing by 1 - t is a prefix sum
        coeffs = [x + y for x, y in zip(rows.pop(), accumulate(coeffs))]
    for d in range(least + 1, most + 1):  # no coefficient is negative at d - 1
        coeffs = [x - y for x, y in zip(coeffs, [0, *coeffs])]
        j = next((j for j, x in enumerate(coeffs) if x < 0), None)
        if j is not None:
            return d - 1, (d, j, coeffs[j])
    return most, None


# A dataclass, not a NamedTuple: perfbench/test_perfbench.py rebuilds it with dataclasses.replace.
@dataclass(frozen=True)
class SdepthResult:
    value: int
    exact: bool
    partition: IntervalPartition
    poset: CharacteristicPoset
    upper: int  # the Hilbert-depth cap
    witness: tuple[int, int, int] | None  # of the cap, from hilbert_cap


def sdepth_exact(
    module: ModulePresentation, budget: int = DEFAULT_BUDGET
) -> SdepthResult:
    """Largest achievable partition value (= Stanley depth when exact).

    Searches the Hilbert-depth cap, then targets upward below it from the
    singleton partition.  Exact when the value meets the cap or a search
    proves the next target "none"; else a certified lower bound."""
    poset = build_poset(module)
    upper, witness = hilbert_cap(poset)
    best, value = IntervalPartition(tuple((e, e) for e in poset.elements)), min(poset.ranks)
    at_cap = search_partition(poset, upper, budget) if value < upper else None
    if at_cap and at_cap.status == "found":
        best, value = at_cap.partition, upper
    while value < upper - 1:
        outcome = search_partition(poset, value + 1, budget)
        if outcome.status != "found":
            return SdepthResult(value, outcome.status == "none", best, poset, upper, witness)
        best, value = outcome.partition, outcome.partition.value(poset)
    return SdepthResult(value, value == upper or at_cap.status == "none", best, poset, upper, witness)


def partition_to_decomposition(
    poset: CharacteristicPoset,
    partition: IntervalPartition,
    module: ModulePresentation,
) -> StanleyDecomposition:
    """Turn an interval partition into a Stanley decomposition of the module.

    An interval [a, b] contributes the spaces (u, Z) with Z the coordinates
    pinned at the box corner by b, and u running over the off-Z grid of the
    interval: the monomials above the interval split exactly that way.
    """
    g, variables, spaces = poset.g, range(1, poset.n + 1), []
    for a, b in partition.intervals:
        zvars = shared_z(frozenset(compress(variables, map(eq, b, g))))
        if a == b:  # a singleton interval is one space
            spaces.append(StanleySpace(a, zvars))
            continue
        ranges = (range(x, x + 1 if j in zvars else y + 1) for j, x, y in zip(variables, a, b))
        spaces.extend(StanleySpace(u, zvars) for u in lattice_product(*ranges))
    return StanleyDecomposition(module, tuple(spaces))
