"""Exact Stanley depth via interval partitions of the characteristic poset.

The poset of a presentation J/I consists of the multidegrees a <= g with
x^a in J \\ I, where g is the componentwise maximum over the minimal
generators of both ideals.  Interval partitions of this finite poset
correspond to Stanley decompositions, and the best achievable value
min over interval tops b of rho(b) = #{j : b_j = g_j} equals the Stanley
depth.  Variables absent from all generators never leave the floor of the
box and count toward every rho, which is exactly the additive free-variable
behavior.

The search is a deterministic exact-cover backtracking: the lexicographically
(degree-first) least uncovered element must be the bottom of its interval, so
only tops are branched on.  Budgets are node counts; exceeding one is a
distinct tri-state outcome, never a silent failure.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import product as lattice_product

from .errors import BudgetExceededError, InputError, UndefinedValueError
from .monomials import Multidegree
from .stanley import (
    ModulePresentation,
    StanleyDecomposition,
    StanleySpace,
    basis_in_box,
    generator_corner,
)

DEFAULT_BUDGET = 1_000_000

_MEMO_CAP = 2_000_000


def _grlex(a: Multidegree) -> tuple:
    return (sum(a), a)


@dataclass(frozen=True)
class CharacteristicPoset:
    n: int
    g: Multidegree
    free_vars: frozenset[int]
    elements: tuple[Multidegree, ...]

    def rho(self, b: Multidegree) -> int:
        """Count of coordinates pinned at the box corner (free ones included)."""
        return sum(1 for x, y in zip(b, self.g) if x == y)


def build_poset(module: ModulePresentation) -> CharacteristicPoset:
    if module.is_zero():
        raise UndefinedValueError("the zero module has no Stanley depth")
    g = generator_corner(module)
    free = frozenset(j + 1 for j, e in enumerate(g) if e == 0)
    elements = tuple(sorted(basis_in_box(module, g), key=_grlex))
    return CharacteristicPoset(module.n, g, free, elements)


@dataclass(frozen=True)
class IntervalPartition:
    intervals: tuple[tuple[Multidegree, Multidegree], ...]

    def value(self, poset: CharacteristicPoset) -> int:
        return min(poset.rho(b) for _, b in self.intervals)


@dataclass(frozen=True)
class SearchOutcome:
    status: str  # "found" | "none" | "exceeded"
    partition: IntervalPartition | None
    nodes: int


def search_partition(
    poset: CharacteristicPoset, target: int, budget: int = DEFAULT_BUDGET
) -> SearchOutcome:
    """Find an interval partition with every top's rho >= target, if one exists.

    "none" is a proof of nonexistence; "exceeded" makes no claim.  The search
    is deterministic: bottoms are forced (least uncovered element in the
    degree-lexicographic order), candidate tops are tried in lexicographic
    order, and failed cover states are memoized.
    """
    if not 0 <= target <= poset.n:
        raise InputError(f"target {target} outside 0..{poset.n}")
    elems = poset.elements
    m = len(elems)
    index = {e: i for i, e in enumerate(elems)}
    rho = [poset.rho(e) for e in elems]

    candidates: list[list[tuple[Multidegree, int]]] = []
    for i, bottom in enumerate(elems):
        row = []
        for j in range(i, m):
            top = elems[j]
            if rho[j] < target or any(x > y for x, y in zip(bottom, top)):
                continue
            mask = 0
            inside = True
            for c in lattice_product(
                *(range(x, y + 1) for x, y in zip(bottom, top))
            ):
                ci = index.get(c)
                if ci is None:
                    inside = False
                    break
                mask |= 1 << ci
            if inside:
                row.append((top, mask))
        row.sort(key=lambda t: t[0])
        candidates.append(row)

    full = (1 << m) - 1
    coverable = 0
    for row in candidates:
        for _, mask in row:
            coverable |= mask
    if coverable != full:
        return SearchOutcome("none", None, 0)

    failed: set[int] = set()
    chosen: list[tuple[Multidegree, Multidegree]] = []
    nodes = 0

    def walk(uncovered: int) -> bool:
        nonlocal nodes
        if uncovered == 0:
            return True
        if uncovered in failed:
            return False
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(f"search budget {budget} exhausted")
        i = (uncovered & -uncovered).bit_length() - 1
        for top, mask in candidates[i]:
            if mask & uncovered != mask:
                continue
            chosen.append((elems[i], top))
            if walk(uncovered & ~mask):
                return True
            chosen.pop()
        if len(failed) < _MEMO_CAP:
            failed.add(uncovered)
        return False

    sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * m + 1000))
    try:
        found = walk(full)
    except BudgetExceededError:
        return SearchOutcome("exceeded", None, nodes)
    if found:
        return SearchOutcome("found", IntervalPartition(tuple(chosen)), nodes)
    return SearchOutcome("none", None, nodes)


@dataclass(frozen=True)
class SdepthResult:
    value: int
    exact: bool
    partition: IntervalPartition
    poset: CharacteristicPoset


def sdepth_exact(
    module: ModulePresentation, budget: int = DEFAULT_BUDGET
) -> SdepthResult:
    """Largest achievable partition value (= Stanley depth when exact).

    Scans targets upward from the trivial singleton partition.  If the first
    failing target is proven unsatisfiable within budget the value is exact;
    a truncated search downgrades the result to a certified lower bound.
    """
    poset = build_poset(module)
    singles = IntervalPartition(tuple((e, e) for e in poset.elements))
    best = singles
    best_value = singles.value(poset)
    rho_max = max(poset.rho(e) for e in poset.elements)
    exact = True
    d = best_value + 1
    while d <= rho_max:
        outcome = search_partition(poset, d, budget)
        if outcome.status == "found":
            best = outcome.partition
            best_value = best.value(poset)
            d = best_value + 1
        elif outcome.status == "none":
            break
        else:
            exact = False
            break
    return SdepthResult(best_value, exact, best, poset)


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
    spaces = []
    for a, b in partition.intervals:
        zvars = frozenset(
            j + 1 for j in range(poset.n) if b[j] == poset.g[j]
        )
        ranges = [
            range(a[j], a[j] + 1) if j + 1 in zvars else range(a[j], b[j] + 1)
            for j in range(poset.n)
        ]
        for u in lattice_product(*ranges):
            spaces.append(StanleySpace(u, zvars))
    return StanleyDecomposition(module, tuple(spaces))
