"""Exact depth via multigraded Koszul homology.

depth(M) = n - max{ i : H_i(x_1..x_n; M) != 0 }.  For M = J/I with monomial
ideals the Koszul complex splits by multidegree, and all homology lies in the
box bounded by the generator exponents: above it some variable acts
bijectively on M and contracts the complex.

In degree a the chains are the e_F for F in the family {F subset of [n] :
x^(a - e_F) in J minus I}, and x_j maps x^(a - e_F) to x^(a - e_(F - {j})),
so the boundary, e_F to signed e_(F - {j}), depends only on the family too
(the upper Koszul simplicial complex, Miller-Sturmfels Thm 1.34).  The scan
shifts the basis bitset of the box (``monomials.Box``) to S_F = {a : a - e_F
in the basis} one axis at a time, splits the box by each S_F into classes of
equal family, and ranks each class once, fraction-free over the integers, so
the answer is the characteristic-zero depth.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Iterator, NamedTuple

from .errors import BudgetExceededError, UndefinedValueError
from .monomials import Box, Multidegree
from .stanley import ModulePresentation, module_basis
from .stanley import generator_corner as scan_corner  # homology lives inside this box

# Steps one scan may take: box points times the 2^n shifted sets of the class
# split, plus rows x columns x pivots of the largest family's boundary matrices.
# S/I^6 of path:7 takes about 1.1e8 steps; S/(x_1...x_12) would take 1.6e9.
KOSZUL_STEP_CAP = 1 << 28


def rank_int(rows: list[list[int]]) -> int:
    """Rank of an integer matrix by Bareiss fraction-free elimination."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pivot_val = m[rank][col]
        for r in range(rank + 1, nrows):
            factor = m[r][col]
            row = m[r]
            top = m[rank]
            for c in range(col + 1, ncols):
                row[c] = (row[c] * pivot_val - factor * top[c]) // prev
            row[col] = 0
        prev = pivot_val
        rank += 1
    return rank


class HomologyProfile(NamedTuple):
    """Koszul homology ranks per index: ``ranks`` sums them over the scan
    ``box``, which holds all homology, and ``classes`` holds each class of
    box points with nonzero homology as (points bitset, ranks).
    """

    n: int
    ranks: tuple[int, ...]
    box: Box
    classes: tuple[tuple[int, tuple[int, ...]], ...]

    @property
    def depth(self) -> int:
        top = max(i for i, r in enumerate(self.ranks) if r > 0)
        return self.n - top

    @property
    def degrees(self) -> dict[Multidegree, tuple[int, ...]]:
        """Each scanned multidegree with nonzero homology mapped to its ranks,
        in lexicographic order, decoded from ``classes`` on each read."""
        table = []
        for points, homology in self.classes:
            while points:  # classes are sparse: visit their bits, not the box
                table.append((self.box.lowest(points), homology))
                points &= points - 1
        return dict(sorted(table))


def _shifted(box: Box, bits: int, start: int, subset: int) -> Iterator[tuple[int, int]]:
    """(F, bits moved up by e_F) for F = ``subset`` and its supersets adding
    axes >= start, depth first, so at most n + 1 sets are alive at once.  An
    empty set ends its branch: its supersets' sets are empty too."""
    yield subset, bits
    for j in range(start, len(box.corner)):
        moved = (bits << box.strides[j]) & box.masks[j]
        if moved:
            yield from _shifted(box, moved, j + 1, subset | 1 << j)


@lru_cache(maxsize=4096)
def _family_ranks(n: int, family: int) -> tuple[int, ...]:
    """Koszul homology ranks on the chains e_F, F a bitmask with bit F of
    ``family`` set; e_F goes to (-1)^pos e_(F - {j}) for the pos-th j in F.
    A pure function, memoized: few families recur across scans."""
    members = [f for f in range(1 << n) if family >> f & 1]
    chains = [[f for f in members if f.bit_count() == s] for s in range(n + 1)]
    bounds = [0] * (n + 2)
    for size in range(1, n + 1):
        sources, targets = chains[size], chains[size - 1]
        if sources and targets:
            row_index = {t: r for r, t in enumerate(targets)}
            matrix = [[0] * len(sources) for _ in targets]
            for c, subset in enumerate(sources):
                for j in range(n):
                    # None unless j is in the subset: targets are one smaller
                    r = row_index.get(subset & ~(1 << j))
                    if r is not None:
                        matrix[r][c] = (-1) ** (subset & ((1 << j) - 1)).bit_count()
            bounds[size] = rank_int(matrix)
    return tuple(len(chains[s]) - bounds[s] - bounds[s + 1] for s in range(n + 1))


def homology_profile(module: ModulePresentation) -> HomologyProfile:
    """Koszul homology ranks summed over the scan box, with the classes that
    carry them.  A scan over ``KOSZUL_STEP_CAP`` steps raises
    BudgetExceededError before it starts."""
    n = module.n
    box = Box(scan_corner(module))
    basis = module_basis(box, module)
    if not basis:
        raise UndefinedValueError("the zero module has no depth")
    steps = box.size << n
    if steps <= KOSZUL_STEP_CAP:
        # a family holds only sets F with S_F nonempty, so from size s to s - 1
        # its boundary matrix is at most sizes[s] x sizes[s - 1]
        sizes = Counter(subset.bit_count() for subset, _ in _shifted(box, basis, 0, 0))
        steps += sum(
            sizes[s] * sizes[s - 1] * min(sizes[s], sizes[s - 1]) for s in range(1, n + 1)
        )
    if steps > KOSZUL_STEP_CAP:  # fail before the split or any rank
        raise BudgetExceededError(
            f"Koszul scan over {n} variables and {box.size} box points needs over "
            f"{KOSZUL_STEP_CAP} steps"
        )
    # (points, family) pairs: bit F of the family is set iff a - e_F is in
    # the basis, for every point a of the class
    classes = [((1 << box.size) - 1, 0)]
    for subset, shifted in _shifted(box, basis, 0, 0):
        split = []
        for points, family in classes:
            inside = points & shifted
            if inside:
                split.append((inside, family | 1 << subset))
            if inside != points:
                split.append((points ^ inside, family))
        classes = split
    ranks = [0] * (n + 1)
    nonzero = []
    for points, family in classes:
        homology = _family_ranks(n, family)
        if any(homology):
            ranks = [r + points.bit_count() * h for r, h in zip(ranks, homology)]
            nonzero.append((points, homology))
    return HomologyProfile(n, tuple(ranks), box, tuple(nonzero))


def depth_exact(module: ModulePresentation) -> int:
    return homology_profile(module).depth

