"""Exact depth via multigraded Koszul homology, plus the large-power shortcut.

depth(M) = n - max{ i : H_i(x_1..x_n; M) != 0 }.  For M = J/I with monomial
ideals the Koszul complex splits by multidegree, each graded piece is a small
integer matrix complex, and all homology is supported inside the box bounded
by the generator exponents: above the box some variable acts bijectively on
the module and contracts the complex.  Ranks are computed fraction-free over
the integers, so the answer is the characteristic-zero depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import InputError, UndefinedValueError
from .graphs import Graph
from .monomials import Multidegree, as_degree, iter_box
from .stanley import ModulePresentation, basis_in_box
from .stanley import generator_corner as scan_corner  # homology lives inside this box


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


@dataclass(frozen=True)
class HomologyProfile:
    """Total Koszul homology rank per index, summed over the scan box."""

    n: int
    ranks: tuple[int, ...]

    @property
    def depth(self) -> int:
        top = max(i for i, r in enumerate(self.ranks) if r > 0)
        return self.n - top


def _chains(
    basis: set[Multidegree], a: Multidegree, size: int, n: int
) -> list[tuple[int, ...]]:
    out = []
    for subset in combinations(range(n), size):
        shifted = list(a)
        ok = True
        for j in subset:
            shifted[j] -= 1
            if shifted[j] < 0:
                ok = False
                break
        if ok and tuple(shifted) in basis:
            out.append(subset)
    return out


def _boundary_rank(
    basis: set[Multidegree],
    a: Multidegree,
    sources: list[tuple[int, ...]],
    targets: list[tuple[int, ...]],
) -> int:
    if not sources or not targets:
        return 0
    row_index = {t: r for r, t in enumerate(targets)}
    matrix = [[0] * len(sources) for _ in targets]
    for c, subset in enumerate(sources):
        base = list(a)
        for j in subset:
            base[j] -= 1
        for pos, j in enumerate(subset):
            reduced = subset[:pos] + subset[pos + 1 :]
            image = list(base)
            image[j] += 1
            if tuple(image) in basis:
                matrix[row_index[reduced]][c] = -1 if pos % 2 else 1
    return rank_int(matrix)


def koszul_rank(module: ModulePresentation, a: Multidegree, i: int) -> int:
    """Rank of the i-th Koszul homology of the module in multidegree a.

    Zero outside 0 <= i <= n, and zero whenever a leaves the scan box (there
    multiplication by the overflowing variable is bijective on the module and
    the complex is contractible).
    """
    n = module.n
    deg = as_degree(a, n)
    if i < 0 or i > n:
        return 0
    corner = scan_corner(module)
    if any(x > y for x, y in zip(deg, corner)):
        return 0
    basis = basis_in_box(module, corner)
    mid = _chains(basis, deg, i, n)
    below = _chains(basis, deg, i - 1, n) if i >= 1 else []
    above = _chains(basis, deg, i + 1, n) if i + 1 <= n else []
    rank_out = _boundary_rank(basis, deg, mid, below)
    rank_in = _boundary_rank(basis, deg, above, mid)
    return len(mid) - rank_out - rank_in


def homology_profile(module: ModulePresentation) -> HomologyProfile:
    """Sum the per-multidegree homology ranks over the whole scan box."""
    if module.is_zero():
        raise UndefinedValueError("the zero module has no depth")
    n = module.n
    corner = scan_corner(module)
    basis = basis_in_box(module, corner)
    totals = [0] * (n + 1)
    for a in iter_box(corner):
        chains = [_chains(basis, a, size, n) for size in range(n + 1)]
        bounds = [0] * (n + 2)
        for size in range(1, n + 1):
            bounds[size] = _boundary_rank(basis, a, chains[size], chains[size - 1])
        for size in range(n + 1):
            totals[size] += len(chains[size]) - bounds[size] - bounds[size + 1]
    return HomologyProfile(n, tuple(totals))


def depth_exact(module: ModulePresentation) -> int:
    return homology_profile(module).depth


def depth_by_trung(graph: Graph, k: int) -> int | None:
    """Closed form for large powers: depth(S/I^k) equals the bipartite
    component count once k >= |V| - 1; below that threshold no claim is made."""
    if k < 1:
        raise InputError(f"power {k} must be positive")
    if k >= graph.num_vertices - 1:
        return graph.bipartite_component_count()
    return None
