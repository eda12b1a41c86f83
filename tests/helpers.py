"""Seeded random instances, the ideal-identity fuzz, the tree-certificate
sweep, the certify-trees request set, polarization, graph diameters and the
ascending-scan Stanley depth, used only by the tests."""

import random
from typing import Sequence

from stanley_lab import (
    Graph,
    ModulePresentation,
    MonomialIdeal,
    StanleyDecomposition,
    build_poset,
    decompose_power_general,
    decompose_power_tree,
    decompose_s_mod_power,
    enumerate_trees,
    verify,
)
from stanley_lab import sdepth
from stanley_lab.monomials import Multidegree, members_in_box, support
from stanley_lab.sdepth import DEFAULT_BUDGET
from stanley_lab.stanley import generator_corner


def _random_disjoint_pair(
    rng: random.Random, nmax: int = 6, max_gens: int = 4, max_exp: int = 2
) -> tuple[MonomialIdeal, MonomialIdeal]:
    n = rng.randint(2, nmax)
    split = rng.randint(1, n - 1)
    left_vars = range(0, split)
    right_vars = range(split, n)

    def make(varrange) -> MonomialIdeal:
        gens = []
        for _ in range(rng.randint(1, max_gens)):
            g = [0] * n
            for j in varrange:
                g[j] = rng.randint(0, max_exp)
            if any(g):
                gens.append(tuple(g))
        return MonomialIdeal.make(n, gens)

    return make(left_vars), make(right_vars)


def identity_fuzz(pairs: int = 200, seed: int = 0, kmax: int = 3) -> list[dict]:
    """Exact generating-set identities for sums of mixed powers of
    disjoint-support ideals: the colon-free rewriting of the layer kernel,
    directness of the splitting, and the filtration intersection."""
    rng = random.Random(seed)
    rows = []
    for index in range(pairs):
        left, right = _random_disjoint_pair(rng)
        if left.is_zero() or right.is_zero():
            left = left + MonomialIdeal.make(left.n, [(1,) + (0,) * (left.n - 1)])
            right = right + MonomialIdeal.make(
                right.n, [(0,) * (right.n - 1) + (1,)]
            )
        total = left + right
        ok = True
        for k in range(kmax + 1):
            power_next = total ** (k + 1)
            mixed = [(left**s) * (right ** (k - s)) for s in range(k + 1)]
            for s in range(k + 1):
                t = k - s
                kernel = (left ** (s + 1)) * (right**t) + (left**s) * (
                    right ** (t + 1)
                )
                if kernel != mixed[s].intersect(power_next):
                    ok = False
            for s in range(k + 1):
                for l in range(k + 1):
                    if s == l:
                        continue
                    meet = mixed[s].intersect(mixed[l])
                    if not meet.subset_of(power_next):
                        ok = False
            for l in range(1, k + 1):
                partial = mixed[l - 1]
                for t in range(l - 1):
                    partial = partial + mixed[t]
                expected = (left**l) * (right ** (k - l + 1))
                if mixed[l].intersect(partial) != expected:
                    ok = False
        rows.append({"pair": index, "n": left.n, "ok": ok})
    return rows


def basis_in_box(module: ModulePresentation, corner: Sequence[int]) -> set[Multidegree]:
    """All basis multidegrees a <= corner of the module."""
    return members_in_box(module.upper, corner) - members_in_box(module.lower, corner)


def ascending_sdepth(module: ModulePresentation, budget: int = DEFAULT_BUDGET) -> tuple[int, bool]:
    """(value, exact) by the ascending scan that ``sdepth_exact`` ran before it
    searched the Hilbert-depth cap first: targets upward from the singleton
    partition, exact when the first target not found is proven "none".  It
    searches through ``sdepth.search_partition``, so a patched search sees
    every call."""
    poset = build_poset(module)
    value = min(poset.ranks)
    while value < max(poset.ranks):
        outcome = sdepth.search_partition(poset, value + 1, budget)
        if outcome.status != "found":
            return value, outcome.status == "none"
        value = outcome.partition.value(poset)
    return value, True


def reference_sdepth(dec: StanleyDecomposition) -> int | None:
    """``StanleyDecomposition.sdepth`` by its first definition: the least
    space dimension, None for the empty decomposition."""
    return min((len(s.Z) for s in dec.spaces), default=None)


def reference_variables(dec: StanleyDecomposition) -> frozenset[int]:
    """``StanleyDecomposition.variables`` by its first definition: the union
    over the spaces of the shift's support and the variables off Z."""
    every = frozenset(range(1, dec.module.n + 1))
    return frozenset().union(*(support(s.u) | (every - s.Z) for s in dec.spaces))


def polarize(module: ModulePresentation) -> ModulePresentation:
    """x_i^e becomes x_(i,1)...x_(i,e) in both ideals, with c_i new variables
    for x_i up to the generator corner c, and one where c_i = 0.  Depth and
    Stanley depth both grow by exactly N - n for N new variables."""
    widths = [max(c, 1) for c in generator_corner(module)]
    N = sum(widths)

    def polar(ideal: MonomialIdeal) -> MonomialIdeal:
        return MonomialIdeal.make(N, [
            [bit for e, w in zip(g, widths) for bit in [1] * e + [0] * (w - e)]
            for g in ideal.gens
        ])

    return ModulePresentation(N, polar(module.lower), polar(module.upper))


def largest_diameter(graph: Graph) -> int:
    """The longest distance between two vertices of one component."""
    adj = graph.adjacency()
    longest = 0
    for root in graph.vertices:
        distance = {root: 0}
        queue = [root]
        for u in queue:  # the list is the queue: it grows while read
            for w in adj[u]:
                if w not in distance:
                    distance[w] = distance[u] + 1
                    queue.append(w)
        longest = max(longest, *distance.values())
    return longest


def prufer_code(n: int, edges: Sequence[tuple[int, int]]) -> tuple[int, ...]:
    """The Pruefer sequence of a tree on 1..n: n - 2 times, the least leaf
    is removed and its neighbor recorded.  ``others[v]`` is the XOR of v's
    remaining neighbors, so a leaf's is its one neighbor."""
    degree, others = [0] * (n + 1), [0] * (n + 1)
    for i, j in edges:
        degree[i] += 1
        degree[j] += 1
        others[i] ^= j
        others[j] ^= i
    code = []
    for _ in range(n - 2):
        leaf = degree.index(1)
        v = others[leaf]
        degree[leaf], degree[v], others[v] = 0, degree[v] - 1, others[v] ^ leaf
        code.append(v)
    return tuple(code)


def random_presentations(count: int, seed: int = 0) -> list[ModulePresentation]:
    """Seeded nonzero random presentations lower <= upper for coherence checks."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, 4)
        upper_gens = []
        for _ in range(rng.randint(1, 3)):
            g = tuple(rng.randint(0, 2) for _ in range(n))
            upper_gens.append(g)
        upper = MonomialIdeal.make(n, upper_gens)
        if upper.is_zero():
            continue
        extra_gens = []
        for _ in range(rng.randint(1, 2)):
            g = tuple(rng.randint(0, 2) for _ in range(n))
            if any(g):
                extra_gens.append(g)
        if not extra_gens:
            continue
        lower = upper * MonomialIdeal.make(n, extra_gens)
        module = ModulePresentation.make(n, lower, upper)
        if not module.is_zero():
            out.append(module)
    return out


def sweep_tree_certificates(
    nmax: int = 6, ks: Sequence[int] = (1, 2), budget: int = DEFAULT_BUDGET
) -> list[dict]:
    """Tree power certificates verify with sdepth >= 2, trees up to nmax vertices."""
    rows = []
    for n in range(2, nmax + 1):
        for tree in enumerate_trees(n):
            for k in ks:
                dec = decompose_power_tree(tree, k, budget)
                report = verify(dec)
                rows.append(
                    {
                        "graph": tree.to_json(),
                        "k": k,
                        "valid": report.valid,
                        "sdepth": report.sdepth,
                        "spaces": len(dec.spaces),
                        "ok": report.valid and report.sdepth >= 2,
                    }
                )
    return rows


# The three 6-vertex graphs that perfbench's certify-trees workload draws from
# its pool at seed 0.
CERTIFY_SEED0_GRAPHS = (
    ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (5, 6)),
    ((1, 4), (1, 5), (2, 3), (4, 6), (5, 6)),
    ((1, 5), (1, 6), (2, 3), (2, 4), (3, 4), (5, 6)),
)


def certify_trees_requests() -> list[tuple]:
    """(generator, graph, k) of each certificate request of one seed-0
    certify-trees pass, in its order: every tree on 2..6 vertices at
    k = 1, 2, 3, then I^2, S/I^2 and S/I^3 of each seed-0 graph."""
    requests = [
        (decompose_power_tree, tree, k)
        for n in range(2, 7)
        for tree in enumerate_trees(n)
        for k in (1, 2, 3)
    ]
    for edges in CERTIFY_SEED0_GRAPHS:
        graph = Graph.make(6, edges)
        requests += [
            (decompose_power_general, graph, 2),
            (decompose_s_mod_power, graph, 2),
            (decompose_s_mod_power, graph, 3),
        ]
    return requests
