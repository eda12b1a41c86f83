"""The depth oracle: exact integer ranks, Koszul homology, the closed form."""

import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, product

import pytest

from stanley_lab import (
    BudgetExceededError,
    InputError,
    MonomialIdeal,
    ModulePresentation,
    UndefinedValueError,
    depth_by_trung,
    depth_exact,
    homology_profile,
    rank_int,
)
from stanley_lab.bounds import module_for
from stanley_lab import depth
from stanley_lab.depth import _family_ranks, scan_corner
from stanley_lab.graphs import enumerate_labeled_graphs, preset
from stanley_lab.monomials import Box, iter_box

from helpers import basis_in_box, random_presentations

XY = MonomialIdeal.make(2, [(1, 1)])
S_MOD_XY = ModulePresentation.quotient_ring(XY)


def rank_fraction(rows):
    """Independent rank computation by Gaussian elimination over Q."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def test_rank_int_against_fraction_elimination():
    rng = random.Random(7)
    for _ in range(120):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        matrix = [
            [rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)
        ]
        assert rank_int(matrix) == rank_fraction(matrix)


def koszul_rank(module, a, i):
    """Rank of H_i in multidegree a, read off the one-pass profile."""
    return homology_profile(module).degrees.get(a, (0,) * (module.n + 1))[i]


def test_koszul_free_module():
    ring = ModulePresentation.quotient_ring(MonomialIdeal.zero(2))
    assert koszul_rank(ring, (0, 0), 0) == 1
    assert koszul_rank(ring, (0, 0), 1) == 0
    assert koszul_rank(ring, (0, 0), 2) == 0


def test_koszul_hand_checked_rank():
    # at (1,1) the chain space is two-dimensional, the target vanishes, and
    # the incoming boundary has rank one
    assert koszul_rank(S_MOD_XY, (1, 1), 1) == 1


def test_koszul_vanishes_outside_scan_box():
    assert koszul_rank(S_MOD_XY, (2, 1), 1) == 0
    assert koszul_rank(S_MOD_XY, (0, 5), 0) == 0


def test_family_ranks_memo_matches_uncached():
    assert _family_ranks.cache_info().maxsize is not None
    for family in range(1 << 8):  # every family of subsets of {1, 2, 3}
        assert _family_ranks(3, family) == _family_ranks.__wrapped__(3, family)


def test_profile_degrees_of_residue_field():
    # H_i(x; K) is the i-th exterior power of K^n: rank one in each squarefree
    # degree with i variables, and nothing else
    assert homology_profile(S_MOD_XY).degrees == {(0, 0): (1, 0, 0), (1, 1): (0, 1, 0)}
    maximal = MonomialIdeal.make(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    field = ModulePresentation.quotient_ring(maximal)
    profile = homology_profile(field)
    assert profile.degrees == {
        a: tuple(int(i == sum(a)) for i in range(4)) for a in product((0, 1), repeat=3)
    }
    assert profile.ranks == (1, 3, 3, 1)


def test_depth_examples():
    assert depth_exact(S_MOD_XY) == 1
    ring = ModulePresentation.quotient_ring(MonomialIdeal.zero(3))
    assert depth_exact(ring) == 3
    c3_square = module_for(preset("cycle:3"), 2, "s-mod-power")
    assert depth_exact(c3_square) == 0


def test_depth_of_zero_module_is_undefined():
    zero = ModulePresentation.make(2, XY, XY)
    with pytest.raises(UndefinedValueError):
        depth_exact(zero)


def test_homology_profile_shape():
    profile = homology_profile(S_MOD_XY)
    assert profile.n == 2
    assert len(profile.ranks) == 3
    assert profile.depth == 1


def test_limit_depth_formula():
    assert depth_by_trung(preset("cycle:3"), 2) == 0
    assert depth_by_trung(preset("path:2"), 1) == 1
    assert depth_by_trung(preset("cycle:4"), 2) is None
    with pytest.raises(InputError):
        depth_by_trung(preset("cycle:3"), 0)


def test_depth_lemma_on_small_sweep():
    # depth(I^k/I^{k+1}) >= min(depth(S/I^{k+1}), depth(S/I^k) + 1)
    for graph in enumerate_labeled_graphs(3):
        if not graph.has_edges():
            continue
        for k in (1, 2):
            layer = module_for(graph, k, "layer")
            if layer.is_zero():
                continue
            lhs = depth_exact(layer)
            rhs = min(
                depth_exact(module_for(graph, k + 1, "s-mod-power")),
                depth_exact(module_for(graph, k, "s-mod-power")) + 1,
            )
            assert lhs >= rhs


def test_bipartite_quotients_have_positive_depth():
    for graph in enumerate_labeled_graphs(4):
        if not graph.has_edges():
            continue
        if graph.bipartite_component_count() != len(graph.components()):
            continue
        for k in (1, 2):
            assert depth_exact(module_for(graph, k, "s-mod-power")) >= 1


def test_minimum_depth_bounded_by_bipartite_count():
    # the eventual depth is an upper bound for the minimum over powers
    for graph in enumerate_labeled_graphs(3):
        p = graph.bipartite_component_count()
        depths = [
            depth_exact(module_for(graph, k, "s-mod-power"))
            for k in range(1, graph.n + 1)
        ]
        assert min(depths) <= p or not graph.has_edges()


def _reference_chains(basis, a, size, n):
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


def _reference_boundary_rank(basis, a, sources, targets):
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


def reference_profile(module):
    """The per-point Koszul scan: one complex for every multidegree of the box."""
    n = module.n
    corner = scan_corner(module)
    basis = basis_in_box(module, corner)
    degrees = {}
    for a in iter_box(corner):
        chains = [_reference_chains(basis, a, size, n) for size in range(n + 1)]
        bounds = [0] * (n + 2)
        for size in range(1, n + 1):
            bounds[size] = _reference_boundary_rank(
                basis, a, chains[size], chains[size - 1]
            )
        ranks = [len(chains[s]) - bounds[s] - bounds[s + 1] for s in range(n + 1)]
        if any(ranks):
            degrees[a] = tuple(ranks)
    return tuple(map(sum, zip(*degrees.values()))), degrees


def _parity_modules():
    for n in range(1, 5):
        for graph in enumerate_labeled_graphs(n):
            for k in (n - 1, n):
                if k >= 1:
                    yield module_for(graph, k, "s-mod-power")
            if graph.has_edges():
                for k in (1, 2):
                    yield module_for(graph, k, "power")
                for k in (0, 1, 2):
                    yield module_for(graph, k, "layer")
    yield from random_presentations(300, seed=3)


def test_profile_matches_per_point_scan():
    checked = 0
    for module in _parity_modules():
        ranks, degrees = reference_profile(module)
        profile = homology_profile(module)
        assert profile.ranks == ranks
        assert profile.degrees == degrees
        assert list(profile.degrees) == list(degrees)
        checked += 1
    assert checked > 700


def test_profile_memory_on_cycle6_fifth_power():
    module = module_for(preset("cycle:6"), 5, "s-mod-power")
    tracemalloc.start()
    try:
        homology_profile(module)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("spec,k", [("cycle:6", 5), ("path:6", 5), ("cycle:5", 4)])
def test_limit_depth_reach(spec, k):
    graph = preset(spec)
    assert depth_exact(module_for(graph, k, "s-mod-power")) == depth_by_trung(graph, k)


def _small_graph_modules():
    """Every nonzero S/I^k, I^k and I^k/I^{k+1} of a labeled graph on at most
    4 vertices, k <= 3."""
    for n in range(1, 5):
        for graph in enumerate_labeled_graphs(n):
            for k in range(1, 4):
                yield module_for(graph, k, "s-mod-power")
            if graph.has_edges():
                for k in range(1, 4):
                    yield module_for(graph, k, "power")
                for k in range(4):
                    yield module_for(graph, k, "layer")


def test_profile_ranks_are_the_column_sums_of_its_degrees():
    checked = 0
    for module in _small_graph_modules():
        profile = homology_profile(module)
        assert profile.ranks == tuple(map(sum, zip(*profile.degrees.values())))
        checked += 1
    assert checked == 75 * 3 + 71 * 7


def test_degree_table_is_decoded_only_on_read(monkeypatch):
    def no_lowest(self, bits):
        raise AssertionError("the per-degree table was decoded")

    module = module_for(preset("cycle:3"), 2, "s-mod-power")
    monkeypatch.setattr(Box, "lowest", no_lowest)
    profile = homology_profile(module)
    assert depth_exact(module) == profile.depth == 0
    with pytest.raises(AssertionError, match="per-degree table"):
        profile.degrees


def test_scan_guard_charges_split_and_largest_family(monkeypatch):
    """S/(x_1 x_2 x_3): 8 box points times 2^3 shifted sets, plus the full
    Koszul family's matrices 3x1, 3x3 and 1x3 at 1, 3 and 1 pivots: 97 steps."""
    module = ModulePresentation.quotient_ring(MonomialIdeal.make(3, [(1, 1, 1)]))
    monkeypatch.setattr(depth, "KOSZUL_STEP_CAP", 97)
    assert depth_exact(module) == 2
    monkeypatch.setattr(depth, "KOSZUL_STEP_CAP", 96)
    with pytest.raises(BudgetExceededError, match="needs over 96 steps"):
        depth_exact(module)


@pytest.mark.parametrize("n", [12, 20])
def test_scan_guard_stops_before_any_rank(monkeypatch, n):
    def no_rank(*args):
        raise AssertionError("a family was ranked")

    monkeypatch.setattr(depth, "_family_ranks", no_rank)
    module = ModulePresentation.quotient_ring(MonomialIdeal.make(n, [(1,) * n]))
    with pytest.raises(BudgetExceededError, match=f"Koszul scan over {n} variables"):
        homology_profile(module)
