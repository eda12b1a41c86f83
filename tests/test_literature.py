"""The oracles against a second presentation and against published bounds.

Polarization keeps depth and Stanley depth up to the added variables
(Herzog-Hibi, Monomial Ideals, GTM 260, 2011, Cor. 1.6.3; Ichim-Katthan-
Moyano-Fernandez, J. Combin. Theory Ser. A 135, 2015).  On a forest both
depth(S/I^k) and sdepth(S/I^k) are at least max(ceil((d-k+2)/3) + p - 1, p)
for the largest component diameter d and p components (Morey, Comm. Algebra
38, 2010; Pournaki-Seyed Fakhari-Yassemi, Proc. AMS 141, 2013).
"""

from stanley_lab import depth_exact, sdepth_exact
from stanley_lab.bounds import KIND_LAYER, KIND_POWER, KIND_S_MOD, _module_is_zero, module_for
from stanley_lab.sweeps import isomorphism_classes

from helpers import largest_diameter, polarize


def _classes(n):
    return sorted({rep for _, rep in isomorphism_classes(n)}, key=lambda g: g.edges)


def test_polarization_adds_its_variables_to_depth_and_sdepth():
    """Every class on at most 4 vertices: S/I^k and I^k at k <= 2 and layers
    at k <= 2, nonzero modules only, and k = 2 only below 4 vertices."""
    cases = 0
    for n in range(1, 5):
        for graph in _classes(n):
            for kind, ks in ((KIND_S_MOD, (1, 2)), (KIND_POWER, (1, 2)), (KIND_LAYER, (0, 1, 2))):
                for k in ks:
                    if _module_is_zero(graph, k, kind) or (n == 4 and k == 2):
                        continue
                    module = module_for(graph, k, kind)
                    polar = polarize(module)
                    added = polar.n - module.n
                    assert depth_exact(polar) == depth_exact(module) + added
                    found, polar_found = sdepth_exact(module), sdepth_exact(polar)
                    assert polar_found.value == found.value + added
                    assert polar_found.exact == found.exact
                    cases += 1
    assert cases == 79


def test_forest_depth_and_sdepth_reach_the_diameter_bound():
    """Every forest on at most 5 vertices, S/I^k at k <= 3 (k <= 2 on 5)."""
    rows = above_p = 0
    for n in range(1, 6):
        for graph in _classes(n):
            comps = graph.components()
            if not all(c.tree for c in comps):
                continue
            p, d = len(comps), largest_diameter(graph)
            for k in range(1, 4 if n < 5 else 3):
                bound = max(-(-(d - k + 2) // 3) + p - 1, p)
                module = module_for(graph, k, KIND_S_MOD)
                assert depth_exact(module) >= bound
                assert sdepth_exact(module).value >= bound
                rows += 1
                above_p += bound > p
    assert (rows, above_p) == (56, 5)


def test_six_vertex_forests_reach_the_diameter_bound():
    """Every forest on 6 vertices, S/I^k at k <= 2."""
    rows = above_p = 0
    for graph in _classes(6):
        comps = graph.components()
        if not all(c.tree for c in comps):
            continue
        p, d = len(comps), largest_diameter(graph)
        for k in (1, 2):
            bound = max(-(-(d - k + 2) // 3) + p - 1, p)
            module = module_for(graph, k, KIND_S_MOD)
            assert depth_exact(module) >= bound
            assert sdepth_exact(module).value >= bound
            rows += 1
            above_p += bound > p
    assert (rows, above_p) == (40, 13)
