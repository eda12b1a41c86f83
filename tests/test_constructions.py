"""Constructed certificates: every emitted decomposition verifies, reaches its
certified bound, and never overshoots the exact oracle."""

import hashlib
import json

import pytest

from stanley_lab import (
    BudgetExceededError,
    ContradictionError,
    InputError,
    StanleyDecomposition,
    StanleySpace,
    decompose_layer,
    decompose_power_general,
    decompose_power_tree,
    decompose_s_mod_power,
    lower_sdepth_power,
    sdepth_exact,
    verify,
)
from stanley_lab import constructions
from stanley_lab.bounds import module_for
from stanley_lab.graphs import Graph, enumerate_trees, parse_graph, preset

MULTI_COMPONENT = ("cycle:3+path:3", "path:3+path:2", "cycle:4+path:2")


def checked(dec):
    report = verify(dec)
    assert report.valid, (report.failure, report.witness)
    return report


def pinned(decs):
    """Total space count and a digest of every certificate's JSON, in order."""
    digest = hashlib.sha256()
    total = 0
    for dec in decs:
        total += len(dec.spaces)
        digest.update(json.dumps(dec.to_json(), sort_keys=True).encode())
    return total, digest.hexdigest()[:16]


def test_layer_single_edge():
    dec = decompose_layer(preset("path:2"), 1)
    report = checked(dec)
    assert report.sdepth == 1
    assert len(dec.spaces) == 2


def test_layer_two_edges_k0():
    dec = decompose_layer(parse_graph("path:2+path:2"), 0)
    report = checked(dec)
    assert report.sdepth == 2


def test_layer_triangle():
    dec = decompose_layer(preset("cycle:3"), 1)
    report = checked(dec)
    assert report.sdepth >= 0


def test_layer_zero_module_is_empty():
    dec = decompose_layer(Graph.make(2, []), 1)
    assert dec.spaces == ()


def test_layer_handles_isolated_vertices():
    graph = Graph.make(4, [(1, 2)])
    dec = decompose_layer(graph, 1)
    report = checked(dec)
    assert report.sdepth >= graph.bipartite_component_count()


def test_layer_meets_bound_on_mixed_graph():
    graph = parse_graph("cycle:3+path:3")
    for k in (0, 1, 2):
        dec = decompose_layer(graph, k)
        report = checked(dec)
        assert report.sdepth >= graph.bipartite_component_count()


def test_s_mod_power_single_edge():
    dec = decompose_s_mod_power(preset("path:2"), 2)
    report = checked(dec)
    assert report.sdepth == 1


def test_s_mod_power_path():
    graph = preset("path:3")
    dec = decompose_s_mod_power(graph, 2)
    report = checked(dec)
    assert report.sdepth >= 1
    oracle = sdepth_exact(module_for(graph, 2, "s-mod-power"))
    assert oracle.exact and report.sdepth <= oracle.value


def test_s_mod_power_triangle():
    dec = decompose_s_mod_power(preset("cycle:3"), 1)
    report = checked(dec)
    assert report.sdepth >= 0


def test_s_mod_power_space_count_is_sum_of_layers():
    graph = preset("path:3")
    layers = [decompose_layer(graph, j) for j in range(3)]
    stacked = decompose_s_mod_power(graph, 3)
    assert len(stacked.spaces) == sum(len(l.spaces) for l in layers)


def test_tree_power_principal():
    dec = decompose_power_tree(preset("path:2"), 3)
    assert dec.spaces == (StanleySpace((3, 3), frozenset({1, 2})),)
    assert checked(dec).sdepth == 2


def test_tree_power_path():
    graph = preset("path:3")
    dec = decompose_power_tree(graph, 2)
    report = checked(dec)
    assert report.sdepth >= 2
    oracle = sdepth_exact(module_for(graph, 2, "power"))
    assert oracle.exact and report.sdepth <= oracle.value


def test_tree_power_star():
    dec = decompose_power_tree(preset("star:3"), 2)
    assert checked(dec).sdepth >= 2


def test_tree_power_rejects_non_trees():
    with pytest.raises(InputError):
        decompose_power_tree(preset("cycle:4"), 1)
    with pytest.raises(InputError):
        decompose_power_tree(parse_graph("path:2+path:2"), 1)
    with pytest.raises(InputError):
        decompose_power_tree(preset("path:3"), 0)


def test_power_general_triangle_plus_edge():
    graph = parse_graph("cycle:3+path:2")
    dec = decompose_power_general(graph, 1)
    report = checked(dec)
    assert report.sdepth >= 2  # p + 1 with p = 1


def test_power_general_connected_degenerates():
    dec = decompose_power_general(preset("cycle:3"), 2)
    report = checked(dec)
    assert report.sdepth >= 1


def test_power_general_path_plus_edge():
    graph = parse_graph("path:3+path:2")
    dec = decompose_power_general(graph, 2)
    report = checked(dec)
    assert report.sdepth >= 3  # tree base 2 plus one leftover bipartite piece


def test_power_general_matches_engine_bound():
    for spec, k in (
        ("cycle:3+path:2", 1),
        ("cycle:3+path:2", 2),
        ("path:3+path:2", 1),
        ("cycle:5", 1),
        ("star:3", 2),
        ("cycle:4+path:2", 2),
    ):
        graph = parse_graph(spec)
        dec = decompose_power_general(graph, k)
        report = checked(dec)
        assert report.sdepth >= lower_sdepth_power(graph, k), spec


def test_power_general_rejects_edgeless():
    with pytest.raises(InputError):
        decompose_power_general(Graph.make(3, []), 1)


def test_constructions_respect_exact_oracle():
    for spec, k, kind in (
        ("path:2", 1, "layer"),
        ("cycle:3", 1, "layer"),
        ("path:3", 2, "s-mod-power"),
        ("cycle:3+path:2", 1, "power"),
    ):
        graph = parse_graph(spec)
        if kind == "layer":
            dec = decompose_layer(graph, k)
        elif kind == "s-mod-power":
            dec = decompose_s_mod_power(graph, k)
        else:
            dec = decompose_power_general(graph, k)
        oracle = sdepth_exact(module_for(graph, k, kind))
        if oracle.exact:
            assert checked(dec).sdepth <= oracle.value


def test_budget_propagates():
    with pytest.raises(BudgetExceededError):
        decompose_power_tree(preset("path:5"), 2, budget=1)
    # the failed request leaves no session open, and nothing of it is reused
    assert constructions._SESSION.get() is None
    assert pinned([decompose_power_tree(preset("path:5"), 2)]) == (38, "d298ae28b2666ccf")


# Certificates, space order included, as built before construction sessions.
def test_tree_power_certificates_pinned():
    decs = (
        decompose_power_tree(tree, k)
        for n in range(2, 7)
        for tree in enumerate_trees(n)
        for k in (1, 2, 3)
    )
    assert pinned(decs) == (2170, "a6b7ad4d42ddcfa0")


def test_multi_component_certificates_pinned():
    graphs = [parse_graph(spec) for spec in MULTI_COMPONENT]
    quotients = (decompose_s_mod_power(g, k) for g in graphs for k in (2, 3))
    assert pinned(quotients) == (716, "9a42fdca36324a3b")
    powers = (decompose_power_general(g, k) for g in graphs for k in (1, 2))
    assert pinned(powers) == (177, "f511ede237598c59")


@pytest.mark.parametrize(
    "build, spec, k",
    [
        (decompose_s_mod_power, "cycle:3+path:3", 3),
        (decompose_power_general, "cycle:4+path:2", 2),
        (decompose_power_tree, "path:5", 3),
    ],
)
def test_each_distinct_certificate_verified_once(monkeypatch, build, spec, k):
    reached, verified = [], []
    real_checked, real_verify = constructions._checked, constructions.verify

    def counting_checked(dec, context):
        reached.append((dec.module, dec.spaces))
        return real_checked(dec, context)

    def counting_verify(dec):
        verified.append((dec.module, dec.spaces))
        return real_verify(dec)

    monkeypatch.setattr(constructions, "_checked", counting_checked)
    monkeypatch.setattr(constructions, "verify", counting_verify)
    graph = parse_graph(spec)
    build(graph, k)
    calls = len(verified)
    assert len(set(verified)) == calls == len(set(reached)) < len(reached)
    assert set(verified) == set(reached)
    # a second identical request shares nothing with the first
    build(graph, k)
    assert len(verified) == 2 * calls
    assert constructions._SESSION.get() is None


@pytest.mark.parametrize(
    "combinator, build, spec, k",
    [
        ("shift", decompose_power_tree, "path:4", 2),
        ("concat", decompose_s_mod_power, "cycle:3+path:3", 2),
    ],
)
def test_broken_combinator_raises_contradiction(monkeypatch, combinator, build, spec, k):
    real = getattr(constructions, combinator)

    def drop_one_space(*args):
        dec = real(*args)
        return StanleyDecomposition(dec.module, dec.spaces[1:])

    monkeypatch.setattr(constructions, combinator, drop_one_space)
    with pytest.raises(ContradictionError, match="failed verification"):
        build(parse_graph(spec), k)
    assert constructions._SESSION.get() is None


def test_failed_piece_is_verified_again_in_the_same_session(monkeypatch):
    real_verify = constructions.verify
    verified = []

    def counting_verify(dec):
        verified.append(dec)
        return real_verify(dec)

    dec = decompose_power_tree(preset("path:4"), 2)
    broken = StanleyDecomposition(dec.module, dec.spaces[1:])
    monkeypatch.setattr(constructions, "verify", counting_verify)
    token = constructions._SESSION.set(({}, set()))
    try:
        for _ in range(2):
            with pytest.raises(ContradictionError, match="failed verification"):
                constructions._checked(broken, "broken piece")
        assert verified == [broken, broken]
        assert broken not in constructions._SESSION.get()[1]
        constructions._checked(dec, "whole")
        constructions._checked(dec, "whole again")
        assert verified == [broken, broken, dec]
    finally:
        constructions._SESSION.reset(token)


def test_every_construction_meets_engine_bound_small_sweep():
    from stanley_lab.graphs import enumerate_labeled_graphs

    for n in range(1, 5):
        for graph in enumerate_labeled_graphs(n):
            p = graph.bipartite_component_count()
            for k in (0, 1, 2):
                dec = decompose_layer(graph, k)
                if dec.spaces:
                    assert checked(dec).sdepth >= p, (graph, k)
            for k in (1, 2):
                dec = decompose_s_mod_power(graph, k)
                assert checked(dec).sdepth >= p, (graph, k)
                if graph.has_edges():
                    dec = decompose_power_general(graph, k)
                    assert checked(dec).sdepth >= lower_sdepth_power(graph, k), (
                        graph,
                        k,
                    )
