"""Constructed certificates: every emitted decomposition verifies, reaches its
certified bound, and never overshoots the exact oracle."""

import hashlib
import json
import os
from collections import Counter

import pytest

from stanley_lab import (
    BudgetExceededError,
    ContradictionError,
    InputError,
    ModulePresentation,
    StanleyDecomposition,
    StanleySpace,
    decompose_layer,
    decompose_power_general,
    decompose_power_tree,
    decompose_s_mod_power,
    lower_sdepth_power,
    pin,
    sdepth_exact,
    shift,
    verify,
)
from stanley_lab import constructions
from stanley_lab.bounds import KIND_LAYER, KIND_POWER, KINDS, module_for
from stanley_lab.graphs import Graph, enumerate_trees, parse_graph, preset
from stanley_lab.sdepth import build_poset, partition_to_decomposition, search_partition

from helpers import certify_trees_requests, reference_sdepth, reference_variables

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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_edgeless_graph_certificates_are_the_ring(n):
    graph = Graph.make(n, [])
    ring = (StanleySpace((0,) * n, frozenset(range(1, n + 1))),)
    for dec in (decompose_layer(graph, 0), decompose_s_mod_power(graph, 2)):
        assert dec.spaces == ring
        assert checked(dec).sdepth == n


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


def test_filtration_has_one_piece_per_level(monkeypatch):
    """Every class with two or more edge-carrying components, on at most 6
    vertices, at k <= 3: each ``power at k=...`` assembly, nested ones too,
    has k + 1 pieces, as each filtration layer over the rest's edges is a
    nonzero module."""
    from stanley_lab.sweeps import isomorphism_classes

    real_assembled = constructions._assembled
    counts = []

    def recording_assembled(module, pieces, context):
        if context.startswith("power at k="):
            counts.append((int(context.rsplit("=", 1)[1]), len(pieces)))
        return real_assembled(module, pieces, context)

    monkeypatch.setattr(constructions, "_assembled", recording_assembled)
    for n in range(1, 7):
        for graph in sorted({rep for _, rep in isomorphism_classes(n)}, key=lambda g: g.edges):
            if sum(bool(c.edges) for c in graph.components()) >= 2:
                for k in (1, 2, 3):
                    decompose_power_general(graph, k)
    assert len(counts) == 54  # 12 on at most 5 vertices (4 classes, k = 1, 2, 3), 42 on 6
    assert all(pieces == k + 1 for k, pieces in counts)


def test_failed_search_at_a_guaranteed_target_is_a_contradiction(monkeypatch, capsys):
    """A "none" outcome where a theorem guarantees a partition raises
    ``ContradictionError`` naming the target, the guarantee and the module,
    and the CLI reports it as a failed claim (exit code 1)."""
    from stanley_lab import SearchOutcome, cli

    monkeypatch.setattr(constructions, "search_partition", lambda *args: SearchOutcome("none", None, 0))
    graph = preset("path:3")
    module = module_for(graph, 1, KIND_LAYER)
    with pytest.raises(ContradictionError) as raised:
        decompose_layer(graph, 1)
    assert str(raised.value) == (
        "no partition at target 1, but positive depth of layers over a connected "
        f"bipartite graph guarantees one; module: {module.to_json()}"
    )
    assert cli.main(["construct", "--graph", "path:3", "--k", "1", "--kind", "layer"]) == 1
    assert capsys.readouterr().err == f"CLAIM FAILURE: {raised.value}\n"


def test_decompose_names_one_generator_per_kind():
    assert sorted(constructions.DECOMPOSE) == sorted(KINDS)


@pytest.mark.parametrize(
    "decompose, spec, k",
    [
        pytest.param(decompose_layer, "path:3", -1, id="layer"),
        pytest.param(decompose_layer, "cycle:4+path:2", -1, id="layer-two-components"),
        pytest.param(decompose_s_mod_power, "path:3", 0, id="s-mod-power"),
        pytest.param(decompose_power_general, "path:3", 0, id="power"),
        pytest.param(decompose_power_general, "cycle:3+path:3", 0, id="power-two-components"),
        pytest.param(decompose_power_general, "cycle:4", -1, id="power-bipartite-non-tree"),
        pytest.param(decompose_power_tree, "path:3", 0, id="power-tree"),
    ],
)
def test_k_below_the_kind_minimum_is_rejected_by_module_for(decompose, spec, k):
    with pytest.raises(InputError, match="needs k >="):
        decompose(parse_graph(spec), k)


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


def test_sdepth_and_variables_match_their_first_definitions(monkeypatch):
    """On every certificate the pinned requests above check, and on the
    empty decomposition."""
    checked_decs = []
    real_checked = constructions._checked

    def collecting_checked(dec, context):
        checked_decs.append(dec)
        return real_checked(dec, context)

    monkeypatch.setattr(constructions, "_checked", collecting_checked)
    for n in range(2, 7):
        for tree in enumerate_trees(n):
            for k in (1, 2, 3):
                decompose_power_tree(tree, k)
    for graph in map(parse_graph, MULTI_COMPONENT):
        for k in (2, 3):
            decompose_s_mod_power(graph, k)
        for k in (1, 2):
            decompose_power_general(graph, k)
    empty = StanleyDecomposition(module_for(preset("path:2"), 1, KIND_POWER), ())
    decs = set(checked_decs) | {empty}
    for dec in decs:
        assert dec.sdepth() == reference_sdepth(dec)
        assert dec.variables() == reference_variables(dec)
    # some pieces leave variables free, so the Z sets do matter
    assert sum(len(dec.variables()) < dec.module.n for dec in decs) > 100


def test_every_checked_module_passes_the_inclusion_scan(monkeypatch):
    """The combinators build their modules without the lower <= upper scan of
    ``ModulePresentation.make``; every module a request checks passes it."""
    contexts = set()
    real_checked = constructions._checked

    def scanning_checked(dec, context):
        assert ModulePresentation.make(*dec.module) == dec.module, context
        contexts.add(context.split(" s=")[0].split(" on ")[0])
        return real_checked(dec, context)

    monkeypatch.setattr(constructions, "_checked", scanning_checked)
    for n in range(2, 7):
        for tree in enumerate_trees(n):
            for k in (1, 2, 3):
                decompose_power_tree(tree, k)
    for graph in map(parse_graph, MULTI_COMPONENT):
        decompose_power_general(graph, 2)
        for k in (1, 2, 3):
            decompose_s_mod_power(graph, k)
    # every piece that tensor, shift or pin derives was among them
    assert contexts >= {
        "leaf-free part", "leaf-only part", "edge-multiple part",
        "layer block", "filtration layer 1", "filtration layer 2",
    }


def test_clamped_oracle_keeps_the_walk_budget():
    """At the least rank the walk takes one node per element, so the oracle
    certificate needs a budget of m and fails at m - 1 as the walk would."""
    graph = preset("path:5")
    module = module_for(graph, 2, KIND_POWER)
    poset = build_poset(module)
    least, m = min(poset.ranks), len(poset.elements)
    walk = search_partition(poset, least, m)
    assert walk.status == "found"
    assert search_partition(poset, least, m - 1).status == "exceeded"
    dec = constructions._oracle_certificate(graph, module, least, m, "the test")
    assert dec == partition_to_decomposition(poset, walk.partition, module)
    with pytest.raises(BudgetExceededError) as failed:
        constructions._oracle_certificate(graph, module, least, m - 1, "the test")
    assert str(failed.value) == (
        f"budget {m - 1} exhausted while searching the guaranteed target {least} (the test)"
    )


def test_oracle_closures_are_built_only_above_the_least_rank(monkeypatch):
    """Every oracle call builds one poset and searches it once; only the
    searches above the least rank read the closures, and each search at or
    below it takes one node per element."""
    posets, searches = [], []
    real_build, real_search = constructions.build_poset, constructions.search_partition

    def counting_build(module):
        posets.append(real_build(module))
        return posets[-1]

    def counting_search(poset, target, budget):
        outcome = real_search(poset, target, budget)
        searches.append((min(poset.ranks), target, len(poset.elements), outcome.nodes))
        return outcome

    monkeypatch.setattr(constructions, "build_poset", counting_build)
    monkeypatch.setattr(constructions, "search_partition", counting_search)
    for tree in enumerate_trees(5):
        decompose_power_tree(tree, 2)
    for graph in map(parse_graph, MULTI_COMPONENT):
        decompose_s_mod_power(graph, 2)
    assert len(posets) == len(searches) == 25
    closed = sum("up" in vars(poset) for poset in posets)
    assert closed == sum(target > least for least, target, _, _ in searches) == 10
    assert all(nodes == m for least, target, m, nodes in searches if target <= least)


@pytest.mark.parametrize(
    "build, spec, k",
    [
        (decompose_s_mod_power, "cycle:3+path:3", 3),
        (decompose_power_general, "path:2+path:2+path:2", 2),
        (decompose_layer, "path:2+path:2+path:2", 2),
        (decompose_power_tree, "path:5", 3),
    ],
)
def test_each_distinct_certificate_verified_once(monkeypatch, build, spec, k):
    """Every proof counts: a plain ``verify`` call, or a certificate that an
    accepted ``verify`` walk with pieces proves (the whole and each piece
    neither proven nor equal to the whole)."""
    reached, verified = [], []
    real_checked, real_verify = constructions._checked, constructions.verify

    def counting_checked(dec, context):
        reached.append((dec.module, dec.spaces))
        return real_checked(dec, context)

    def counting_verify(whole, pieces=(), proven=()):
        report = real_verify(whole, pieces, proven)
        if not pieces:
            verified.append((whole.module, whole.spaces))
        elif report.valid:
            new = [whole, *(dec for dec in pieces if dec not in proven and dec != whole)]
            verified.extend((dec.module, dec.spaces) for dec in new)
        return report

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
        ("shift", decompose_power_tree, "path:4", 3),
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


def test_space_moved_between_pieces_names_the_first_bad_piece(monkeypatch):
    """The oracle moves the last space of the leaf-only part of I^2 of path:4
    to the front of its edge-multiple part: the assembly is unchanged and valid,
    the joint walk rejects it, and the message names the first bad piece."""
    real_oracle, real_verify = constructions._oracle_certificate, constructions.verify
    stash, joint = [], []

    def moving(sub, module, *args):
        out = real_oracle(sub, module, *args)
        if module.lower.gens:  # the leaf-only part, the one oracle piece with a lower ideal
            stash.append(out.spaces[-1])
            return StanleyDecomposition(out.module, out.spaces[:-1])
        if stash:  # the next edge-multiple part
            return StanleyDecomposition(out.module, (stash.pop(), *out.spaces))
        return out

    def recorded(whole, pieces=(), proven=()):
        report = real_verify(whole, pieces, proven)
        if pieces:
            joint.append((verify(whole).valid, report.valid))
        return report

    monkeypatch.setattr(constructions, "_oracle_certificate", moving)
    monkeypatch.setattr(constructions, "verify", recorded)
    with pytest.raises(ContradictionError) as info:
        decompose_power_tree(preset("path:4"), 2)
    assert str(info.value) == (
        "leaf-only part: certificate failed verification (uncovered at (1, 0, 2, 2))"
    )
    assert joint[-1] == (True, False)
    assert constructions._SESSION.get() is None


def old_oracle_search(graph, k, target):
    """The certificate and node count of the search of I(graph)^k at target
    plus the variables off the graph, as the oracle ran it before framing."""
    module = module_for(graph, k, KIND_POWER)
    poset = build_poset(module)
    outcome = search_partition(poset, target + graph.n - graph.num_vertices)
    return partition_to_decomposition(poset, outcome.partition, module), outcome.nodes


def test_framed_oracle_pieces_are_the_old_images(monkeypatch):
    """On every tree with 3 to 7 vertices, the leaf-only and edge-multiple
    oracle pieces of I^k (k = 2, 3), searched
    in their assembly's frame, are exactly ``shift(pin(base, (stem,)), leaf)`` and
    ``shift(_tree_power(tree, 1), edge)``: the same spaces in the same order,
    found in as many nodes, and the unframed module is never searched."""
    searched, assembled = {}, []
    real_build, real_search = constructions.build_poset, constructions.search_partition
    real_assembled = constructions._assembled

    def recording_build(module):
        poset = real_build(module)
        searched[poset] = module
        return poset

    def recording_search(poset, target, budget):
        outcome = real_search(poset, target, budget)
        searched[searched.pop(poset)] = outcome.nodes
        return outcome

    def recording_assembled(module, pieces, context):
        assembled.append((context, dict((c, dec) for dec, c in pieces)))
        return real_assembled(module, pieces, context)

    monkeypatch.setattr(constructions, "build_poset", recording_build)
    monkeypatch.setattr(constructions, "search_partition", recording_search)
    monkeypatch.setattr(constructions, "_assembled", recording_assembled)
    compared = Counter()
    for tree in (tree for n in range(3, 8) for tree in enumerate_trees(n)):
        n, adj = tree.n, tree.adjacency()
        leaf = min(v for v, ws in adj.items() if len(ws) == 1)
        (stem,) = adj[leaf]
        leaf_shift = tuple(int(v == leaf) for v in range(1, n + 1))
        edge_shift = tuple(int(v in (leaf, stem)) for v in range(1, n + 1))
        pruned = tree.delete_vertices({leaf, stem})
        for k in (2, 3):
            searched.clear()
            assembled.clear()
            decompose_power_tree(tree, k)
            parts = dict(assembled)
            top, square = (parts[f"tree power on {sorted(tree.vertices)} at k={j}"] for j in (k, 2))
            # the edge-multiple oracle piece of I^2, which I^3 reaches through shift
            base, nodes = old_oracle_search(tree, 1, 2)
            assert square["edge-multiple part"] == shift(base, edge_shift)
            assert searched[square["edge-multiple part"].module] == nodes
            assert module_for(tree, 1, KIND_POWER) not in searched
            compared["edge-multiple"] += 1
            if pruned.has_edges():
                base, nodes = old_oracle_search(pruned, k, 1)
                assert top["leaf-only part"] == shift(pin(base, (stem,)), leaf_shift)
                assert searched[top["leaf-only part"].module] == nodes
                assert base.module not in searched
                compared["leaf-only"] += 1
            else:
                assert "leaf-only part" not in top
    assert compared == {"edge-multiple": 2 * 23, "leaf-only": 2 * 18}  # 23 trees, 18 with a leaf-only part


def test_verifier_walk_totals_pinned(monkeypatch):
    """Plain ``verify`` calls and spaces, and ``verify`` walks with pieces and
    their spaces, summed over the seed-0 certify-trees requests: separate walks
    of the pieces, or a skipped proof, move them."""
    totals = Counter()
    real_verify = constructions.verify

    def counted_verify(dec, pieces=(), proven=()):
        kind = "joint" if pieces else "verify"
        totals[kind] += 1
        totals[f"{kind}_spaces"] += len(dec.spaces)
        return real_verify(dec, pieces, proven)

    monkeypatch.setattr(constructions, "verify", counted_verify)
    for build, graph, k in certify_trees_requests():
        build(graph, k)
    assert totals == {"verify": 53, "verify_spaces": 1619, "joint": 133, "joint_spaces": 6113}


def test_tracer_counts_every_verifier_walk(monkeypatch):
    """The benchmark's tracer wraps ``stanley.verify``, the one verifier walk,
    so on the seed-0 certify-trees requests it sees the 53 plain walks and the
    133 walks with pieces, over 1,619 + 6,113 spaces, all inside a generator."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
    from tracing import Tracer
    from workloads import import_library

    import_library()  # the tracer rebinds names in every library module, sweeps included
    requests = certify_trees_requests()
    with Tracer() as tracer:
        for build, graph, k in requests:
            getattr(constructions, build.__name__)(graph, k)  # the traced binding
    totals = tracer.layer_totals()
    assert totals["stanley.verify.calls"] == totals["constructions.decompose.reverifications"] == 186
    assert totals["stanley.verify.spaces"] == 7732
    assert totals["stanley.verify.invalid"] == 0


def test_failed_piece_is_verified_again_in_the_same_session(monkeypatch):
    real_verify = constructions.verify
    verified = []

    def counting_verify(dec):
        verified.append(dec)
        return real_verify(dec)

    dec = decompose_power_tree(preset("path:4"), 2)
    broken = StanleyDecomposition(dec.module, dec.spaces[1:])
    monkeypatch.setattr(constructions, "verify", counting_verify)
    token = constructions._SESSION.set({})
    try:
        for _ in range(2):
            with pytest.raises(ContradictionError, match="failed verification"):
                constructions._checked(broken, "broken piece")
        assert verified == [broken, broken]
        assert broken not in constructions._SESSION.get().values()
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
