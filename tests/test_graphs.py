"""Graph invariants: components, bipartiteness, trees, deletion, edge ideals."""

from itertools import product

import pytest

from stanley_lab import Graph, InputError, disjoint_union, parse_graph, preset
from stanley_lab.graphs import (
    _prufer_to_edges,
    canonical_tree_form,
    enumerate_labeled_graphs,
    enumerate_trees,
    free_tree_count,
)


def brute_has_odd_cycle(graph, comp):
    """Odd closed walk detection by powers of the adjacency relation."""
    comp = list(comp)
    adj = {v: set() for v in comp}
    for i, j in graph.induced_edges(comp):
        adj[i].add(j)
        adj[j].add(i)
    # odd cycle exists iff some vertex reaches itself by an odd walk while the
    # graph is connected on comp; track parity-reachable sets
    reach = {v: {(v, 0)} for v in comp}
    for v in comp:
        frontier = {(v, 0)}
        seen = {(v, 0)}
        while frontier:
            nxt = set()
            for u, par in frontier:
                for w in adj[u]:
                    state = (w, 1 - par)
                    if state not in seen:
                        seen.add(state)
                        nxt.add(state)
            frontier = nxt
        if (v, 1) in seen:
            return True
    return False


def test_components():
    assert preset("cycle:3").components() == ((1, 2, 3),)
    both = disjoint_union(preset("cycle:3"), preset("path:2"))
    assert both.components() == ((1, 2, 3), (4, 5))
    assert Graph.make(3, []).components() == ((1,), (2,), (3,))


def test_components_partition():
    for graph in enumerate_labeled_graphs(4):
        comps = graph.components()
        flat = sorted(v for c in comps for v in c)
        assert flat == sorted(graph.vertices)


def test_bipartite_count():
    assert preset("cycle:3").bipartite_component_count() == 0
    assert preset("path:2").bipartite_component_count() == 1
    mix = disjoint_union(preset("cycle:3"), preset("path:3"))
    assert mix.bipartite_component_count() == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_bipartite_agrees_with_odd_cycle_search(n):
    for graph in enumerate_labeled_graphs(n):
        for comp in graph.components():
            expected = not brute_has_odd_cycle(graph, comp)
            assert graph.is_bipartite_component(comp) == expected


def test_trees_and_leaves():
    p3 = preset("path:3")
    assert p3.is_tree((1, 2, 3))
    assert p3.find_leaf() == 1
    assert p3.neighbors(2) == frozenset({1, 3})
    c4 = preset("cycle:4")
    assert not c4.is_tree((1, 2, 3, 4))
    assert c4.find_leaf() is None
    edge = preset("path:2")
    assert edge.is_tree((1, 2))
    assert edge.find_leaf() == 1


def test_is_tree_requires_connected():
    g = disjoint_union(preset("path:2"), preset("path:2"))
    with pytest.raises(InputError):
        g.is_tree((1, 2, 3, 4))


def test_tree_edge_and_leaf_counts():
    for n in range(2, 7):
        for tree in enumerate_trees(n):
            assert len(tree.edges) == n - 1
            degree = {v: len(tree.neighbors(v)) for v in tree.vertices}
            assert sum(1 for d in degree.values() if d == 1) >= 2


def test_delete_vertices():
    p3 = preset("path:3")
    sub = p3.delete_vertices({1})
    assert sub.edges == ((2, 3),)
    assert sub.vertices == frozenset({2, 3})
    assert p3.delete_vertices(p3.vertices).num_vertices == 0
    mix = disjoint_union(preset("cycle:3"), preset("path:2"))
    rest = mix.delete_vertices({1, 2, 3})
    assert rest.edges == ((4, 5),)


def test_edge_ideal():
    assert preset("path:3").edge_ideal().gens == ((0, 1, 1), (1, 1, 0))
    assert preset("cycle:3").edge_ideal().gens == ((0, 1, 1), (1, 0, 1), (1, 1, 0))
    assert Graph.make(2, []).edge_ideal().is_zero()


def test_edge_ideal_of_union_is_sum():
    a = preset("path:3")
    b = preset("cycle:3")
    union = disjoint_union(a, b)
    lifted_a = a.edge_ideal().extend((1, 2, 3), 6)
    lifted_b = b.edge_ideal().extend((4, 5, 6), 6)
    assert union.edge_ideal() == lifted_a + lifted_b


def test_presets_and_parse():
    assert preset("star:3").n == 4
    assert len(preset("complete:4").edges) == 6
    g = parse_graph("cycle:3+path:2")
    assert g.n == 5
    assert g.components() == ((1, 2, 3), (4, 5))
    with pytest.raises(InputError):
        parse_graph("hexagon:6")
    with pytest.raises(InputError):
        preset("cycle:2")


def test_json_roundtrip(tmp_path):
    g = disjoint_union(preset("path:3"), preset("cycle:3")).delete_vertices({2})
    again = Graph.from_json(g.to_json())
    assert again == g


def test_enumerate_trees_up_to_iso_counts():
    # unlabeled tree counts for n = 1..6
    assert [len(enumerate_trees(n)) for n in range(1, 7)] == [1, 1, 1, 2, 3, 6]


def exhaustive_trees(n):
    """The full Pruefer walk: the first tree of each class, over all n^(n-2)
    sequences."""
    if n == 1:
        return [Graph.make(1, [])]
    trees, seen = [], set()
    for seq in product(range(1, n + 1), repeat=n - 2):
        g = Graph.make(n, _prufer_to_edges(seq, n))
        key = canonical_tree_form(g)
        if key not in seen:
            seen.add(key)
            trees.append(g)
    return trees


@pytest.mark.parametrize("n", range(1, 8))
def test_enumerate_trees_stops_at_the_last_class(n):
    assert enumerate_trees(n) == exhaustive_trees(n)


def test_free_tree_count_matches_oeis():
    # OEIS A000055, n = 1..12
    expected = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551]
    assert [free_tree_count(n) for n in range(1, 13)] == expected


def test_free_tree_count_matches_networkx():
    nx = pytest.importorskip("networkx")
    for n in range(1, 11):
        assert free_tree_count(n) == sum(1 for _ in nx.nonisomorphic_trees(n)), n


def test_canonical_form_identifies_isomorphic():
    a = Graph.make(3, [(1, 2), (2, 3)])
    b = Graph.make(3, [(1, 3), (2, 3)])
    assert canonical_tree_form(a) == canonical_tree_form(b)


def test_canonical_tree_form_separates_trees():
    spider = Graph.make(5, [(1, 2), (2, 3), (1, 4), (1, 5)])
    forms = {canonical_tree_form(t) for t in (preset("path:5"), preset("star:4"), spider)}
    assert len(forms) == 3


def test_canonical_tree_form_rejects_non_trees():
    for g in (preset("cycle:4"), parse_graph("cycle:3+path:1")):
        with pytest.raises(InputError):
            canonical_tree_form(g)


def test_enumerate_trees_matches_networkx():
    nx = pytest.importorskip("networkx")
    ours = [nx.Graph(list(t.edges)) for t in enumerate_trees(7)]
    assert len(ours) == 11
    theirs = list(nx.nonisomorphic_trees(7))
    assert len(theirs) == 11
    for t in theirs:
        assert sum(nx.is_isomorphic(t, o) for o in ours) == 1


def test_search_invariants_match_networkx():
    nx = pytest.importorskip("networkx")

    def bipartite_count(ref):
        return sum(nx.is_bipartite(ref.subgraph(c)) for c in nx.connected_components(ref))

    for n in range(1, 6):
        for graph in enumerate_labeled_graphs(n):
            if not graph.has_edges():
                continue
            ref = nx.Graph()
            ref.add_nodes_from(graph.vertices)
            ref.add_edges_from(graph.edges)
            expected = sorted(tuple(sorted(c)) for c in nx.connected_components(ref))
            assert list(graph.components()) == expected
            assert graph.bipartite_component_count() == bipartite_count(ref)
            for mask in range(1, 1 << n):
                keep = [v for v in range(1, n + 1) if mask >> (v - 1) & 1]
                sub = ref.subgraph(keep)
                assert graph.is_connected_set(keep) == nx.is_connected(sub)
                assert graph.is_bipartite_component(keep) == nx.is_bipartite(sub)
    # on at most 5 vertices only one component can hold an odd cycle
    triangle = preset("cycle:3")
    for graph in (
        disjoint_union(preset("path:2"), disjoint_union(triangle, preset("cycle:5"))),
        disjoint_union(disjoint_union(triangle, preset("path:3")), triangle),
    ):
        ref = nx.Graph(graph.edges)
        assert graph.bipartite_component_count() == bipartite_count(ref) == 1
