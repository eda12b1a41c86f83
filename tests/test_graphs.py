"""Graph invariants: components, bipartiteness, trees, deletion, edge ideals."""

from itertools import combinations, product

import pytest

from helpers import prufer_code
from stanley_lab import Graph, InputError, MonomialIdeal, disjoint_union, parse_graph, preset
from stanley_lab.graphs import (
    Component,
    _prufer_to_edges,
    canonical_tree_form,
    enumerate_labeled_graphs,
    enumerate_trees,
    free_tree_count,
)


def brute_has_odd_cycle(comp):
    """Odd closed walk detection by powers of the adjacency relation."""
    adj = {v: set() for v in comp.vertices}
    for i, j in comp.edges:
        adj[i].add(j)
        adj[j].add(i)
    # odd cycle exists iff some vertex reaches itself by an odd walk while the
    # graph is connected on comp; track parity-reachable sets
    for v in comp.vertices:
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
    triangle = Component((1, 2, 3), ((1, 2), (1, 3), (2, 3)), False)
    assert preset("cycle:3").components() == (triangle,)
    both = disjoint_union(preset("cycle:3"), preset("path:2"))
    assert both.components() == (triangle, Component((4, 5), ((4, 5),), True))
    assert Graph.make(3, []).components() == tuple(
        Component((v,), (), True) for v in (1, 2, 3)
    )


def test_components_partition():
    for graph in enumerate_labeled_graphs(4):
        comps = graph.components()
        flat = sorted(v for c in comps for v in c.vertices)
        assert flat == sorted(graph.vertices)
        assert sorted(e for c in comps for e in c.edges) == list(graph.edges)
        for c in comps:
            assert list(c.vertices) == sorted(c.vertices)
            assert list(c.edges) == sorted(c.edges)
            assert all(i in c.vertices and j in c.vertices for i, j in c.edges)


def test_bipartite_count():
    assert preset("cycle:3").bipartite_component_count() == 0
    assert preset("path:2").bipartite_component_count() == 1
    mix = disjoint_union(preset("cycle:3"), preset("path:3"))
    assert mix.bipartite_component_count() == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_bipartite_agrees_with_odd_cycle_search(n):
    for graph in enumerate_labeled_graphs(n):
        for comp in graph.components():
            assert comp.bipartite == (not brute_has_odd_cycle(comp))


def test_trees_and_leaves():
    p3 = preset("path:3")
    assert p3.adjacency() == {1: [2], 2: [1, 3], 3: [2]}
    c4 = preset("cycle:4")
    assert all(len(ws) == 2 for ws in c4.adjacency().values())
    edge = preset("path:2")
    assert edge.adjacency() == {1: [2], 2: [1]}


@pytest.mark.parametrize(
    "spec, trees",
    [
        ("path:3", [True]),
        ("path:2", [True]),
        ("cycle:4", [False]),
        ("cycle:3", [False]),
        ("path:1", [True]),  # a singleton
        ("cycle:4+path:1+star:3", [False, True, True]),
    ],
)
def test_component_tree(spec, trees):
    assert [c.tree for c in parse_graph(spec).components()] == trees


def test_tree_edge_and_leaf_counts():
    for n in range(2, 7):
        for tree in enumerate_trees(n):
            assert len(tree.edges) == n - 1
            degree = {v: len(ws) for v, ws in tree.adjacency().items()}
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
    lifted_a = Graph.make(6, [(1, 2), (2, 3)]).edge_ideal()
    lifted_b = Graph.make(6, [(4, 5), (5, 6), (4, 6)]).edge_ideal()
    assert union.edge_ideal() == lifted_a + lifted_b


def test_presets_and_parse():
    assert preset("star:3").n == 4
    assert len(preset("complete:4").edges) == 6
    g = parse_graph("cycle:3+path:2")
    assert g.n == 5
    assert [c.vertices for c in g.components()] == [(1, 2, 3), (4, 5)]
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


def test_prufer_decoding_round_trips():
    """Every sequence for n <= 8 decodes to the sorted edges of a tree whose
    Pruefer sequence it is."""
    decoded = 0
    for n in range(2, 9):
        for seq in product(range(1, n + 1), repeat=n - 2):
            edges = _prufer_to_edges(seq, n)
            assert edges == tuple(sorted(edges)) and all(i < j for i, j in edges)
            assert prufer_code(n, edges) == seq
            decoded += 1
    assert decoded == sum(n ** (n - 2) for n in range(2, 9))


def test_enumerators_check_n_once_and_build_valid_graphs(monkeypatch):
    """``Graph.make`` runs once per enumerator call, and every graph equals
    the graph ``make`` builds from its fields."""
    make, calls = Graph.make, []

    def counting_make(cls, *args):
        calls.append(args)
        return make(*args)

    monkeypatch.setattr(Graph, "make", classmethod(counting_make))
    cases = [(enumerate_labeled_graphs, n) for n in range(1, 6)]
    cases += [(enumerate_trees, n) for n in range(1, 9)]
    for enumerate_graphs, n in cases:
        calls.clear()
        graphs = list(enumerate_graphs(n))
        assert len(calls) == 1
        assert graphs and all(g == make(g.n, g.edges, g.vertices) for g in graphs)
    for enumerate_graphs in (enumerate_labeled_graphs, enumerate_trees):
        with pytest.raises(InputError, match=r"vertex count must be in 1\.\.24, got 25"):
            list(enumerate_graphs(25))


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
            assert [c.vertices for c in graph.components()] == expected
            assert graph.bipartite_component_count() == bipartite_count(ref)
            for mask in range(1, 1 << n):
                keep = [v for v in range(1, n + 1) if mask >> (v - 1) & 1]
                comps = graph.delete_vertices(graph.vertices.difference(keep)).components()
                sub = ref.subgraph(keep)
                assert (len(comps) == 1) == nx.is_connected(sub)
                assert all(c.bipartite for c in comps) == nx.is_bipartite(sub)
    # on at most 5 vertices only one component can hold an odd cycle
    triangle = preset("cycle:3")
    for graph in (
        disjoint_union(preset("path:2"), disjoint_union(triangle, preset("cycle:5"))),
        disjoint_union(disjoint_union(triangle, preset("path:3")), triangle),
    ):
        ref = nx.Graph(graph.edges)
        assert graph.bipartite_component_count() == bipartite_count(ref) == 1


def _graphs_and_deletions(nmax):
    """Every labeled graph on at most nmax vertices, and each of its
    vertex-deleted subgraphs."""
    for n in range(1, nmax + 1):
        for graph in enumerate_labeled_graphs(n):
            for size in range(n + 1):
                for gone in combinations(range(1, n + 1), size):
                    yield graph.delete_vertices(gone)


def test_edge_ideal_equals_the_validated_make():
    checked = 0
    for graph in _graphs_and_deletions(5):
        gens = [tuple(int(v in e) for v in range(1, graph.n + 1)) for e in graph.edges]
        assert graph.edge_ideal() == MonomialIdeal.make(graph.n, gens)
        checked += 1
    assert checked > 30_000


def test_components_memo_matches_the_unmemoized_records():
    assert Graph.components.cache_info().maxsize is not None
    for n in range(1, 6):
        for graph in enumerate_labeled_graphs(n):
            assert graph.components() == Graph.components.__wrapped__(graph)
    # a graph equal to a memoized one, built apart, reads the same records
    rebuilt = Graph.make(4, [(3, 4), (1, 2)])
    assert rebuilt.components() is Graph.make(4, [(1, 2), (3, 4)]).components()
