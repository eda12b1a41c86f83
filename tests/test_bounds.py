"""Closed-form bounds and verdict reports."""

from types import SimpleNamespace

import pytest

from stanley_lab import bounds, cli
from stanley_lab import (
    InputError,
    ModulePresentation,
    MonomialIdeal,
    UndefinedValueError,
    analytic_spread_edge,
    build_poset,
    homology_profile,
    lower_sdepth_power,
    lower_sdepth_quotient_layers,
    lower_sdepth_s_mod_power,
    question_experiment,
    stanley_verdict,
)
from stanley_lab.bounds import (
    COUNTEREXAMPLE,
    EVIDENCE_FOR,
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    INCONCLUSIVE_EVIDENCE,
    KIND_LAYER,
    KIND_POWER,
    KIND_S_MOD,
    KINDS,
    _module_is_zero,
    module_for,
    pivot_component,
)
from stanley_lab.graphs import Graph, enumerate_labeled_graphs, parse_graph, preset
from stanley_lab.sdepth import sdepth_exact
from stanley_lab.sweeps import _favored


def test_analytic_spread():
    assert analytic_spread_edge(preset("cycle:3")) == 3
    assert analytic_spread_edge(preset("path:2")) == 1
    assert analytic_spread_edge(Graph.make(2, [])) == 0


def test_quotient_bounds_are_p():
    mix = parse_graph("cycle:3+path:3")
    assert lower_sdepth_quotient_layers(mix) == 1
    assert lower_sdepth_s_mod_power(mix) == 1
    forest = parse_graph("path:2+path:3")
    assert lower_sdepth_quotient_layers(forest) == 2
    assert lower_sdepth_quotient_layers(preset("cycle:3")) == 0


def test_power_bound():
    assert lower_sdepth_power(preset("cycle:5"), 1) == 1
    assert lower_sdepth_power(preset("path:3"), 2) == 2
    assert lower_sdepth_power(parse_graph("cycle:3+path:2"), 1) == 2
    # connected bipartite non-tree: only the general floor is claimed
    assert lower_sdepth_power(preset("cycle:4"), 1) == 1
    # a tree component on top of a cycle still reaches p + 1
    mixed = parse_graph("cycle:4+path:2")
    assert lower_sdepth_power(mixed, 2) == mixed.bipartite_component_count() + 1


def test_power_bound_rejects_edgeless():
    with pytest.raises(InputError):
        lower_sdepth_power(Graph.make(3, []), 1)
    with pytest.raises(InputError):
        lower_sdepth_power(preset("path:3"), 0)


def test_stanley_verdict_quotient_large_power():
    report = stanley_verdict(KIND_S_MOD, preset("cycle:3"), 2)
    assert report.verdict == HOLDS
    assert report.oracle["depth"] == 0


def test_stanley_verdict_power():
    report = stanley_verdict(KIND_POWER, preset("path:3"), 2)
    assert report.verdict == HOLDS
    assert report.oracle["depth"] == 2
    assert report.bound == 2


def test_stanley_verdict_layer():
    report = stanley_verdict(KIND_LAYER, preset("path:2"), 1)
    assert report.verdict == HOLDS
    assert report.bound == 1


def test_zero_guard_matches_module():
    zeros = 0
    for n in range(1, 5):
        for graph in enumerate_labeled_graphs(n):
            for kind in KINDS:
                for k in range(4):
                    if k == 0 and kind != KIND_LAYER:
                        with pytest.raises(InputError):
                            module_for(graph, k, kind)
                        continue
                    module = module_for(graph, k, kind)
                    assert _module_is_zero(graph, k, kind) == module.is_zero()
                    zeros += module.is_zero()
    assert zeros == 2 * 3 * 4  # I^k and I^k/I^{k+1}, k = 1..3, edgeless n = 1..4


def test_oracles_find_zero_modules_in_their_basis(monkeypatch):
    """build_poset and homology_profile tell a zero module by its empty basis
    bitset, without the generator scan of ModulePresentation.is_zero."""
    zeros = [
        module
        for n in range(1, 5)
        for graph in enumerate_labeled_graphs(n)
        for kind in KINDS
        for k in range(1, 4)
        if (module := module_for(graph, k, kind)).is_zero()
    ]
    ideal = MonomialIdeal.make(2, [(2, 0), (1, 1)])
    zeros.append(ModulePresentation.make(2, ideal, ideal))  # J/J
    assert len(zeros) == 2 * 3 * 4 + 1

    def scan(self):
        raise AssertionError("ModulePresentation.is_zero was called")

    monkeypatch.setattr(ModulePresentation, "is_zero", scan)
    for module in zeros:
        for oracle in (build_poset, homology_profile):
            with pytest.raises(UndefinedValueError):
                oracle(module)
    layer = module_for(preset("path:3"), 1, KIND_LAYER)
    assert build_poset(layer).elements and homology_profile(layer).depth == 1


def test_stanley_verdict_errors():
    path, empty = preset("path:2"), Graph.make(3, [])
    for kind, graph, k in [("ring", path, 1), (KIND_S_MOD, path, 0),
                           (KIND_POWER, empty, 0), (KIND_LAYER, path, -1)]:
        with pytest.raises(InputError):
            stanley_verdict(kind, graph, k)
    for kind, k in [(KIND_POWER, 1), (KIND_LAYER, 2)]:
        with pytest.raises(UndefinedValueError):
            stanley_verdict(kind, empty, k)
    assert stanley_verdict(KIND_LAYER, empty, 0).verdict == HOLDS
    assert stanley_verdict(KIND_S_MOD, empty, 1).verdict == HOLDS


def test_stanley_verdict_builds_module_at_most_once(monkeypatch):
    """Only the Koszul depth scan or the sdepth fallback builds the module."""
    built = []

    def counted(*args):
        built.append(args)
        return module_for(*args)

    monkeypatch.setattr(bounds, "module_for", counted)
    sources = set()
    for n in range(1, 5):
        for graph in enumerate_labeled_graphs(n):
            for kind, k in [(KIND_LAYER, 0), *((kind, k) for kind in KINDS for k in {1, n})]:
                if _module_is_zero(graph, k, kind):
                    continue
                built.clear()
                report = stanley_verdict(kind, graph, k)
                koszul = report.oracle["depth_source"] == "koszul"
                fallback = "sdepth" in report.oracle
                assert len(built) == int(koszul or fallback)
                sources.add((koszul, fallback))
    assert len(sources) == 4  # each source of depth, with and without the fallback


def test_conjecture_check():
    # the spread conjecture's target n - l(I) is p, so the quotient verdict covers it
    for spec, k in (("cycle:4", 2), ("cycle:3", 1), ("path:3", 3)):
        graph = parse_graph(spec)
        assert stanley_verdict(KIND_S_MOD, graph, k).verdict == HOLDS
        result = sdepth_exact(module_for(graph, k, KIND_S_MOD), 200_000)
        assert result.value >= graph.num_vertices - analytic_spread_edge(graph)


def maximizing_pivot(graph):
    """The power-bound pivot as a search over all components: the one with an
    edge maximizing base + h, where base is 2 for a tree and 1 otherwise and
    h counts bipartite components after deleting it; ties go to the
    lexicographically least component.  Returns (pivot, bound)."""
    best, best_key = None, None
    for comp in graph.components():
        if not comp.edges:
            continue
        base = 2 if comp.tree else 1
        h = graph.delete_vertices(comp.vertices).bipartite_component_count()
        key = (base + h, [-v for v in comp.vertices])
        if best is None or key > best_key:
            best, best_key = comp, key
    return best, best_key[0]


def favored_by_components(graph):
    """A certified p+1 power bound: non-bipartite, or a tree component with an edge."""
    comps = graph.components()
    if any(not c.bipartite for c in comps):
        return True
    return any(c.edges and c.tree for c in comps)


def test_pivot_rule_matches_component_search():
    checked = 0
    for n in range(1, 6):
        for graph in enumerate_labeled_graphs(n):
            if not graph.has_edges():
                assert not _favored(graph)
                continue
            pivot, bound = maximizing_pivot(graph)
            assert pivot_component(graph) == pivot
            assert lower_sdepth_power(graph, 1) == bound
            assert _favored(graph) == favored_by_components(graph)
            checked += 1
    assert checked == 1094


def test_question_experiment():
    report = question_experiment(preset("cycle:4"), 1)
    assert report.verdict == EVIDENCE_FOR
    assert report.oracle["sdepth"] >= 2
    report = question_experiment(preset("path:4"), 2)
    assert report.verdict == EVIDENCE_FOR


def _oracle_says(monkeypatch, value, exact):
    """Make the exact oracle answer (value, exact); returns the modules it was asked."""
    asked = []

    def oracle(module, budget):
        asked.append(module)
        return SimpleNamespace(value=value, exact=exact)

    monkeypatch.setattr(bounds, "sdepth_exact", oracle)
    return asked


# depth(S/I) = 2 on path:4 is above the bound p = 1, so the verdict asks the oracle
@pytest.mark.parametrize(
    "value, exact, verdict",
    [(2, False, HOLDS), (1, True, FAILS), (1, False, INCONCLUSIVE), (0, False, INCONCLUSIVE)],
)
def test_stanley_verdict_oracle_branches(monkeypatch, capsys, value, exact, verdict):
    asked = _oracle_says(monkeypatch, value, exact)
    report = stanley_verdict(KIND_S_MOD, preset("path:4"), 1)
    (module,) = asked
    assert report.verdict == verdict
    assert list(report.oracle.items()) == [
        ("depth", 2), ("depth_source", "koszul"), ("sdepth_bound", 1),
        ("sdepth_bound_source", "quotient-lower-bound"), ("sdepth", value), ("sdepth_exact", exact),
    ]
    if verdict == FAILS:
        assert list(report.witness.items()) == [
            ("module", module.to_json()), ("depth", 2), ("sdepth", value)
        ]
    else:
        assert report.witness is None
    code = cli.main(["certify", "--graph", "path:4", "--k", "1", "--kind", KIND_S_MOD])
    assert f"verdict {verdict} " in capsys.readouterr().out
    assert code == (1 if verdict == FAILS else 0)


@pytest.mark.parametrize(
    "value, exact, verdict",
    [(2, False, EVIDENCE_FOR), (1, True, COUNTEREXAMPLE), (1, False, INCONCLUSIVE_EVIDENCE)],
)
def test_question_experiment_oracle_branches(monkeypatch, value, exact, verdict):
    asked = _oracle_says(monkeypatch, value, exact)
    report = question_experiment(preset("cycle:4"), 1)
    (module,) = asked
    assert report.verdict == verdict
    assert list(report.oracle.items()) == [("sdepth", value), ("sdepth_exact", exact)]
    if verdict == COUNTEREXAMPLE:
        assert list(report.witness.items()) == [("module", module.to_json()), ("sdepth", value)]
    else:
        assert report.witness is None


def test_question_preconditions():
    with pytest.raises(InputError):
        question_experiment(preset("cycle:3"), 1)
    with pytest.raises(InputError):
        question_experiment(parse_graph("path:2+path:2"), 1)
    with pytest.raises(InputError):
        question_experiment(Graph.make(2, []), 1)


def test_reports_are_serializable():
    report = stanley_verdict(KIND_S_MOD, preset("path:3"), 2)
    obj = report.to_json()
    assert obj["claim"] == "stanley-inequality"
    assert obj["verdict"] == HOLDS
    assert "graph" in obj["instance"]


def test_power_verdict_classifies_a_fresh_graph_once():
    Graph.components.cache_clear()
    graph = preset("path:3")
    before = Graph.components.cache_info()
    report = stanley_verdict(KIND_POWER, graph, 2)
    after = Graph.components.cache_info()
    assert report.verdict == HOLDS
    assert after.misses - before.misses == 1
