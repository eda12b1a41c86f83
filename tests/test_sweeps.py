"""Labeled-graph sweeps: isomorphism classes, per-class rows, the worker pool."""

import json
import os
import subprocess
import sys

import pytest

import stanley_lab
from stanley_lab import InputError, constructions, sweeps
from stanley_lab.bounds import (
    HOLDS,
    KIND_POWER,
    KIND_S_MOD,
    depth_by_trung,
    lower_sdepth_power,
    lower_sdepth_quotient_layers,
    lower_sdepth_s_mod_power,
    module_for,
    stanley_verdict,
)
from stanley_lab.depth import depth_exact
from stanley_lab.graphs import Graph, enumerate_labeled_graphs
from stanley_lab.sdepth import sdepth_exact
from stanley_lab.sweeps import (
    isomorphism_classes,
    run_sweep,
    sweep_layer_bound,
    sweep_limit_depth,
    sweep_power_bound,
    sweep_s_mod_bound,
    sweep_stanley_power,
    sweep_stanley_s_mod,
)

BUDGET = 2_000_000


# The per-labeled-graph sweeps the per-class ones replaced: every oracle runs
# on every labeled graph, so the parity test below checks the relabeling
# argument instead of assuming it.


def _all_graphs(nmax):
    out = []
    for n in range(1, nmax + 1):
        out.extend(enumerate_labeled_graphs(n))
    return sorted(out, key=lambda graph: (graph.n, graph.edges))


def _trung_ks(n):
    return tuple(sorted({max(n - 1, 1), max(n, 1)}))


def _favored(graph):
    return graph.has_edges() and (
        lower_sdepth_power(graph, 1) > graph.bipartite_component_count()
    )


def reference_layer_bound(nmax, ks, budget):
    rows = []
    for graph in _all_graphs(nmax):
        p = lower_sdepth_quotient_layers(graph)
        for k in ks:
            module = module_for(graph, k, "layer")
            if module.is_zero():
                continue
            result = sdepth_exact(module, budget)
            rows.append(
                {
                    "graph": graph.to_json(),
                    "k": k,
                    "bound": p,
                    "sdepth": result.value,
                    "exact": result.exact,
                    "ok": result.exact and result.value >= p,
                }
            )
    return rows


def reference_s_mod_bound(nmax, ks, budget):
    rows = []
    for graph in _all_graphs(nmax):
        p = lower_sdepth_s_mod_power(graph)
        for k in ks:
            module = module_for(graph, k, KIND_S_MOD)
            if module.is_zero():
                continue
            result = sdepth_exact(module, budget)
            rows.append(
                {
                    "graph": graph.to_json(),
                    "k": k,
                    "bound": p,
                    "sdepth": result.value,
                    "exact": result.exact,
                    "ok": result.exact and result.value >= p,
                }
            )
    return rows


def reference_limit_depth(nmax):
    rows = []
    for graph in _all_graphs(nmax):
        for k in _trung_ks(graph.n):
            expected = depth_by_trung(graph, k)
            module = module_for(graph, k, KIND_S_MOD)
            measured = depth_exact(module)
            rows.append(
                {
                    "graph": graph.to_json(),
                    "k": k,
                    "expected": expected,
                    "depth": measured,
                    "ok": expected is not None and measured == expected,
                }
            )
    return rows


def reference_stanley(nmax, kind, budget, keep):
    rows = []
    for graph in _all_graphs(nmax):
        if not keep(graph):
            continue
        for k in _trung_ks(graph.n):
            report = stanley_verdict(kind, graph, k, budget)
            rows.append(
                {
                    "graph": graph.to_json(),
                    "k": k,
                    "verdict": report.verdict,
                    "ok": report.verdict == HOLDS,
                }
            )
    return rows


def reference_power_bound(nmax, ks, budget):
    rows = []
    for graph in _all_graphs(nmax):
        if not _favored(graph):
            continue
        p = graph.bipartite_component_count()
        for k in ks:
            module = module_for(graph, k, KIND_POWER)
            result = sdepth_exact(module, budget)
            rows.append(
                {
                    "graph": graph.to_json(),
                    "k": k,
                    "bound": p + 1,
                    "sdepth": result.value,
                    "exact": result.exact,
                    "ok": result.value >= p + 1,
                }
            )
    return rows


def reference_sweep():
    """The six claims at the acceptance-suite parameters, graph by graph."""
    return {
        "layer": reference_layer_bound(4, (0, 1, 2), BUDGET),
        "quotient": reference_s_mod_bound(4, (1, 2, 3), BUDGET),
        "limit-depth": reference_limit_depth(4),
        "stanley-quotient": reference_stanley(4, KIND_S_MOD, BUDGET, lambda g: True),
        "power": reference_power_bound(4, (1, 2), BUDGET),
        "stanley-power": reference_stanley(4, KIND_POWER, BUDGET, _favored),
    }


def test_per_class_sweeps_match_per_graph_reference():
    per_class = {
        "layer": sweep_layer_bound(4, (0, 1, 2), BUDGET),
        "quotient": sweep_s_mod_bound(4, (1, 2, 3), BUDGET),
        "limit-depth": sweep_limit_depth(4),
        "stanley-quotient": sweep_stanley_s_mod(4, BUDGET),
        "power": sweep_power_bound(4, (1, 2), BUDGET),
        "stanley-power": sweep_stanley_power(4, BUDGET),
    }
    # JSON text compares the key order of every row, not only its contents.
    assert json.dumps(per_class) == json.dumps(reference_sweep())


@pytest.mark.parametrize("n, classes", [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34), (6, 156)])
def test_class_counts_match_oeis_a000088(n, classes):
    pairs = isomorphism_classes(n)
    assert len(pairs) == 2 ** (n * (n - 1) // 2)
    assert len({rep.edges for _, rep in pairs}) == classes


def test_representative_is_first_of_its_class_in_sorted_order():
    pairs = isomorphism_classes(4)
    graphs = [graph for graph, _ in pairs]
    assert graphs == sorted(graphs, key=lambda g: g.edges)
    seen = set()
    for graph, rep in pairs:
        if rep.edges not in seen:
            assert rep is graph
            seen.add(rep.edges)
        assert len(rep.edges) == len(graph.edges)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_classes_agree_with_networkx(n):
    nx = pytest.importorskip("networkx")

    def as_nx(graph):
        g = nx.Graph()
        g.add_nodes_from(range(1, graph.n + 1))
        g.add_edges_from(graph.edges)
        return g

    pairs = isomorphism_classes(n)
    reps = {rep.edges: as_nx(rep) for _, rep in pairs}
    for graph, rep in pairs:
        assert nx.is_isomorphic(as_nx(graph), reps[rep.edges])
    reps = list(reps.values())
    for i, a in enumerate(reps):
        for b in reps[i + 1:]:
            assert not nx.is_isomorphic(a, b)


def test_run_sweep_n5_rows():
    results = run_sweep(5, 1)
    assert {claim: len(rows) for claim, rows in results.items()} == {
        "layer-lower-bound": 2193,
        "limit-depth": 2197,
        "power-lower-bound": 1006,
        "quotient-lower-bound": 1099,
        "stanley-inequality-power": 2012,
        "stanley-inequality-quotient": 2197,
    }
    assert all(row["ok"] for rows in results.values() for row in rows)


def test_classes_are_built_once_per_n_and_sweep(monkeypatch):
    built = []
    real = sweeps.enumerate_labeled_graphs
    monkeypatch.setattr(sweeps, "enumerate_labeled_graphs", lambda n: built.append(n) or real(n))
    assert constructions._SESSION.get() is None
    first = run_sweep(4, 2)
    assert built == [1, 2, 3, 4]
    # the memo lives for one sweep: the next one builds the classes again
    assert run_sweep(4, 2) == first
    assert built == [1, 2, 3, 4] * 2


def test_one_sdepth_answer_per_module_per_sweep(monkeypatch):
    """The layer claim at k = 0 and the quotient claim at k = 1 both ask for
    S/I: each module's sdepth is computed once per sweep, and the memo is
    empty when the sweep returns."""
    asked = []
    real = sweeps.sdepth_exact
    monkeypatch.setattr(sweeps, "sdepth_exact", lambda module, budget: asked.append(module) or real(module, budget))
    first = run_sweep(4, 2)
    assert len(asked) == len(set(asked)) == 86  # 108 claims, 22 of them on a shared S/I
    assert constructions._SESSION.get() is None
    assert run_sweep(4, 2) == first and len(asked) == 2 * 86


def test_direct_claim_sweep_keeps_no_memo(monkeypatch):
    """A claim sweep called on its own keeps no class table and no sdepth
    answer once it returns: the same call again builds and asks everything anew."""
    built, asked = [], []
    real_enumerate, real_sdepth = sweeps.enumerate_labeled_graphs, sweeps.sdepth_exact
    monkeypatch.setattr(sweeps, "enumerate_labeled_graphs", lambda n: built.append(n) or real_enumerate(n))
    monkeypatch.setattr(sweeps, "sdepth_exact", lambda module, budget: asked.append(module) or real_sdepth(module, budget))
    first = sweep_layer_bound(3, [0, 1])
    assert built == [1, 2, 3] and len(asked) == len(set(asked)) == 11
    assert constructions._SESSION.get() is None
    assert sweep_layer_bound(3, [0, 1]) == first
    assert built == [1, 2, 3] * 2 and asked == asked[:11] * 2


def test_worker_pool_gives_the_same_rows():
    assert run_sweep(3, 1, jobs=2) == run_sweep(3, 1, jobs=1)


@pytest.mark.parametrize("jobs, workers", [(2, 2), (64, len(sweeps._SWEEPS))])
def test_worker_pool_is_capped_at_the_claim_count(monkeypatch, jobs, workers):
    """A fork-started pool forks every worker it may use; run in this process
    with a stand-in pool, so no worker is started."""
    import concurrent.futures

    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    assert run_sweep(2, 1, jobs=jobs) == run_sweep(2, 1)
    assert sizes == [workers]


@pytest.mark.parametrize("nmax", [0, 7])
def test_nmax_out_of_range_is_rejected(nmax):
    with pytest.raises(InputError):
        run_sweep(nmax, 1)
    with pytest.raises(InputError):
        sweep_limit_depth(nmax)


def test_import_leaves_the_worker_pool_out():
    code = (
        "import sys, stanley_lab, stanley_lab.cli\n"
        "assert 'concurrent.futures' not in sys.modules, 'pool imported'\n"
    )
    # The child imports the same package as this process, installed or not.
    src = os.path.dirname(os.path.dirname(stanley_lab.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr


def test_per_class_serializes_each_labeled_graph_once(monkeypatch):
    calls = []
    to_json = Graph.to_json

    def counted(graph):
        calls.append(graph)
        return to_json(graph)

    monkeypatch.setattr(Graph, "to_json", counted)
    rows = sweep_layer_bound(4, range(3))
    labeled = sum(len(isomorphism_classes(n)) for n in range(1, 5))
    assert len(calls) == len(set(calls)) == labeled == 75 < len(rows)
