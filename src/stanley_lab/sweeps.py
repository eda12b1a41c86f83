"""Exhaustive desk-scale sweeps: every claim checked on every small instance.

Each driver returns one row per instance with an ``ok`` flag, so the CLI can
aggregate them into a table and the acceptance suite can assert them.  Rows
are produced in a deterministic order (sorted instance keys) regardless of
worker count.

The graph sweeps give a row to every labeled graph on at most ``nmax``
vertices but run each claim once per isomorphism class.  Relabeling the
vertices permutes the variables of S, a graded automorphism that carries
I(G)^k to I(G')^k and every Stanley decomposition, Koszul complex and
bipartite component of one graph to the other's.  So p, depth and sdepth of
S/I^k, I^k and I^k/I^{k+1}, and the Stanley verdicts, are the same for every
graph of a class, and a labeled graph's row carries its class
representative's values.  A budget-truncated sdepth is a bound the search
found for the representative, which holds for the whole class.
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import Callable, Sequence

from .bounds import (
    HOLDS,
    KIND_LAYER,
    KIND_POWER,
    KIND_S_MOD,
    _module_is_zero,
    _sdepth_bound_with_source,
    depth_by_trung,
    lower_sdepth_power,
    module_for,
    question_experiment,
    stanley_verdict,
)
from .constructions import _per_request
from .depth import depth_exact
from .errors import InputError
from .graphs import Graph, enumerate_labeled_graphs, parse_graph
from .sdepth import DEFAULT_BUDGET, sdepth_exact
from .stanley import ModulePresentation

QUESTION_GRAPHS = ("cycle:4", "cycle:6", "path:4", "path:5", "star:3", "star:4")

# The graph sweeps visit all 2^C(n,2) labeled graphs: 32,768 at n = 6, and
# about 2M (with 5,040 images per class) at n = 7.
MAX_SWEEP_VERTICES = 6


def _check_nmax(nmax: int) -> None:
    if not 1 <= nmax <= MAX_SWEEP_VERTICES:
        raise InputError(f"nmax must be in 1..{MAX_SWEEP_VERTICES}, got {nmax}")


@_per_request
def isomorphism_classes(n: int) -> tuple[tuple[Graph, Graph], ...]:
    """Every labeled graph on 1..n in sorted edge order, each paired with the
    first graph of its isomorphism class in that order.

    The first time a class is met, its graph's images under all n! vertex
    permutations are marked with it; a graph already marked is in that class.
    Memoized per n for the outermost sweep call (``constructions._per_request``),
    so the claims of one ``run_sweep`` share it and nothing outlives the call.
    """
    pairs = list(combinations(range(1, n + 1), 2))
    bit = {pair: 1 << i for i, pair in enumerate(pairs)}
    images = [
        [bit[min(s[i - 1], s[j - 1]), max(s[i - 1], s[j - 1])] for i, j in pairs]
        for s in permutations(range(1, n + 1))
    ]
    rep_of: dict[int, Graph] = {}
    out = []
    # a graph's position in the bitmask-order enumeration is its edge mask
    for mask, graph in sorted(enumerate(enumerate_labeled_graphs(n)), key=lambda p: p[1].edges):
        rep = rep_of.get(mask)
        if rep is None:
            rep = graph
            set_bits = [i for i in range(len(pairs)) if mask >> i & 1]
            for image in images:
                rep_of[sum(image[i] for i in set_bits)] = rep
        out.append((graph, rep))
    return tuple(out)


def _per_class(nmax: int, values: Callable[[Graph], list[dict]]) -> list[dict]:
    """Rows ``{"graph": ..., **value}`` for every labeled graph on at most nmax
    vertices, in sorted order, with ``values`` run once per class."""
    _check_nmax(nmax)
    rows = []
    for n in range(1, nmax + 1):
        memo: dict[Graph, list[dict]] = {}
        for graph, rep in isomorphism_classes(n):
            if rep not in memo:
                memo[rep] = values(rep)
            obj = graph.to_json()
            rows.extend({"graph": obj, **v} for v in memo[rep])
    return rows


@_per_request
def _sdepth(module: ModulePresentation, budget: int) -> tuple[int, bool]:
    """(value, exact), the one oracle call of the three sdepth-bound claims, memoized like
    ``isomorphism_classes``: one ``run_sweep`` asks once for S/I, layer k = 0 and quotient k = 1."""
    result = sdepth_exact(module, budget)
    return result.value, result.exact


def _sdepth_bound_sweep(nmax: int, ks: Sequence[int], kind: str, budget: int) -> list[dict]:
    """sdepth(module) >= the kind's certified bound, exactly, per nonzero module."""

    def values(graph: Graph) -> list[dict]:
        out = []
        for k in ks:
            if _module_is_zero(graph, k, kind):
                continue
            p = _sdepth_bound_with_source(graph, k, kind)[0]
            value, exact = _sdepth(module_for(graph, k, kind), budget)
            out.append(
                {"k": k, "bound": p, "sdepth": value, "exact": exact, "ok": exact and value >= p}
            )
        return out

    return _per_class(nmax, values)


def sweep_layer_bound(
    nmax: int, ks: Sequence[int], budget: int = DEFAULT_BUDGET
) -> list[dict]:
    """sdepth(I^k/I^{k+1}) >= p on every labeled graph, exactness required."""
    return _sdepth_bound_sweep(nmax, ks, KIND_LAYER, budget)


def sweep_s_mod_bound(
    nmax: int, ks: Sequence[int], budget: int = DEFAULT_BUDGET
) -> list[dict]:
    """sdepth(S/I^k) >= p (= n - l(I)) on every labeled graph."""
    return _sdepth_bound_sweep(nmax, ks, KIND_S_MOD, budget)


def _trung_ks(n: int) -> tuple[int, ...]:
    return tuple(sorted({max(n - 1, 1), max(n, 1)}))


def sweep_limit_depth(nmax: int) -> list[dict]:
    """depth(S/I^k) equals the bipartite component count once k >= n - 1."""

    def values(graph: Graph) -> list[dict]:
        out = []
        for k in _trung_ks(graph.n):
            expected = depth_by_trung(graph, k)
            measured = depth_exact(module_for(graph, k, KIND_S_MOD))
            out.append(
                {
                    "k": k,
                    "expected": expected,
                    "depth": measured,
                    "ok": expected is not None and measured == expected,
                }
            )
        return out

    return _per_class(nmax, values)


def _favored(graph: Graph) -> bool:
    """Graphs with a certified p+1 power bound."""
    return graph.has_edges() and (
        lower_sdepth_power(graph, 1) > graph.bipartite_component_count()
    )


def _stanley_sweep(
    nmax: int, kind: str, budget: int, keep: Callable[[Graph], bool]
) -> list[dict]:
    """Stanley's inequality for the kind at k in {n-1, n}, on the kept graphs."""

    def values(graph: Graph) -> list[dict]:
        if not keep(graph):
            return []
        out = []
        for k in _trung_ks(graph.n):
            report = stanley_verdict(kind, graph, k, budget)
            out.append({"k": k, "verdict": report.verdict, "ok": report.verdict == HOLDS})
        return out

    return _per_class(nmax, values)


def sweep_stanley_s_mod(nmax: int, budget: int = DEFAULT_BUDGET) -> list[dict]:
    """Stanley's inequality for S/I^k at the large powers k in {n-1, n}."""
    return _stanley_sweep(nmax, KIND_S_MOD, budget, lambda graph: True)


def sweep_power_bound(
    nmax: int, ks: Sequence[int], budget: int = DEFAULT_BUDGET
) -> list[dict]:
    """sdepth(I^k) >= p + 1 on the favored classes."""

    def values(graph: Graph) -> list[dict]:
        if not _favored(graph):
            return []
        p = graph.bipartite_component_count()
        out = []
        for k in ks:
            value, exact = _sdepth(module_for(graph, k, KIND_POWER), budget)
            out.append(
                {
                    "k": k,
                    "bound": p + 1,
                    "claimed": lower_sdepth_power(graph, k),
                    "sdepth": value,
                    "exact": exact,
                    "ok": value >= p + 1,
                }
            )
        return out

    return _per_class(nmax, values)


def sweep_stanley_power(nmax: int, budget: int = DEFAULT_BUDGET) -> list[dict]:
    """Stanley's inequality for I^k on the favored classes at k in {n-1, n}."""
    return _stanley_sweep(nmax, KIND_POWER, budget, _favored)


def question_report(
    graph_specs: Sequence[str] = QUESTION_GRAPHS,
    ks: Sequence[int] = (1, 2),
    budget: int = DEFAULT_BUDGET,
) -> list[dict]:
    """Evidence rows for the bipartite power question on the standard panel."""
    rows = []
    for spec in graph_specs:
        graph = parse_graph(spec)
        for k in ks:
            report = question_experiment(graph, k, budget)
            rows.append(
                {
                    "graph": spec,
                    "k": k,
                    "sdepth": report.oracle["sdepth"],
                    "exact": report.oracle["sdepth_exact"],
                    "verdict": report.verdict,
                }
            )
    return rows


_SWEEPS: dict[str, Callable[..., list[dict]]] = {
    "layer-lower-bound": lambda nmax, kmax, budget: sweep_layer_bound(
        nmax, range(0, kmax + 1), budget
    ),
    "quotient-lower-bound": lambda nmax, kmax, budget: sweep_s_mod_bound(
        nmax, range(1, kmax + 1), budget
    ),
    "limit-depth": lambda nmax, kmax, budget: sweep_limit_depth(nmax),
    "stanley-inequality-quotient": lambda nmax, kmax, budget: sweep_stanley_s_mod(
        nmax, budget
    ),
    "power-lower-bound": lambda nmax, kmax, budget: sweep_power_bound(
        nmax, range(1, kmax + 1), budget
    ),
    "stanley-inequality-power": lambda nmax, kmax, budget: sweep_stanley_power(
        nmax, budget
    ),
}


def _run_one(args: tuple) -> tuple[str, list[dict]]:
    name, nmax, kmax, budget = args
    return name, _SWEEPS[name](nmax, kmax, budget)


@_per_request
def run_sweep(
    nmax: int, kmax: int, budget: int = DEFAULT_BUDGET, jobs: int = 1
) -> dict[str, list[dict]]:
    """All claim sweeps at the given size; deterministic aggregation by claim name."""
    _check_nmax(nmax)
    tasks = [(name, nmax, kmax, budget) for name in sorted(_SWEEPS)]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        # a fork-started pool forks all its workers at the first submit
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            results = dict(pool.map(_run_one, tasks))
    else:
        results = dict(map(_run_one, tasks))
    return {name: results[name] for name in sorted(results)}
