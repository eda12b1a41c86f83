"""Certified lower bounds and verdict reports for edge-ideal powers.

Each public operation encodes one closed-form claim about sdepth or depth of
S/I^k, I^k, or I^k/I^{k+1} for an edge ideal I = I(G).  Bounds are emitted
from graph invariants alone (fast path); oracle cross-checks are opt-in via a
budget.  A "fails" verdict always carries a machine-checkable witness and is
treated as release-blocking by the CLI.
"""

from __future__ import annotations

from typing import NamedTuple

from .depth import depth_exact
from .errors import InputError, UndefinedValueError
from .graphs import Component, Graph
from .sdepth import DEFAULT_BUDGET, sdepth_exact
from .stanley import ModulePresentation

KIND_S_MOD = "s-mod-power"
KIND_POWER = "power"
KIND_LAYER = "layer"
KINDS = (KIND_S_MOD, KIND_POWER, KIND_LAYER)

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive-budget"
EVIDENCE_FOR = "evidence-for"
COUNTEREXAMPLE = "counterexample"
INCONCLUSIVE_EVIDENCE = "inconclusive"


class BoundReport(NamedTuple):
    claim: str
    instance: dict
    bound: int | None
    oracle: dict
    verdict: str
    witness: dict | None = None

    def to_json(self) -> dict:
        return self._asdict()


def _check_power(k: int, kind: str) -> None:
    if kind == KIND_S_MOD and k < 1:
        raise InputError("S/I^k needs k >= 1")
    if kind == KIND_POWER and k < 1:
        raise InputError("I^k as a module needs k >= 1")
    if kind == KIND_LAYER and k < 0:
        raise InputError("the layer I^k/I^{k+1} needs k >= 0")
    if kind not in KINDS:
        raise InputError(f"unknown module kind {kind!r}; expected one of {KINDS}")


def module_for(graph: Graph, k: int, kind: str) -> ModulePresentation:
    """The presentation named by kind: S/I^k, I^k, or I^k/I^{k+1}."""
    _check_power(k, kind)
    ideal = graph.edge_ideal()
    if kind == KIND_S_MOD:
        return ModulePresentation.quotient_ring(ideal**k)
    if kind == KIND_POWER:
        return ModulePresentation.of_ideal(ideal**k)
    return ModulePresentation.power_layer(ideal, k)


def _module_is_zero(graph: Graph, k: int, kind: str) -> bool:
    """Whether ``module_for(graph, k, kind)`` is zero.  I(G) is never the unit
    ideal, so only I^k and I^k/I^{k+1} with k >= 1 can be: when G has no edge."""
    return kind != KIND_S_MOD and k >= 1 and not graph.has_edges()


def _instance(graph: Graph, k: int, kind: str) -> dict:
    return {"graph": graph.to_json(), "k": k, "kind": kind}


def analytic_spread_edge(graph: Graph) -> int:
    """Analytic spread of an edge ideal: vertex count minus bipartite components."""
    return graph.num_vertices - graph.bipartite_component_count()


def lower_sdepth_quotient_layers(graph: Graph) -> int:
    """Certified bound sdepth(I^k/I^{k+1}) >= p for every k >= 0."""
    return graph.bipartite_component_count()


def lower_sdepth_s_mod_power(graph: Graph) -> int:
    """Certified bound sdepth(S/I^k) >= p for every k >= 1.

    This is also the target n - l(I) of the spread conjecture, which is p by
    the definition of ``analytic_spread_edge``, so the quotient verdict
    covers that conjecture.
    """
    return graph.bipartite_component_count()


def depth_by_trung(graph: Graph, k: int) -> int | None:
    """Closed form for large powers: depth(S/I^k) equals the bipartite
    component count once k >= |V| - 1; below that threshold no claim is made."""
    _check_power(k, KIND_S_MOD)
    if k >= graph.num_vertices - 1:
        return graph.bipartite_component_count()
    return None


def _lifts(comp: Component) -> bool:
    """Whether filtering I^k along comp reaches p + 1: comp is a tree or
    not bipartite."""
    return comp.tree or not comp.bipartite


def pivot_component(graph: Graph) -> Component:
    """The component with an edge that the power bound filters along.

    Filtering along a component H gives base(H) + h(H), where base(H) is 2
    for a tree (leaf-splitting recursion) and 1 otherwise (any nonzero
    monomial ideal), and h(H) counts the bipartite components left after
    deleting V(H).  Deleting a whole component leaves the others intact, so
    h(H) = p - [H bipartite], and base(H) + h(H) is p + 1 when H is a tree
    or non-bipartite, and p otherwise.  The pivot is the first component
    reaching p + 1, else the first component with an edge.
    """
    comps = [c for c in graph.components() if c.edges]
    if not comps:
        raise InputError("the edge ideal is zero; I^k has no elements")
    return next((c for c in comps if _lifts(c)), comps[0])


def lower_sdepth_power(graph: Graph, k: int) -> int:
    """Certified bound for sdepth(I^k), k >= 1, by filtering along the pivot.

    It is p+1 whenever some component is non-bipartite or a tree with an
    edge; otherwise it is p, and no more is claimed: whether connected
    bipartite non-tree graphs allow 2 is an open question, never encoded as
    a bound.
    """
    _check_power(k, KIND_POWER)
    pivot = pivot_component(graph)
    return graph.bipartite_component_count() + int(_lifts(pivot))


def _depth_with_source(
    graph: Graph, k: int, kind: str
) -> tuple[int, str, ModulePresentation | None]:
    """The depth, its source, and the module if the Koszul scan built it."""
    shortcut = depth_by_trung(graph, k) if kind != KIND_LAYER else None
    if shortcut is not None:
        # depth(I^k) = depth(S/I^k) + 1, as I^k != 0 (``stanley_verdict`` rejects a zero module)
        return shortcut + int(kind == KIND_POWER), "limit-depth-formula", None
    module = module_for(graph, k, kind)
    return depth_exact(module), "koszul", module


def _sdepth_bound_with_source(graph: Graph, k: int, kind: str) -> tuple[int, str]:
    if kind == KIND_POWER:
        return lower_sdepth_power(graph, k), "power-lower-bound"
    if kind == KIND_S_MOD:
        return lower_sdepth_s_mod_power(graph), "quotient-lower-bound"
    return lower_sdepth_quotient_layers(graph), "layer-lower-bound"


def _oracle_verdict(
    report: BoundReport, module: ModulePresentation, budget: int, threshold: int,
    verdicts: tuple[str, str, str], fields: dict,
) -> BoundReport:
    """report with the exact oracle's answer added to its oracle, and its verdict.

    The verdict is the first when the value reaches threshold, the second when
    an exact value falls short, and the third (a truncated search) otherwise.
    Only the second carries a witness: the module, fields, and the value.
    """
    result = sdepth_exact(module, budget)
    report.oracle.update(sdepth=result.value, sdepth_exact=result.exact)
    if result.value >= threshold:
        return report._replace(verdict=verdicts[0])
    if not result.exact:
        return report._replace(verdict=verdicts[2])
    witness = {"module": module.to_json(), **fields, "sdepth": result.value}
    return report._replace(verdict=verdicts[1], witness=witness)


def stanley_verdict(
    kind: str, graph: Graph, k: int, budget: int = DEFAULT_BUDGET
) -> BoundReport:
    """Decide depth <= sdepth for the chosen module.

    The verdict is "holds" as soon as the theorem-backed sdepth bound reaches
    the depth; otherwise the exact oracle is consulted.  Only an exact oracle
    value below the depth yields "fails" (with a witness); a truncated search
    below the depth is "inconclusive-budget".
    """
    _check_power(k, kind)
    if _module_is_zero(graph, k, kind):
        raise UndefinedValueError("zero module: Stanley's inequality is vacuous")
    depth, depth_source, module = _depth_with_source(graph, k, kind)
    bound, bound_source = _sdepth_bound_with_source(graph, k, kind)
    oracle = {"depth": depth, "depth_source": depth_source,
              "sdepth_bound": bound, "sdepth_bound_source": bound_source}
    report = BoundReport("stanley-inequality", _instance(graph, k, kind), bound, oracle, HOLDS)
    if bound >= depth:
        return report
    if module is None:
        module = module_for(graph, k, kind)
    return _oracle_verdict(
        report, module, budget, depth, (HOLDS, FAILS, INCONCLUSIVE), {"depth": depth}
    )


def question_experiment(
    graph: Graph, k: int, budget: int = DEFAULT_BUDGET
) -> BoundReport:
    """Probe sdepth(I^k) >= 2 for a connected bipartite graph with an edge.

    This is experimental evidence only; the verdict vocabulary is
    evidence-for / counterexample / inconclusive, never "holds".
    """
    _check_power(k, KIND_POWER)
    if not graph.has_edges():
        raise InputError("the graph must have at least one edge")
    comps = graph.components()
    if len(comps) != 1:
        raise InputError("the graph must be connected")
    if not comps[0].bipartite:
        raise InputError("the graph must be bipartite")
    instance = _instance(graph, k, KIND_POWER)
    report = BoundReport("bipartite-power-question", instance, 2, {}, EVIDENCE_FOR)
    return _oracle_verdict(
        report, module_for(graph, k, KIND_POWER), budget, 2,
        (EVIDENCE_FOR, COUNTEREXAMPLE, INCONCLUSIVE_EVIDENCE), {},
    )
