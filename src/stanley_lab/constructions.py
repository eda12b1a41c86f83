"""Explicit, verifier-checked Stanley decompositions realizing the bounds.

Four generators of certificates:

* ``decompose_layer``       -- I^k/I^{k+1} with sdepth >= p, by peeling one
  bipartite component at a time and tensoring layer decompositions of the
  factors; base cases are oracle searches at the guaranteed targets.
* ``decompose_s_mod_power`` -- S/I^k with sdepth >= p, by concatenating the
  layer decompositions for j < k.
* ``decompose_power_tree``  -- I^k with sdepth >= 2 for a tree, by the
  leaf-splitting recursion on monomials: x_1-free part, x_1-multiples without
  x_2, and x_1 x_2 times the previous power.
* ``decompose_power_general`` -- I^k for any graph with an edge, by filtering
  along the powers of one component's ideal and tensoring each filtration
  layer.

``DECOMPOSE`` maps each module kind to its generator.  Every module of a
graph's ideal comes from ``module_for``, which also rejects a k too small.

Everything lives in the ambient ring S = K[x_1..x_n]: every subproblem is the
edge ideal of an induced or vertex-deleted ``Graph`` (which keeps n), and every
piece is a presentation over all n variables.  A variable outside a piece's
ideal acts freely in it, so the piece's decomposition already is its free
extension: ``tensor`` intersects the Z sets of factors that leave each other's
variables free, and ``pin`` fixes a free variable at exponent 0; they and
``shift`` derive each piece's module, and ``concat`` is given the whole's.  An oracle
search for a subgraph H counts the n - |V(H)| variables off H toward every
rho, so it runs at the guaranteed target plus n - |V(H)|; isolated vertices
of H count toward the guarantee itself.  Every oracle search takes one path,
on the plain module of its subgraph: ``build_poset``, ``search_partition``
and ``partition_to_decomposition``.

Every assembled certificate and every intermediate piece is verified once per
request: each public call opens a session for its request only (nested calls
join it), one memo of the subproblems, each built once, and of the verified
certificates (a rejection is never kept); ``sweeps`` keeps its memos in the
same sessions.  ``_assembled`` proves a concat and its pieces not yet verified
in one ``verify`` walk given the pieces, and records them there.  Every oracle
certificate is proven where a public call returns it, by ``_checked``, or as
the piece it becomes: the ``pin``, ``shift`` or ``tensor`` image that an
assembly's walk proves (a rejected walk ``_checked``s each piece alone).
A failed check or a failed search at a theorem-guaranteed target raises
``ContradictionError`` because existence is proven, so the only honest
explanations are a bug or a counterexample.
"""

from __future__ import annotations

from contextvars import ContextVar
from functools import wraps
from typing import Iterable

from .bounds import KIND_LAYER, KIND_POWER, KIND_S_MOD, _module_is_zero, module_for, pivot_component
from .errors import BudgetExceededError, ContradictionError, InputError
from .graphs import Component, Graph
from .sdepth import (
    DEFAULT_BUDGET,
    build_poset,
    partition_to_decomposition,
    sdepth_exact,
    search_partition,
)
from .stanley import (
    ModulePresentation,
    StanleyDecomposition,
    StanleySpace,
    concat,
    pin,
    shared_z,
    shift,
    tensor,
    verify,
)


# The open request's memo (see ``_per_request`` and ``_checked``), else None.
_SESSION: ContextVar[dict | None] = ContextVar("_SESSION", default=None)
_MISS = object()  # what a session holds for a key it has not kept


def _per_request(build):
    """Memoize by arguments for the rest of the request; exceptions are not kept.
    The outermost call opens the request's session and closes it on exit."""
    @wraps(build)
    def run(*args, **kwargs):
        session = _SESSION.get()
        if session is None:
            token = _SESSION.set({})
            try:
                return run(*args, **kwargs)
            finally:
                _SESSION.reset(token)
        key = (build, args, tuple(kwargs.items()))
        if (value := session.get(key, _MISS)) is _MISS:
            value = session[key] = build(*args, **kwargs)
        return value
    return run


def _checked(dec: StanleyDecomposition, context: str) -> StanleyDecomposition:
    """dec once ``verify`` accepts it, verified once per request: the session
    keeps ("verified", dec), and a failure names context and is not kept."""
    session = _SESSION.get()
    if ("verified", dec) not in session:
        report = verify(dec)
        if not report.valid:
            raise ContradictionError(
                f"{context}: certificate failed verification ({report.failure} at {report.witness})"
            )
        session["verified", dec] = dec
    return session["verified", dec]


def _assembled(module: ModulePresentation, pieces: list, context: str) -> StanleyDecomposition:
    """The concat of the (piece, context) pairs against module, and each piece,
    checked: one ``verify`` walk given the pieces proves them all, or after a
    rejection each ``_checked`` verifies on its own and names the first bad one."""
    decs = [dec for dec, _ in pieces]
    whole, session = concat(decs, module), _SESSION.get()
    if ("verified", whole) not in session:
        proven = {dec for dec in decs if ("verified", dec) in session}
        if verify(whole, decs, proven).valid:
            session.update((("verified", dec), dec) for dec in (whole, *decs))
    for dec, piece_context in pieces:
        _checked(dec, piece_context)
    return _checked(whole, context)


@_per_request
def _oracle_certificate(
    sub: Graph, module: ModulePresentation, target: int, budget: int, guarantee: str
) -> StanleyDecomposition:
    """Search a module of sub's edge ideal at a target the guarantee makes
    attainable over sub's own vertices; failure is a contradiction.  The
    certificate is not verified here: each caller proves what it uses."""
    target += sub.n - sub.num_vertices
    poset = build_poset(module)
    outcome = search_partition(poset, target, budget)
    if outcome.status == "exceeded":
        raise BudgetExceededError(
            f"budget {budget} exhausted while searching the guaranteed "
            f"target {target} ({guarantee})"
        )
    if outcome.status == "none":
        raise ContradictionError(
            f"no partition at target {target}, but {guarantee} guarantees one; "
            f"module: {module.to_json()}"
        )
    return partition_to_decomposition(poset, outcome.partition, module)


_CO_SPREAD = "squarefree ideals generated in one degree reach one above their co-spread"
_DEPTH_ONE = "every nonzero monomial ideal has a depth-one decomposition"


def _induced(graph: Graph, keep: Iterable[int]) -> Graph:
    """The subgraph induced on keep, in the same ambient n."""
    return graph.delete_vertices(graph.vertices.difference(keep))


# ---------------------------------------------------------------------------
# Layers I^k/I^{k+1}


@_per_request
def decompose_layer(
    graph: Graph, k: int, budget: int = DEFAULT_BUDGET
) -> StanleyDecomposition:
    """A verified decomposition of I^k/I^{k+1} with sdepth >= p (k >= 0)."""
    module = module_for(graph, k, KIND_LAYER)
    if _module_is_zero(graph, k, KIND_LAYER):
        return StanleyDecomposition(module, ())
    comps = [c for c in graph.components() if c.edges]
    # sub drops the isolated vertices but keeps the edges and n, so its module
    # is this one; the oracle counts the vertices off sub toward its target
    # (all n of them for the ring, layer 0 of an edgeless graph)
    sub = _induced(graph, (v for c in comps for v in c.vertices))
    bipartite = [c for c in comps if c.bipartite]
    if len(comps) == 1 or not bipartite:  # so bipartite is [] or comps
        guarantee = ("positive depth of layers over a connected bipartite graph"
                     if bipartite else "nonzero layer module")
        dec = _oracle_certificate(sub, module, len(bipartite), budget, guarantee)
        return _checked(dec, "oracle certificate")
    first = min(bipartite, key=lambda c: (len(c.vertices), c.vertices))
    head, rest = _induced(graph, first.vertices), sub.delete_vertices(first.vertices)
    pieces = []
    for s in range(k + 1):
        piece = tensor(decompose_layer(head, s, budget), decompose_layer(rest, k - s, budget))
        pieces.append((piece, f"layer block s={s}, t={k - s}"))
    return _assembled(module, pieces, "assembled layer blocks")


# ---------------------------------------------------------------------------
# Quotients S/I^k


@_per_request
def decompose_s_mod_power(
    graph: Graph, k: int, budget: int = DEFAULT_BUDGET
) -> StanleyDecomposition:
    """A verified decomposition of S/I^k with sdepth >= p, as stacked layers.

    The monomials outside I^k split by the largest power of I containing
    them, so the layer certificates for j < k concatenate losslessly.
    """
    module = module_for(graph, k, KIND_S_MOD)
    layers = [(decompose_layer(graph, j, budget), f"layer {j}") for j in range(k)]
    return _assembled(module, layers, f"S/I^{k}")


# ---------------------------------------------------------------------------
# Powers of tree ideals


@_per_request
def decompose_power_tree(
    graph: Graph, k: int, budget: int = DEFAULT_BUDGET
) -> StanleyDecomposition:
    """A verified decomposition of I^k with sdepth >= 2 for a tree (k >= 1)."""
    comps = graph.components()
    if len(comps) != 1 or not comps[0].tree or not graph.has_edges():
        raise InputError("the graph must be a tree with at least one edge")
    return _checked(_tree_power(graph, k, budget), f"tree power k={k}")


@_per_request
def _tree_power(tree: Graph, k: int, budget: int) -> StanleyDecomposition:
    """Recursive decomposition of I(tree)^k; variables off the tree act freely."""
    n = tree.n
    module = module_for(tree, k, KIND_POWER)
    if tree.num_vertices == 2:
        (generator,) = module.upper.gens
        return StanleyDecomposition(
            module, (StanleySpace(generator, shared_z(frozenset(range(1, n + 1)))),)
        )
    if k == 1:
        return _oracle_certificate(tree, module, 2, budget, _CO_SPREAD)
    adj = tree.adjacency()
    leaf = min(v for v, ws in adj.items() if len(ws) == 1)
    (stem,) = adj[leaf]
    pieces = []

    # monomials without the leaf variable: the power of the smaller tree, in
    # which the leaf acts freely, with the leaf set to 0
    smaller = _tree_power(tree.delete_vertices({leaf}), k, budget)
    pieces.append((pin(smaller, (leaf,)), "leaf-free part"))

    # leaf-multiples avoiding the stem: the leaf's only neighbor is the stem,
    # so dividing by the leaf lands in the power of the doubly-deleted tree,
    # with the leaf variable acting freely and the stem set to 0
    pruned = tree.delete_vertices({leaf, stem})
    if pruned.has_edges():
        base = _oracle_certificate(pruned, module_for(pruned, k, KIND_POWER), 1, budget, _DEPTH_ONE)
        leaf_shift = tuple(int(v == leaf) for v in range(1, n + 1))
        pieces.append((shift(pin(base, (stem,)), leaf_shift), "leaf-only part"))

    # multiples of the leaf edge: the previous power, shifted by the edge
    edge_shift = tuple(int(v in (leaf, stem)) for v in range(1, n + 1))
    pieces.append((shift(_tree_power(tree, k - 1, budget), edge_shift), "edge-multiple part"))

    return _assembled(module, pieces, f"tree power on {sorted(tree.vertices)} at k={k}")


# ---------------------------------------------------------------------------
# Powers of arbitrary edge ideals


@_per_request
def decompose_power_general(
    graph: Graph, k: int, budget: int = DEFAULT_BUDGET
) -> StanleyDecomposition:
    """A verified decomposition of I^k for any graph with an edge (k >= 1).

    The achieved sdepth is at least ``lower_sdepth_power(graph, k)``: both
    filter along ``pivot_component``.  For connected bipartite non-tree
    graphs the base case is a best-effort oracle search, and the achieved
    value is experimental data.
    """
    pivot = pivot_component(graph)
    rest_graph = graph.delete_vertices(pivot.vertices)
    if not rest_graph.has_edges():
        return _checked(_power_base(graph, pivot, k, budget), f"single-component power k={k}")

    # layer 0 of the filtration: multiples of the rest-ideal's k-th power,
    # with the pivot variables acting freely
    pieces = [(decompose_power_general(rest_graph, k, budget), "filtration layer 0")]
    for level in range(1, k + 1):
        base = _power_base(graph, pivot, level, budget)
        rest_layer = decompose_layer(rest_graph, k - level, budget)
        pieces.append((tensor(base, rest_layer), f"filtration layer {level}"))

    return _assembled(module_for(graph, k, KIND_POWER), pieces, f"power at k={k}")


@_per_request
def _power_base(
    graph: Graph, comp: Component, k: int, budget: int
) -> StanleyDecomposition:
    """Decomposition of one connected component's ideal power."""
    sub = _induced(graph, comp.vertices)
    if comp.tree:
        return _tree_power(sub, k, budget)
    module = module_for(sub, k, KIND_POWER)
    if comp.bipartite:
        # connected bipartite non-tree: best effort, floor of 1 still guaranteed;
        # the n - |comp| variables off the component count toward the value
        result = sdepth_exact(module, budget)
        if result.value >= 1 + graph.n - len(comp.vertices):
            return partition_to_decomposition(result.poset, result.partition, module)
    return _oracle_certificate(sub, module, 1, budget, _DEPTH_ONE)


# The generator of each module kind, for callers that choose the kind at run time.
DECOMPOSE = {
    KIND_LAYER: decompose_layer,
    KIND_S_MOD: decompose_s_mod_power,
    KIND_POWER: decompose_power_general,
}
