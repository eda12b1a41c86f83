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

Every assembled certificate and every intermediate piece is verified: each
public call opens a session for its request only (nested calls join it), in
which each recursive subproblem is built once and every distinct certificate
is verified once per request (``verify`` depends only on its value).  A failed
verification or a failed search at a theorem-guaranteed target raises
``ContradictionError`` because existence is proven, so the only honest
explanations are a bug or a counterexample.
"""

from __future__ import annotations

from contextvars import ContextVar
from functools import wraps

from .bounds import pivot_component
from .errors import BudgetExceededError, ContradictionError, InputError
from .graphs import Graph
from .monomials import MonomialIdeal
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
    embed,
    free_extend,
    shift,
    tensor,
    verify,
)


# (builder results, verified certificates) of the open request, else None.
_SESSION: ContextVar[tuple[dict, set] | None] = ContextVar("_SESSION", default=None)


def _per_request(build):
    """Memoize by arguments for the rest of the request; exceptions are not kept.

    The outermost call opens the request's session and closes it on exit.
    """
    @wraps(build)
    def run(*args, **kwargs):
        session = _SESSION.get()
        if session is None:
            token = _SESSION.set(({}, set()))
            try:
                return run(*args, **kwargs)
            finally:
                _SESSION.reset(token)
        key = (build, args, tuple(kwargs.items()))
        if key not in session[0]:
            session[0][key] = build(*args, **kwargs)
        return session[0][key]
    return run


def _checked(dec: StanleyDecomposition, context: str) -> StanleyDecomposition:
    """Verify dec unless this request already has; hashes dec once when new."""
    verified = _SESSION.get()[1]
    known = len(verified)
    verified.add(dec)
    if len(verified) == known:
        return dec
    try:
        report = verify(dec)
        if not report.valid:
            raise ContradictionError(
                f"{context}: certificate failed verification "
                f"({report.failure} at {report.witness})"
            )
    except BaseException:
        verified.discard(dec)
        raise
    return dec


@_per_request
def _oracle_certificate(
    module: ModulePresentation, target: int, budget: int, guarantee: str
) -> StanleyDecomposition:
    """Search at a target that is guaranteed attainable; failure is a contradiction."""
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
    dec = partition_to_decomposition(poset, outcome.partition, module)
    return _checked(dec, "oracle certificate")


def _positions(sub_labels: tuple[int, ...], labels: tuple[int, ...]) -> tuple[int, ...]:
    """1-based coordinates of sub_labels inside the coordinate system of labels."""
    where = {v: i + 1 for i, v in enumerate(labels)}
    return tuple(where[v] for v in sub_labels)


def _unit_vector(n: int, positions: tuple[int, ...]) -> tuple[int, ...]:
    vec = [0] * n
    for j in positions:
        vec[j - 1] = 1
    return tuple(vec)


# ---------------------------------------------------------------------------
# Layers I^k/I^{k+1}


@_per_request
def decompose_layer(
    graph: Graph, k: int, budget: int = DEFAULT_BUDGET
) -> StanleyDecomposition:
    """A verified decomposition of I^k/I^{k+1} with sdepth >= p (k >= 0)."""
    if k < 0:
        raise InputError(f"layer index {k} must be nonnegative")
    return _layer_on(graph, tuple(range(1, graph.n + 1)), k, budget)


@_per_request
def _layer_on(
    graph: Graph, labels: tuple[int, ...], k: int, budget: int
) -> StanleyDecomposition:
    """Layer decomposition over the sub-ring on ``labels``; non-edge labels act freely."""
    m = len(labels)
    ideal = graph.edge_ideal().restrict(labels)
    module = ModulePresentation.power_layer(ideal, k)
    if module.is_zero():
        return StanleyDecomposition(module, ())
    edge_support = set(graph.edge_support())
    supp = tuple(v for v in labels if v in edge_support)
    free_positions = _positions(tuple(v for v in labels if v not in edge_support), labels)
    if not supp:
        # zero edge ideal and a nonzero layer: k = 0 and the module is the ring
        space = StanleySpace((0,) * m, frozenset(range(1, m + 1)))
        ring = StanleyDecomposition(module, (space,))
        return _checked(ring, f"layer over {labels} at k={k}")
    label_set = set(labels)
    comps = [
        c for c in graph.components() if label_set.issuperset(c) and graph.induced_edges(c)
    ]
    core = _layer_blocks(graph, tuple(comps), k, budget)
    lifted = embed(core, _positions(supp, labels), module)
    if free_positions:
        lifted = free_extend(lifted, free_positions, module)
    return _checked(lifted, f"layer over {labels} at k={k}")


@_per_request
def _layer_blocks(
    graph: Graph, comps: tuple[tuple[int, ...], ...], k: int, budget: int
) -> StanleyDecomposition:
    """Layer decomposition over exactly the vertices of ``comps`` (each has an edge)."""
    labels = tuple(sorted(v for c in comps for v in c))
    full = graph.edge_ideal()
    ideal = full.restrict(labels)
    module = ModulePresentation.power_layer(ideal, k)
    bipartite = [c for c in comps if graph.is_bipartite_component(c)]
    if len(comps) == 1 or not bipartite:
        if len(comps) == 1 and bipartite:
            return _oracle_certificate(
                module, 1, budget,
                "positive depth of layers over a connected bipartite graph",
            )
        return _oracle_certificate(module, 0, budget, "nonzero layer module")
    first = min(bipartite, key=lambda c: (len(c), c))
    rest = tuple(c for c in comps if c != first)
    rest_labels = tuple(sorted(v for c in rest for v in c))
    n_here = len(labels)
    left = full.restrict(first).extend(_positions(first, labels), n_here)
    right = full.restrict(rest_labels).extend(_positions(rest_labels, labels), n_here)
    pieces = []
    for s in range(k + 1):
        t = k - s
        d_left = _layer_blocks(graph, (first,), s, budget)
        d_right = _layer_blocks(graph, rest, t, budget)
        upper = (left**s) * (right**t)
        lower = (left ** (s + 1)) * (right**t) + (left**s) * (right ** (t + 1))
        piece_module = ModulePresentation.make(n_here, lower, upper)
        piece = tensor(
            embed(d_left, _positions(first, labels), piece_module),
            embed(d_right, _positions(rest_labels, labels), piece_module),
            piece_module,
        )
        pieces.append(_checked(piece, f"layer block s={s}, t={t}"))
    return _checked(concat(pieces, module), "assembled layer blocks")


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
    if k < 1:
        raise InputError(f"power {k} must be positive")
    ideal = graph.edge_ideal()
    module = ModulePresentation.quotient_ring(ideal**k)
    layers = [decompose_layer(graph, j, budget) for j in range(k)]
    return _checked(concat(layers, module), f"S/I^{k}")


# ---------------------------------------------------------------------------
# Powers of tree ideals


@_per_request
def decompose_power_tree(
    graph: Graph, k: int, budget: int = DEFAULT_BUDGET
) -> StanleyDecomposition:
    """A verified decomposition of I^k with sdepth >= 2 for a tree (k >= 1)."""
    if k < 1:
        raise InputError(f"power {k} must be positive")
    comps = graph.components()
    if len(comps) != 1 or not graph.is_tree(comps[0]) or not graph.has_edges():
        raise InputError("the graph must be a tree with at least one edge")
    labels = tuple(sorted(graph.vertices))
    ideal = graph.edge_ideal()
    module = ModulePresentation.of_ideal(ideal**k)
    core = _tree_power(graph, k, budget)
    lifted = embed(core, labels, module)
    spare = tuple(v for v in range(1, graph.n + 1) if v not in graph.vertices)
    if spare:
        lifted = free_extend(lifted, spare, module)
    return _checked(lifted, f"tree power k={k}")


@_per_request
def _tree_power(tree: Graph, k: int, budget: int) -> StanleyDecomposition:
    """Recursive decomposition of I(tree)^k over the tree's own coordinates."""
    labels = tuple(sorted(tree.vertices))
    m = len(labels)
    ideal = tree.edge_ideal().restrict(labels)
    module = ModulePresentation.of_ideal(ideal**k)
    if m == 2:
        return StanleyDecomposition(
            module, (StanleySpace((k, k), frozenset({1, 2})),)
        )
    if k == 1:
        return _oracle_certificate(
            module, 2, budget,
            "squarefree ideals generated in one degree reach one above "
            "their co-spread",
        )
    leaf = tree.find_leaf()
    stem = min(tree.neighbors(leaf))
    pos_leaf = labels.index(leaf) + 1
    pos_stem = labels.index(stem) + 1
    leaf_shift = _unit_vector(m, (pos_leaf,))
    leaf_var = MonomialIdeal.make(m, [leaf_shift])
    pieces = []

    # monomials without the leaf variable: the power of the smaller tree
    smaller = _tree_power(tree.delete_vertices({leaf}), k, budget)
    rest_positions = _positions(tuple(v for v in labels if v != leaf), labels)
    sub_power = smaller.module.upper.extend(rest_positions, m)
    piece_module = ModulePresentation.make(m, leaf_var * sub_power, sub_power)
    piece = embed(smaller, rest_positions, piece_module)
    pieces.append(_checked(piece, "leaf-free part"))

    # leaf-multiples avoiding the stem: the leaf's only neighbor is the stem,
    # so dividing by the leaf lands in the power of the doubly-deleted tree,
    # with the leaf variable acting freely
    pruned = tree.delete_vertices({leaf, stem})
    if pruned.has_edges():
        t_labels = tuple(v for v in labels if v not in (leaf, stem))
        pruned_ideal = pruned.edge_ideal().restrict(t_labels)
        base = _oracle_certificate(
            ModulePresentation.of_ideal(pruned_ideal**k),
            1,
            budget,
            "every nonzero monomial ideal has a depth-one decomposition",
        )
        upper = leaf_var * base.module.upper.extend(_positions(t_labels, labels), m)
        lower = MonomialIdeal.make(m, [_unit_vector(m, (pos_stem,))]) * upper
        piece_module = ModulePresentation.make(m, lower, upper)
        lifted = embed(base, _positions(t_labels, labels), piece_module)
        lifted = free_extend(lifted, (pos_leaf,), piece_module)
        lifted = shift(lifted, leaf_shift, piece_module)
        pieces.append(_checked(lifted, "leaf-only part"))

    # multiples of the leaf edge: the previous power, shifted by the edge
    edge_shift = _unit_vector(m, (pos_leaf, pos_stem))
    previous = _tree_power(tree, k - 1, budget)
    upper = MonomialIdeal.make(m, [edge_shift]) * previous.module.upper
    piece_module = ModulePresentation.make(m, MonomialIdeal.zero(m), upper)
    piece = shift(previous, edge_shift, piece_module)
    pieces.append(_checked(piece, "edge-multiple part"))

    return _checked(concat(pieces, module), f"tree power over {labels} at k={k}")


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
    if k < 1:
        raise InputError(f"power {k} must be positive")
    if not graph.has_edges():
        raise InputError("the edge ideal is zero; I^k has no elements")
    return _power_on(graph, tuple(range(1, graph.n + 1)), k, budget)


def _power_on(
    graph: Graph, labels: tuple[int, ...], k: int, budget: int
) -> StanleyDecomposition:
    """Decomposition of I(graph)^k over the sub-ring on ``labels``."""
    m = len(labels)
    full = graph.edge_ideal()
    ideal = full.restrict(labels)
    module = ModulePresentation.of_ideal(ideal**k)
    pivot = pivot_component(graph)
    pivot_set = set(pivot)
    pivot_positions = _positions(pivot, labels)
    edge_comps = [c for c in graph.components() if graph.induced_edges(c)]

    if len(edge_comps) == 1:
        base = _power_base(graph, pivot, k, budget)
        lifted = embed(base, pivot_positions, module)
        others = tuple(j + 1 for j, v in enumerate(labels) if v not in pivot_set)
        if others:
            lifted = free_extend(lifted, others, module)
        return _checked(lifted, f"single-component power k={k}")

    rest_graph = graph.delete_vertices(pivot)
    rest_labels = tuple(v for v in labels if v not in pivot_set)
    rest_positions = _positions(rest_labels, labels)
    left = full.restrict(pivot).extend(pivot_positions, m)
    right = rest_graph.edge_ideal().restrict(rest_labels).extend(rest_positions, m)
    pieces = []

    # layer 0 of the filtration: multiples of the rest-ideal's k-th power,
    # with the pivot variables acting freely
    if rest_graph.has_edges():
        piece_module = ModulePresentation.of_ideal(right**k)
        inner = _power_on(rest_graph, rest_labels, k, budget)
        piece = free_extend(
            embed(inner, rest_positions, piece_module), pivot_positions, piece_module
        )
        pieces.append(_checked(piece, "filtration layer 0"))

    for level in range(1, k + 1):
        base = _power_base(graph, pivot, level, budget)
        rest_layer = _layer_on(rest_graph, rest_labels, k - level, budget)
        if not rest_layer.spaces:
            continue
        upper = (left**level) * (right ** (k - level))
        lower = (left**level) * (right ** (k - level + 1))
        piece_module = ModulePresentation.make(m, lower, upper)
        piece = tensor(
            embed(base, pivot_positions, piece_module),
            embed(rest_layer, rest_positions, piece_module),
            piece_module,
        )
        pieces.append(_checked(piece, f"filtration layer {level}"))

    return _checked(concat(pieces, module), f"power over {labels} at k={k}")


@_per_request
def _power_base(
    graph: Graph, comp: tuple[int, ...], k: int, budget: int
) -> StanleyDecomposition:
    """Decomposition of one connected component's ideal power, over its own coordinates."""
    sub = Graph(graph.n, graph.induced_edges(comp), frozenset(comp))
    if graph.is_tree(comp):
        return _tree_power(sub, k, budget)
    labels = tuple(sorted(comp))
    ideal = sub.edge_ideal().restrict(labels)
    module = ModulePresentation.of_ideal(ideal**k)
    if not graph.is_bipartite_component(comp):
        return _oracle_certificate(
            module, 1, budget,
            "every nonzero monomial ideal has a depth-one decomposition",
        )
    # connected bipartite non-tree: best effort, floor of 1 still guaranteed
    result = sdepth_exact(module, budget)
    if result.value >= 1:
        dec = partition_to_decomposition(result.poset, result.partition, module)
        return _checked(dec, "best-effort component power")
    return _oracle_certificate(
        module, 1, budget,
        "every nonzero monomial ideal has a depth-one decomposition",
    )
