"""Simple labeled graphs and the invariants the depth bounds depend on.

Vertices are labeled inside a fixed ambient 1..n so that edge ideals of a
graph and of its vertex-deleted subgraphs live in the same polynomial ring.
``vertices`` is the active label set; deleting vertices shrinks it but keeps
the ambient n and the remaining labels.
"""

from __future__ import annotations

import json
import os
import re
from collections import deque
from dataclasses import dataclass
from itertools import combinations, product as cartesian
from typing import Iterable, Iterator, Sequence

from .errors import InputError
from .monomials import MonomialIdeal

Edge = tuple[int, int]

_PRESET_RE = re.compile(r"^(path|cycle|star|complete):(\d+)$")


@dataclass(frozen=True)
class Graph:
    n: int
    edges: tuple[Edge, ...]
    vertices: frozenset[int]

    @classmethod
    def make(
        cls,
        n: int,
        edges: Iterable[Sequence[int]],
        vertices: Iterable[int] | None = None,
    ) -> "Graph":
        if n < 1:
            raise InputError(f"vertex count must be positive, got {n}")
        verts = frozenset(range(1, n + 1)) if vertices is None else frozenset(
            int(v) for v in vertices
        )
        if not verts <= frozenset(range(1, n + 1)):
            raise InputError(f"vertex labels {sorted(verts)} out of range 1..{n}")
        cleaned = set()
        for e in edges:
            i, j = (int(x) for x in e)
            if i == j:
                raise InputError(f"loop at vertex {i}")
            if i > j:
                i, j = j, i
            if i not in verts or j not in verts:
                raise InputError(f"edge ({i},{j}) leaves the vertex set")
            cleaned.add((i, j))
        return cls(n, tuple(sorted(cleaned)), verts)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    def has_edges(self) -> bool:
        return bool(self.edges)

    def neighbors(self, v: int) -> frozenset[int]:
        if v not in self.vertices:
            raise InputError(f"vertex {v} is not in the graph")
        return frozenset(
            j if i == v else i for i, j in self.edges if v in (i, j)
        )

    def _adjacency(self, keep: frozenset[int]) -> dict[int, list[int]]:
        """Neighbor lists of the subgraph induced on keep."""
        adj: dict[int, list[int]] = {v: [] for v in keep}
        for i, j in self.edges:
            if i in keep and j in keep:
                adj[i].append(j)
                adj[j].append(i)
        return adj

    def _search(self, keep: frozenset[int]) -> list[dict[int, int]]:
        """Breadth-first forest of the subgraph induced on keep: one
        {vertex: distance from the root} per component, rooted at and listed
        by its least vertex."""
        adj = self._adjacency(keep)
        seen: set[int] = set()
        forest = []
        for root in sorted(keep):
            if root in seen:
                continue
            dist = {root: 0}
            queue = deque([root])
            while queue:
                u = queue.popleft()
                for w in adj[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        queue.append(w)
            seen.update(dist)
            forest.append(dist)
        return forest

    def components(self) -> tuple[tuple[int, ...], ...]:
        """Partition of the vertex set into maximal connected pieces.

        Isolated vertices form singleton components.  Components are sorted
        internally and listed by smallest member.
        """
        return tuple(tuple(sorted(tree)) for tree in self._search(self.vertices))

    def induced_edges(self, comp: Iterable[int]) -> tuple[Edge, ...]:
        keep = frozenset(comp)
        return tuple(e for e in self.edges if e[0] in keep and e[1] in keep)

    def _bipartite_trees(self, keep: frozenset[int]) -> list[bool]:
        """For each tree of the breadth-first forest on keep, whether distance
        parity 2-colors it: an edge joining equal parities closes an odd cycle."""
        forest = self._search(keep)
        where = {v: (t, d % 2) for t, tree in enumerate(forest) for v, d in tree.items()}
        odd = {where[i][0] for i, j in self.induced_edges(keep) if where[i] == where[j]}
        return [t not in odd for t in range(len(forest))]

    def is_bipartite_component(self, comp: Iterable[int]) -> bool:
        """Proper 2-colorability of the induced subgraph (singletons qualify)."""
        return all(self._bipartite_trees(frozenset(comp)))

    def bipartite_component_count(self) -> int:
        """The invariant p: number of connected components with no odd cycle."""
        return sum(self._bipartite_trees(self.vertices))

    def is_connected_set(self, comp: Iterable[int]) -> bool:
        keep = frozenset(comp)
        if not keep:
            return False
        if not keep <= self.vertices:
            raise InputError(f"{sorted(keep)} is not a subset of the vertex set")
        return len(self._search(keep)) == 1

    def is_tree(self, comp: Iterable[int]) -> bool:
        """Whether the induced subgraph on a connected vertex set is a tree."""
        keep = frozenset(comp)
        if not self.is_connected_set(keep):
            raise InputError(f"{sorted(keep)} is not connected")
        return len(self.induced_edges(keep)) == len(keep) - 1

    def find_leaf(self) -> int | None:
        """Smallest vertex with exactly one neighbor, if any."""
        degree: dict[int, int] = {v: 0 for v in self.vertices}
        for i, j in self.edges:
            degree[i] += 1
            degree[j] += 1
        leaves = [v for v, d in degree.items() if d == 1]
        return min(leaves) if leaves else None

    def delete_vertices(self, remove: Iterable[int]) -> "Graph":
        """Induced graph on the remaining labels; the ambient n is retained."""
        gone = frozenset(remove)
        verts = self.vertices - gone
        edges = tuple(e for e in self.edges if e[0] in verts and e[1] in verts)
        return Graph(self.n, edges, verts)

    def edge_ideal(self) -> MonomialIdeal:
        """The ideal generated by x_i x_j over the edges; zero if edgeless."""
        gens = []
        for i, j in self.edges:
            g = [0] * self.n
            g[i - 1] = 1
            g[j - 1] = 1
            gens.append(tuple(g))
        return MonomialIdeal.make(self.n, gens)

    def edge_support(self) -> tuple[int, ...]:
        """Sorted labels incident to at least one edge."""
        return tuple(sorted({v for e in self.edges for v in e}))

    def to_json(self) -> dict:
        obj: dict = {"n": self.n, "edges": [list(e) for e in self.edges]}
        if self.vertices != frozenset(range(1, self.n + 1)):
            obj["vertices"] = sorted(self.vertices)
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "Graph":
        try:
            return cls.make(int(obj["n"]), obj["edges"], obj.get("vertices"))
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed graph JSON: {obj!r}") from exc


def disjoint_union(a: Graph, b: Graph) -> Graph:
    """Disjoint union, relabeling b's vertices above a's ambient."""
    edges = list(a.edges) + [(i + a.n, j + a.n) for i, j in b.edges]
    verts = set(a.vertices) | {v + a.n for v in b.vertices}
    return Graph.make(a.n + b.n, edges, verts)


def preset(token: str) -> Graph:
    """Named graph families: path:k, cycle:k, star:k (k leaves), complete:k."""
    m = _PRESET_RE.match(token.strip())
    if not m:
        raise InputError(f"unknown graph preset {token!r}")
    kind, k = m.group(1), int(m.group(2))
    if k < 1:
        raise InputError(f"preset size must be positive: {token!r}")
    if kind == "path":
        return Graph.make(k, [(i, i + 1) for i in range(1, k)])
    if kind == "cycle":
        if k < 3:
            raise InputError("cycles need at least 3 vertices")
        return Graph.make(k, [(i, i + 1) for i in range(1, k)] + [(1, k)])
    if kind == "star":
        return Graph.make(k + 1, [(1, i) for i in range(2, k + 2)])
    return Graph.make(k, combinations(range(1, k + 1), 2))


def parse_graph(text: str) -> Graph:
    """A graph from '+'-joined preset tokens and/or JSON file paths."""
    parts = [p.strip() for p in text.split("+")]
    graphs = []
    for part in parts:
        if _PRESET_RE.match(part):
            graphs.append(preset(part))
        elif os.path.exists(part):
            with open(part, "r", encoding="utf-8") as fh:
                graphs.append(Graph.from_json(json.load(fh)))
        else:
            raise InputError(f"not a preset and not a file: {part!r}")
    out = graphs[0]
    for g in graphs[1:]:
        out = disjoint_union(out, g)
    return out


def enumerate_labeled_graphs(n: int) -> Iterator[Graph]:
    """All 2^C(n,2) labeled simple graphs on vertices 1..n, in bitmask order."""
    pairs = list(combinations(range(1, n + 1), 2))
    for mask in range(1 << len(pairs)):
        yield Graph.make(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


def _prufer_to_edges(seq: Sequence[int], n: int) -> list[Edge]:
    degree = [1] * (n + 1)
    for v in seq:
        degree[v] += 1
    edges = []
    ptr = 1
    leaf = 0
    for v in seq:
        if leaf == 0:
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
        edges.append((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        degree[leaf] = 0
        if degree[v] == 1 and v < ptr:
            leaf = v
        else:
            leaf = 0
    last = [v for v in range(1, n + 1) if degree[v] == 1]
    edges.append((last[0], last[1]))
    return edges


def canonical_tree_form(g: Graph) -> str:
    """Isomorphism invariant of a tree: its least AHU code rooted at a center.

    Peeling leaves layer by layer leaves the one or two centers, which every
    isomorphism preserves.  The AHU code of a rooted tree (Aho-Hopcroft-Ullman)
    is "(" + the sorted codes of the child subtrees + ")".
    """
    adj = g._adjacency(g.vertices)
    if len(g.edges) != len(adj) - 1:
        raise InputError(f"not a tree: {len(adj)} vertices and {len(g.edges)} edges")
    degree = {v: len(ws) for v, ws in adj.items()}
    layer = [v for v, d in degree.items() if d <= 1]
    left = len(adj)
    while left > 2:
        if not layer:
            raise InputError("not a tree: it has a cycle")
        left -= len(layer)
        nxt = []
        for v in layer:
            for w in adj[v]:
                degree[w] -= 1
                if degree[w] == 1:
                    nxt.append(w)
        layer = nxt

    def code(v: int, parent: int) -> str:
        return "(" + "".join(sorted(code(w, v) for w in adj[v] if w != parent)) + ")"

    return min(code(c, 0) for c in layer)


def free_tree_count(n: int) -> int:
    """The number of trees on n unlabeled vertices (OEIS A000055), n >= 1.

    Rooted-tree counts r (OEIS A000081) follow the Cayley-Polya recurrence
    m r(m+1) = sum_k (sum_{d|k} d r(d)) r(m-k+1); Otter's formula then gives
    t(n) = r(n) - (sum_{i+j=n} r(i) r(j) - r(n/2) [n even]) / 2.
    """
    r = [0, 1]
    divisor_sums = [0, 1]  # sum_{d|k} d r(d), by k
    for m in range(1, n):
        r.append(sum(divisor_sums[k] * r[m - k + 1] for k in range(1, m + 1)) // m)
        divisor_sums.append(sum(d * r[d] for d in range(1, m + 2) if (m + 1) % d == 0))
    pairs = sum(r[i] * r[n - i] for i in range(1, n)) - (r[n // 2] if n % 2 == 0 else 0)
    return r[n] - pairs // 2


def enumerate_trees(n: int) -> list[Graph]:
    """One labeled tree on 1..n per isomorphism class, in Pruefer-sequence order.

    The walk over the n^(n-2) Pruefer sequences keeps each tree whose class
    (``canonical_tree_form``) is new, and stops once it has kept
    ``free_tree_count(n)`` trees: the list equals the one a full walk keeps.
    """
    if n < 1:
        raise InputError("trees need at least one vertex")
    if n == 1:
        return [Graph.make(1, [])]
    total = free_tree_count(n)
    trees = []
    seen = set()
    for seq in cartesian(range(1, n + 1), repeat=n - 2):
        g = Graph.make(n, _prufer_to_edges(seq, n))
        key = canonical_tree_form(g)
        if key not in seen:
            seen.add(key)
            trees.append(g)
            if len(trees) == total:
                break
    return trees
