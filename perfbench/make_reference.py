"""Regenerate ``reference.json``: the instance pools and their reference answers.

    python3 perfbench/make_reference.py

Run it from the repository root, only when a workload's inputs change; it
takes about two minutes on one core.  It needs ``networkx``, whose graph atlas
(every graph on up to 7 vertices, one per isomorphism class) supplies the
pools.  The benchmark itself reads the recorded file and needs no networkx.

Pools:

* ``hard_sdepth``: the connected 6-vertex graphs with 7 edges.  At 7 edges
  every one of them exceeds the hard-panel node budget, so a seed changes
  the graph but not the size class or the budget outcome.
* ``certify``: the 6-vertex graphs with at least two components that carry
  an edge, one of them with a cycle.  The general certificate generators
  recurse over the components there and take their non-tree branches.
"""

from __future__ import annotations

import json
import os
import sys

import networkx as nx

import workloads as wl

ROOT = os.path.dirname(wl.HERE)


def to_text(value, indent: int = 0) -> str:
    """JSON with one short entry per line, so a changed answer is a one-line diff."""
    flat = json.dumps(value, sort_keys=True)
    if len(flat) <= 160 or not isinstance(value, (dict, list)):
        return flat
    pad = " " * (indent + 1)
    if isinstance(value, dict):
        items = [f"{pad}{json.dumps(k)}: {to_text(v, indent + 1)}" for k, v in sorted(value.items())]
        return "{\n" + ",\n".join(items) + "\n" + " " * indent + "}"
    items = [pad + to_text(v, indent + 1) for v in value]
    return "[\n" + ",\n".join(items) + "\n" + " " * indent + "]"


def atlas(n: int, keep) -> list[list[list[int]]]:
    out = []
    for g in nx.graph_atlas_g():
        if g.number_of_nodes() == n and keep(g):
            out.append(sorted([min(a, b) + 1, max(a, b) + 1] for a, b in g.edges()))
    return out


def certify_shape(g) -> bool:
    comps = [g.subgraph(c) for c in nx.connected_components(g) if len(c) > 1]
    return len(comps) >= 2 and any(c.number_of_edges() >= c.number_of_nodes() for c in comps)


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    lib = wl.import_library()
    ref: dict = {
        "pools": {
            "hard_sdepth": atlas(6, lambda g: nx.is_connected(g) and g.number_of_edges() == 7),
            "certify": atlas(6, certify_shape),
        },
        "sdepth": {},
        "depth": {},
        "certificates": {},
    }

    def record(inst, table: dict | None) -> dict:
        """Run one instance, store its answer under its key, then check it."""
        result = inst()
        answer = wl.summarize(inst, result)
        if table is not None:
            table[inst.key] = answer
        problems = wl.check(lib, inst, result, answer, ref)
        if problems:
            raise SystemExit(f"{inst.key}: {problems}")
        print(inst.key, "" if inst.kind == "sweep" else answer, flush=True)
        return answer

    # Every instance any seed can draw, plus the default seed's own draws.
    hard = wl.make_inputs(lib, "hard-panel", wl.DEFAULT_SEED, ref)
    for edges in ref["pools"]["hard_sdepth"]:
        graph = wl.graph_from_edges(lib, 6, edges)
        hard.instances.append(
            wl.sdepth_instance(lib, graph, wl.graph_spec(graph), "power", wl.SEEDED_SDEPTH_K)
        )
    for inst in hard.instances:
        table = ref["sdepth"] if inst.kind == "sdepth" else ref["depth"]
        if inst.key not in table:
            record(inst, table)

    ref["trees"] = {}
    for n in wl.TREE_SIZES:
        answer = record(wl.tree_instance(n), None)
        ref["trees"][str(n)] = answer["trees"]
        for edges in answer["trees"]:
            tree = wl.graph_from_edges(lib, n, edges)
            for k in wl.TREE_POWERS:
                inst = wl.certificate_instance(tree, k, "power", tree=True)
                record(inst, ref["certificates"])
    for edges in ref["pools"]["certify"]:
        graph = wl.graph_from_edges(lib, 6, edges)
        for k, kind in wl.CERTIFY_GENERAL:
            inst = wl.certificate_instance(graph, k, kind)
            record(inst, ref["certificates"])

    sweep = wl.make_inputs(lib, "sweep-n4", wl.DEFAULT_SEED, ref).instances[0]
    ref["sweep"] = wl.summarize(sweep, sweep())
    record(sweep, None)

    ref["default_seed"] = {
        "seed": wl.DEFAULT_SEED,
        "hard-panel": [i.key for i in wl.make_inputs(lib, "hard-panel", wl.DEFAULT_SEED, ref).instances],
        "certify-trees": [
            wl.certificate_instance(g, k, kind).key
            for g in wl.make_inputs(lib, "certify-trees", wl.DEFAULT_SEED, ref).graphs
            for k, kind in wl.CERTIFY_GENERAL
        ],
    }
    with open(wl.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        fh.write(to_text(ref) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
