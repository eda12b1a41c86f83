"""Workload inputs, one pass of each workload, answer summaries and the answer check.

Inputs are made from the seed before any timing; the library receives only
the generated inputs.  A pass issues instances one after another, each after
the previous one returned (a closed loop with one caller).  Answers are
checked after timing, against ``reference.json`` and against the independent
checks the library provides.

Seeded instances are drawn from fixed pools whose reference answers are
recorded in ``reference.json`` (see ``make_reference.py``), so every seed is
checked as strictly as the default one.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import sys
from dataclasses import dataclass, field
from itertools import combinations

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

WORKLOADS = ("sweep-n4", "hard-panel", "certify-trees")
DEFAULT_SEED = 0

SWEEP_ARGS = {"nmax": 4, "kmax": 2, "budget": 1_000_000, "jobs": 1}
SWEEP_COUNTS = {
    "layer-lower-bound": 217,
    "limit-depth": 149,
    "power-lower-bound": 136,
    "quotient-lower-bound": 150,
    "stanley-inequality-power": 136,
    "stanley-inequality-quotient": 149,
}
# Answer fields of a sweep row; rows may carry more fields than these.
SWEEP_FIELDS = ("k", "sdepth", "exact", "depth", "verdict", "ok")

HARD_BUDGET = 200_000  # a workload input: never changed
HARD_SDEPTH = (("path:7", "power", 2), ("cycle:6", "s-mod-power", 3), ("path:5", "power", 3))
HARD_DEPTH = (("star:4", 5), ("path:5", 5))
SEEDED_SDEPTH_K = 2  # I^2 of a connected 6-vertex graph from the hard pool
SEEDED_DEPTH = (5, 4)  # S/I^4 of a random graph on 5 vertices

TREE_SIZES = range(2, 7)
TREE_COUNTS = {2: 1, 3: 1, 4: 2, 5: 3, 6: 6}  # free trees, OEIS A000055
TREE_POWERS = (1, 2, 3)
CERTIFY_SEEDED = 3  # multi-component graphs drawn from the certify pool per seed
CERTIFY_GENERAL = ((2, "power"), (2, "s-mod-power"), (3, "s-mod-power"))


def load_reference() -> dict:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def import_library():
    """Import stanley_lab with every module the workloads and the tracer use."""
    importlib.import_module("stanley_lab.sweeps")
    return sys.modules["stanley_lab"]


def module_of(name: str):
    return sys.modules[f"stanley_lab.{name}"]


def graph_spec(graph) -> str:
    """A stable name for a labeled graph, used as a reference key."""
    edges = ",".join(f"{i}-{j}" for i, j in graph.edges)
    return f"{graph.n}:{edges}"


def graph_from_edges(lib, n: int, edges) -> object:
    return lib.Graph.make(n, [tuple(e) for e in edges])


@dataclass
class Instance:
    """One call into the library: the function is looked up at call time,
    so a tracer installed later sees it."""

    key: str
    kind: str  # "sweep" | "sdepth" | "depth" | "trees" | "certificate"
    module: str
    function: str
    args: tuple
    info: dict = field(default_factory=dict)

    def __call__(self):
        return getattr(module_of(self.module), self.function)(*self.args)


@dataclass
class Inputs:
    workload: str
    instances: list  # the fixed order of one pass (certify-trees adds tree calls)
    graphs: list = field(default_factory=list)  # certify-trees seeded graphs


def _random_graph(lib, rng: random.Random, n: int):
    pairs = list(combinations(range(1, n + 1), 2))
    while True:
        edges = [p for p in pairs if rng.random() < 0.5]
        if edges:
            return lib.Graph.make(n, edges)


def sdepth_instance(lib, graph, name: str, kind: str, k: int) -> Instance:
    module = lib.module_for(graph, k, kind)
    return Instance(
        f"sdepth_exact({name}, {kind}, k={k}, budget={HARD_BUDGET})",
        "sdepth", "sdepth", "sdepth_exact", (module, HARD_BUDGET),
        {"graph": graph, "kind": kind, "k": k},
    )


def depth_instance(lib, graph, name: str, k: int) -> Instance:
    module = lib.module_for(graph, k, "s-mod-power")
    return Instance(
        f"depth_exact({name}, s-mod-power, k={k})", "depth", "depth", "depth_exact",
        (module,), {"graph": graph, "kind": "s-mod-power", "k": k},
    )


def tree_instance(n: int) -> Instance:
    return Instance(f"enumerate_trees({n})", "trees", "graphs", "enumerate_trees", (n,), {"n": n})


def certificate_instance(graph, k: int, kind: str, tree: bool = False) -> Instance:
    function = "decompose_power_tree" if tree else (
        "decompose_power_general" if kind == "power" else "decompose_s_mod_power"
    )
    return Instance(
        f"{function}({graph_spec(graph)}, k={k})", "certificate", "constructions",
        function, (graph, k), {"graph": graph, "kind": kind, "k": k, "tree": tree},
    )


def make_inputs(lib, workload: str, seed: int, reference: dict) -> Inputs:
    """Generate the library inputs of one workload from the seed."""
    rng = random.Random(seed)
    if workload == "sweep-n4":
        # The sweep is exhaustive: the seed changes nothing.
        key = "run_sweep(" + ", ".join(f"{k}={v}" for k, v in SWEEP_ARGS.items()) + ")"
        inst = Instance(key, "sweep", "sweeps", "run_sweep", tuple(SWEEP_ARGS.values()))
        return Inputs(workload, [inst])
    if workload == "hard-panel":
        instances = [
            sdepth_instance(lib, lib.preset(name), name, kind, k) for name, kind, k in HARD_SDEPTH
        ]
        instances += [depth_instance(lib, lib.preset(name), name, k) for name, k in HARD_DEPTH]
        edges = rng.choice(reference["pools"]["hard_sdepth"])
        graph = graph_from_edges(lib, 6, edges)
        instances.append(sdepth_instance(lib, graph, graph_spec(graph), "power", SEEDED_SDEPTH_K))
        n, k = SEEDED_DEPTH
        graph = _random_graph(lib, rng, n)
        instances.append(depth_instance(lib, graph, graph_spec(graph), k))
        return Inputs(workload, instances)
    if workload == "certify-trees":
        pool = reference["pools"]["certify"]
        graphs = [graph_from_edges(lib, 6, e) for e in rng.sample(pool, CERTIFY_SEEDED)]
        return Inputs(workload, [tree_instance(n) for n in TREE_SIZES], graphs)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def run_pass(inputs: Inputs, call) -> None:
    """Issue one pass; ``call(instance)`` times one call and returns its result,
    or None when it raised."""
    if inputs.workload != "certify-trees":
        for inst in inputs.instances:
            call(inst)
        return
    for inst in inputs.instances:
        trees = call(inst)
        for tree in trees or ():
            for k in TREE_POWERS:
                call(certificate_instance(tree, k, "power", tree=True))
    for graph in inputs.graphs:
        for k, kind in CERTIFY_GENERAL:
            call(certificate_instance(graph, k, kind))


# ---------------------------------------------------------------------------
# Answers


def summarize(inst: Instance, result) -> dict:
    """The answer of one call, in a form that compares and serializes."""
    if inst.kind == "sdepth":
        return {"value": result.value, "exact": result.exact, "size": len(result.partition.intervals)}
    if inst.kind == "depth":
        return {"value": result}
    if inst.kind == "trees":
        return {"count": len(result), "trees": [[list(e) for e in t.edges] for t in result]}
    if inst.kind == "certificate":
        return {"spaces": len(result.spaces), "sdepth": result.sdepth()}
    return {
        claim: [[row["graph"]["n"], row["graph"]["edges"]] + [row.get(f) for f in SWEEP_FIELDS] for row in rows]
        for claim, rows in result.items()
    }


def sdepth_counts(inst: Instance, answer: dict) -> tuple[int, int]:
    """(exact, attempted) sdepth answers carried by one answer."""
    if inst.kind == "sdepth":
        return int(answer["exact"]), 1
    if inst.kind == "sweep":
        flags = [row[2 + SWEEP_FIELDS.index("exact")] for rows in answer.values() for row in rows]
        flags = [f for f in flags if f is not None]
        return sum(flags), len(flags)
    return 0, 0


# ---------------------------------------------------------------------------
# The check


def _compare_lower_bound(ref: dict, answer: dict, value_key: str, problems: list) -> None:
    """An exact reference must match; an inexact one is a lower bound."""
    if ref.get("exact"):
        if answer[value_key] != ref[value_key] or not answer.get("exact"):
            problems.append(f"expected exact {ref[value_key]}, got {answer}")
    elif answer[value_key] < ref[value_key]:
        problems.append(f"value {answer[value_key]} below reference lower bound {ref[value_key]}")


def check(lib, inst: Instance, result, answer: dict, reference: dict) -> list[str]:
    """Every problem with one answer; an empty list means it passed."""
    problems: list[str] = []
    info = inst.info
    if inst.kind == "sdepth":
        ref = reference["sdepth"].get(inst.key)
        if ref is None:
            problems.append("no reference answer")
        else:
            _compare_lower_bound(ref, answer, "value", problems)
        module = inst.args[0]
        dec = lib.partition_to_decomposition(result.poset, result.partition, module)
        report = lib.verify(dec)
        if not report.valid or report.sdepth != answer["value"]:
            problems.append(f"partition certificate fails verify: {report}")
        bound = (lib.lower_sdepth_power(info["graph"], info["k"]) if info["kind"] == "power"
                 else lib.lower_sdepth_s_mod_power(info["graph"]))
        if answer["value"] < bound:
            problems.append(f"value {answer['value']} below certified bound {bound}")
    elif inst.kind == "depth":
        ref = reference["depth"].get(inst.key)
        if ref is not None and answer["value"] != ref["value"]:
            problems.append(f"expected depth {ref['value']}, got {answer['value']}")
        graph, k = info["graph"], info["k"]
        if k >= graph.num_vertices - 1:
            trung = lib.depth_by_trung(graph, k)
            if answer["value"] != trung:
                problems.append(f"depth {answer['value']} differs from depth_by_trung {trung}")
        elif ref is None:
            problems.append("no reference answer and no closed form")
    elif inst.kind == "trees":
        problems += _check_trees(info["n"], result)
    elif inst.kind == "certificate":
        problems += _check_certificate(lib, inst, result, answer, reference)
    else:
        problems += _check_sweep(answer, reference)
    return problems


def _check_trees(n: int, trees) -> list[str]:
    problems = []
    if len(trees) != TREE_COUNTS[n]:
        problems.append(f"{len(trees)} trees on {n} vertices, expected {TREE_COUNTS[n]}")
    for t in trees:
        if t.num_vertices != n or len(t.edges) != n - 1 or len(t.components()) != 1:
            problems.append(f"not a tree on {n} vertices: {t.edges}")
    try:
        import networkx as nx
    except ImportError:
        return problems
    ours = [nx.Graph(list(t.edges)) for t in trees]
    theirs = list(nx.nonisomorphic_trees(n))
    if len(theirs) != len(ours) or not all(
        sum(nx.is_isomorphic(a, b) for b in ours) == 1 for a in theirs
    ):
        problems.append(f"trees on {n} vertices differ from networkx.nonisomorphic_trees")
    return problems


def _check_certificate(lib, inst: Instance, dec, answer: dict, reference: dict) -> list[str]:
    info = inst.info
    graph, k, kind = info["graph"], info["k"], info["kind"]
    problems = []
    if dec.module != lib.module_for(graph, k, kind):
        problems.append("certificate is for another module")
    report = lib.verify(dec)
    if not report.valid:
        problems.append(f"certificate fails verify: {report}")
    if info["tree"]:
        bound = 2
    elif kind == "power":
        bound = lib.lower_sdepth_power(graph, k)
    else:
        bound = lib.lower_sdepth_s_mod_power(graph)
    if answer["sdepth"] is None or answer["sdepth"] < bound:
        problems.append(f"certificate sdepth {answer['sdepth']} below the guaranteed {bound}")
    ref = reference["certificates"].get(inst.key)
    if ref is not None and answer["sdepth"] is not None and answer["sdepth"] < ref["sdepth"]:
        problems.append(f"certificate sdepth {answer['sdepth']} below reference {ref['sdepth']}")
    return problems


def _check_sweep(answer: dict, reference: dict) -> list[str]:
    problems = []
    counts = {claim: len(rows) for claim, rows in answer.items()}
    if counts != SWEEP_COUNTS:
        problems.append(f"per-claim row counts {counts}, expected {SWEEP_COUNTS}")
    ok_at = 2 + SWEEP_FIELDS.index("ok")
    bad = [row for rows in answer.values() for row in rows if not row[ok_at]]
    if bad:
        problems.append(f"{len(bad)} sweep rows not ok, first {bad[0]}")
    value_at = 2 + SWEEP_FIELDS.index("sdepth")
    exact_at = 2 + SWEEP_FIELDS.index("exact")
    for claim, ref_rows in reference["sweep"].items():
        rows = answer.get(claim, [])
        for row, ref_row in zip(rows, ref_rows):
            if ref_row[exact_at] is False:
                same = row[:value_at] == ref_row[:value_at] and row[value_at] >= ref_row[value_at]
            else:
                same = row == ref_row
            if not same:
                problems.append(f"{claim}: row {row} differs from reference {ref_row}")
                break
    return problems


def reference_size_changes(inst: Instance, answer: dict, reference: dict) -> bool:
    """Whether a certificate's size differs from the recorded one.

    Reported, never failed: another valid certificate is still a right answer.
    """
    if inst.kind == "sdepth":
        ref = reference["sdepth"].get(inst.key)
        return ref is not None and ref["size"] != answer["size"]
    if inst.kind == "certificate":
        ref = reference["certificates"].get(inst.key)
        return ref is not None and ref["spaces"] != answer["spaces"]
    return False
