"""Acceptance sweep: one test per criterion, one printed pass/fail line each.

Everything here is exact integer arithmetic; there are no tolerances.  Sweeps
run over every labeled graph at desk scale, so a single failure anywhere is a
genuine counterexample to a certified claim (or a bug) and must block release.
"""

import time

from stanley_lab import (
    depth_exact,
    partition_to_decomposition,
    sdepth_exact,
    verify,
)
from stanley_lab.bounds import module_for
from stanley_lab.graphs import enumerate_labeled_graphs
from stanley_lab.sweeps import (
    question_report,
    sweep_layer_bound,
    sweep_limit_depth,
    sweep_power_bound,
    sweep_s_mod_bound,
    sweep_stanley_power,
    sweep_stanley_s_mod,
)

from helpers import identity_fuzz, random_presentations, sweep_tree_certificates

BUDGET = 2_000_000


def report(criterion, rows, started):
    bad = [r for r in rows if not r["ok"]]
    status = "PASS" if not bad else "FAIL"
    print(
        f"ACCEPTANCE {criterion}: {status} — {len(rows)} instances, "
        f"{len(bad)} failures, {time.time() - started:.1f}s"
    )
    assert not bad, bad[:3]


def test_criterion_1_layer_bound_sweep():
    """sdepth(I^k/I^{k+1}) >= p, exact-flagged, all labeled graphs n <= 4, k in 0..2."""
    t0 = time.time()
    rows = sweep_layer_bound(4, (0, 1, 2), BUDGET)
    report("1 (layer lower bound)", rows, t0)


def test_criterion_2_quotient_bound_sweep():
    """sdepth(S/I^k) >= p and >= n - l(I), all labeled graphs n <= 4, k in 1..3."""
    t0 = time.time()
    rows = sweep_s_mod_bound(4, (1, 2, 3), BUDGET)
    report("2 (quotient lower bound)", rows, t0)


def test_criterion_3_limit_depth_sweep():
    """depth(S/I^k) = p exactly at k in {n-1, n}, all labeled graphs n <= 4."""
    t0 = time.time()
    rows = sweep_limit_depth(4)
    report("3 (limit depth)", rows, t0)


def test_criterion_4_stanley_inequality_quotient():
    """Stanley's inequality holds for S/I^k on the criterion-3 sweep."""
    t0 = time.time()
    rows = sweep_stanley_s_mod(4, BUDGET)
    report("4 (Stanley inequality, quotients)", rows, t0)


def test_criterion_5_power_bound_and_verdicts():
    """sdepth(I^k) >= p+1 for non-bipartite or tree-bearing graphs (k in 1..2),
    and Stanley's inequality for I^k at k in {n-1, n} on those classes."""
    t0 = time.time()
    rows = sweep_power_bound(4, (1, 2), BUDGET)
    rows += sweep_stanley_power(4, BUDGET)
    report("5 (power bound and verdicts)", rows, t0)


def test_criterion_6_tree_certificates():
    """Tree power certificates verify with sdepth >= 2 for all trees n <= 6, k in 1..2."""
    t0 = time.time()
    rows = sweep_tree_certificates(6, (1, 2), BUDGET)
    report("6 (tree certificates)", rows, t0)


def test_criterion_7_generating_set_identities():
    """200 random disjoint-support pairs: kernel, directness, and filtration
    identities hold as exact generating-set equalities for all s+t = k <= 3."""
    t0 = time.time()
    rows = identity_fuzz(200, seed=0, kmax=3)
    report("7 (generating-set identities)", rows, t0)


def test_criterion_8_oracle_coherence():
    """Certificates never exceed the exact oracle; partition certificates always
    verify; the depth lemma inequality holds on the swept instances."""
    t0 = time.time()
    rows = []
    for index, module in enumerate(random_presentations(50, seed=1)):
        result = sdepth_exact(module, BUDGET)
        dec = partition_to_decomposition(result.poset, result.partition, module)
        rep = verify(dec)
        ok = rep.valid and rep.sdepth is not None and rep.sdepth <= result.value
        rows.append({"module": index, "ok": ok})
    for graph in enumerate_labeled_graphs(3):
        if not graph.has_edges():
            continue
        for k in (1, 2):
            layer = module_for(graph, k, "layer")
            if layer.is_zero():
                continue
            lhs = depth_exact(layer)
            rhs = min(
                depth_exact(module_for(graph, k + 1, "s-mod-power")),
                depth_exact(module_for(graph, k, "s-mod-power")) + 1,
            )
            rows.append(
                {"graph": graph.to_json(), "k": k, "ok": lhs >= rhs}
            )
    report("8 (oracle coherence)", rows, t0)


def test_criterion_9_question_evidence():
    """Evidence report for the bipartite power question: the k=1 rows must all
    reach 2 (known); the k=2 rows are recorded as evidence, not asserted."""
    t0 = time.time()
    rows = question_report(ks=(1, 2), budget=BUDGET)
    checked = [
        {**r, "ok": r["sdepth"] >= 2 and r["exact"]}
        for r in rows
        if r["k"] == 1
    ]
    for r in rows:
        if r["k"] == 2:
            print(
                f"  evidence: {r['graph']} k=2 sdepth={r['sdepth']} "
                f"exact={r['exact']} ({r['verdict']})"
            )
    report("9 (question evidence, k=1 rows)", checked, t0)
