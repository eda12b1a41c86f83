"""Tests of the benchmark itself: the answer check, the tracer and its cleanup.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import dataclasses
import sys

import pytest

import run
import workloads as wl
from tracing import LAYER_METRICS, Tracer

if run.SRC not in sys.path:
    sys.path.insert(0, run.SRC)
lib = wl.import_library()


def small_inputs() -> list[wl.Inputs]:
    """Small versions of the three workloads: same code paths, about a second."""
    sweep = wl.Instance("run_sweep(nmax=2, kmax=1)", "sweep", "sweeps", "run_sweep", (2, 1, 10_000, 1))
    panel = [
        wl.sdepth_instance(lib, lib.preset("path:4"), "path:4", "power", 2),
        wl.sdepth_instance(lib, lib.preset("cycle:4"), "cycle:4", "s-mod-power", 2),
        wl.depth_instance(lib, lib.preset("path:3"), "path:3", 2),
    ]
    pair = lib.parse_graph("path:2+path:3")
    return [
        wl.Inputs("hard-panel", panel),
        wl.Inputs("certify-trees", [wl.tree_instance(n) for n in (2, 3, 4)], [pair]),
        wl.Inputs("sweep-n4", [sweep]),
    ]


def answers(p: run.Pass) -> list:
    assert all(r.error is None for r in p.records), [r.error for r in p.records]
    return [(r.inst.key, wl.summarize(r.inst, r.result)) for r in p.records]


def reference_for(p: run.Pass) -> dict:
    ref = {"sdepth": {}, "depth": {}, "certificates": {}, "sweep": {}}
    table = {"sdepth": "sdepth", "depth": "depth", "certificate": "certificates"}
    for r in p.records:
        if r.inst.kind in table:
            ref[table[r.inst.kind]][r.inst.key] = wl.summarize(r.inst, r.result)
    return ref


def bindings() -> dict:
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "stanley_lab" or name.startswith("stanley_lab."):
            for attr, value in vars(mod).items():
                if callable(value):
                    out[(name, attr)] = value
    out[("MonomialIdeal", "__pow__")] = lib.MonomialIdeal.__dict__["__pow__"]
    return out


@pytest.fixture(scope="module")
def panel_pass() -> run.Pass:
    return run.run_one_pass(small_inputs()[0], None)


def test_checker_accepts_the_recorded_answers_and_drops_results():
    p = run.run_one_pass(small_inputs()[0], None)
    checker = run.Checker(lib, reference_for(p))
    checker.settle(p)
    assert checker.problems == []
    assert not any(r.failed for r in p.records)
    assert all(r.result is None and r.answer is not None for r in p.records)


def tampered(rec: run.Record, **changes) -> list[str]:
    ref = reference_for(run.Pass(False, records=[rec]))
    answer = {**wl.summarize(rec.inst, rec.result), **changes}
    return wl.check(lib, rec.inst, rec.result, answer, ref)


def test_check_rejects_tampered_answers(panel_pass):
    sdepth, _, depth = panel_pass.records
    value = wl.summarize(sdepth.inst, sdepth.result)["value"]
    assert sdepth.result.exact
    assert tampered(sdepth, value=value + 1)
    assert tampered(sdepth, value=value - 1)
    # a lower bound flagged exact, and an exact answer downgraded to a bound
    assert tampered(sdepth, value=value - 1, exact=True)
    assert tampered(sdepth, exact=False)
    assert tampered(depth, value=wl.summarize(depth.inst, depth.result)["value"] + 1)


def test_check_treats_an_inexact_reference_as_a_lower_bound(panel_pass):
    rec = panel_pass.records[0]
    truncated = dataclasses.replace(rec, result=lib.sdepth_exact(rec.inst.args[0], 1))
    assert not truncated.result.exact
    ref = reference_for(run.Pass(False, records=[truncated]))
    low = wl.summarize(truncated.inst, truncated.result)
    assert wl.check(lib, rec.inst, rec.result, wl.summarize(rec.inst, rec.result), ref) == []
    assert wl.check(lib, rec.inst, truncated.result, {**low, "value": low["value"] - 1}, ref)


def test_check_rejects_a_broken_certificate(panel_pass):
    rec = panel_pass.records[0]
    intervals = rec.result.partition.intervals[1:]
    broken = dataclasses.replace(
        rec.result, partition=dataclasses.replace(rec.result.partition, intervals=intervals)
    )
    ref = reference_for(panel_pass)
    answer = wl.summarize(rec.inst, rec.result)
    assert any("verify" in p for p in wl.check(lib, rec.inst, broken, answer, ref))


@pytest.mark.parametrize("index", [0, 1, 2])
def test_traced_answers_match_untraced(index):
    inputs = small_inputs()[index]
    plain = run.run_one_pass(inputs, None)
    tracer = Tracer()
    traced = run.run_one_pass(inputs, tracer)
    assert answers(traced) == answers(plain)
    totals = tracer.layer_totals()
    assert set(totals) >= set(LAYER_METRICS) - {"trace.wall_s", "trace.overhead_s"}
    if index == 0:
        assert totals["sdepth.sdepth_exact.calls"] == 2
        assert totals["depth.homology_profile.calls"] == 1
        assert totals["sdepth.search_partition.calls"] > 0
    elif index == 1:
        assert totals["graphs.enumerate_trees.calls"] == 3
        assert totals["constructions.decompose.reverifications"] > 0
        assert totals["monomials.pow.calls"] > 0
    else:
        assert totals["sweeps.run_sweep.calls"] == 1
        assert totals["bounds.stanley_verdict.calls"] > 0
        assert totals["graphs.enumerate_labeled_graphs.calls"] > 0
        return
    checker = run.Checker(lib, reference_for(plain))
    checker.settle(plain)
    checker.settle(traced)
    assert checker.problems == []


def test_tracer_rebinds_copies_and_restores_every_binding():
    before = bindings()
    sdepth_mod = sys.modules["stanley_lab.sdepth"]
    constructions = sys.modules["stanley_lab.constructions"]
    with Tracer() as tracer:
        assert constructions.search_partition is sdepth_mod.search_partition
        assert constructions.search_partition.__wrapped__ is before[("stanley_lab.sdepth", "search_partition")]
        assert lib.search_partition is sdepth_mod.search_partition
        lib.preset("path:3").edge_ideal() ** 2
        assert tracer.counts["monomials.pow.calls"] == 1
    assert bindings() == before
