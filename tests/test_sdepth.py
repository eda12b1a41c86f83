"""The exact Stanley depth oracle: poset construction, search, certificates."""

import dataclasses
import sys
from collections import Counter
from functools import cache
from itertools import product
from math import comb

import pytest

from stanley_lab import (
    InputError,
    MonomialIdeal,
    ModulePresentation,
    UndefinedValueError,
    build_poset,
    partition_to_decomposition,
    sdepth_exact,
    search_partition,
    verify,
)
from stanley_lab.bounds import KINDS, module_for
from stanley_lab.graphs import enumerate_labeled_graphs, preset
from stanley_lab import BudgetExceededError, sdepth
from stanley_lab.sdepth import (
    _MEMO_CAP,
    DEFAULT_BUDGET,
    IntervalPartition,
    SearchOutcome,
    _row,
    hilbert_cap,
)
from stanley_lab.stanley import verify_upper

from helpers import ascending_sdepth, random_presentations

XY = MonomialIdeal.make(2, [(1, 1)])
S_MOD_XY = ModulePresentation.quotient_ring(XY)
IDEAL_XY = ModulePresentation.of_ideal(XY)
P3_LAYER = ModulePresentation.power_layer(
    MonomialIdeal.make(3, [(1, 1, 0), (0, 1, 1)]), 1
)


def test_build_poset_quotient():
    poset = build_poset(S_MOD_XY)
    assert poset.g == (1, 1)
    assert set(poset.elements) == {(0, 0), (1, 0), (0, 1)}
    assert [j for j, e in enumerate(poset.g, 1) if e == 0] == []


def test_build_poset_ideal():
    poset = build_poset(IDEAL_XY)
    assert poset.g == (1, 1)
    assert poset.elements == ((1, 1),)
    assert poset.rho((1, 1)) == 2


def test_build_poset_layer():
    poset = build_poset(P3_LAYER)
    assert poset.g == (2, 2, 2)
    module = P3_LAYER
    expected = {
        a
        for a in product(range(3), repeat=3)
        if module.upper.contains(a) and not module.lower.contains(a)
    }
    assert set(poset.elements) == expected


def test_build_poset_rejects_zero_module():
    zero = ModulePresentation.make(2, XY, XY)
    with pytest.raises(UndefinedValueError):
        build_poset(zero)


def test_search_target_zero_always_found():
    poset = build_poset(S_MOD_XY)
    outcome = search_partition(poset, 0)
    assert outcome.status == "found"


def test_search_target_one_on_quotient():
    poset = build_poset(S_MOD_XY)
    outcome = search_partition(poset, 1)
    assert outcome.status == "found"
    assert outcome.partition.value(poset) == 1
    for _, top in outcome.partition.intervals:
        assert poset.rho(top) >= 1


def test_search_target_two_is_none():
    poset = build_poset(S_MOD_XY)
    assert search_partition(poset, 2).status == "none"


def test_search_monotone_in_target():
    for module in (S_MOD_XY, P3_LAYER, module_for(preset("cycle:3"), 2, "s-mod-power")):
        poset = build_poset(module)
        statuses = [
            search_partition(poset, d).status for d in range(module.n + 1)
        ]
        seen_none = False
        for status in statuses:
            if status == "none":
                seen_none = True
            else:
                assert not seen_none, "search succeeded above a failing target"


def test_search_deterministic():
    poset = build_poset(P3_LAYER)
    first = search_partition(poset, 1)
    second = search_partition(poset, 1)
    assert first.partition == second.partition


def test_budget_exhaustion_is_tristate():
    module = module_for(preset("cycle:4"), 2, "s-mod-power")
    poset = build_poset(module)
    outcome = search_partition(poset, 1, budget=1)
    assert outcome.status == "exceeded"
    assert outcome.partition is None


def test_search_restores_recursion_limit(monkeypatch):
    """No search touches the recursion limit, not even one whose walk is
    deeper than the limit: the layer (x,y,z)^45/(x,y,z)^46 is an antichain of
    1,081 elements, so at target 0 each element is its own interval."""
    quotient = build_poset(S_MOD_XY)
    cycle4 = build_poset(module_for(preset("cycle:4"), 2, "s-mod-power"))
    antichain = build_poset(
        ModulePresentation.power_layer(MonomialIdeal.make(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]), 45)
    )
    cases = [(quotient, 1, DEFAULT_BUDGET, "found"),
             (quotient, 2, DEFAULT_BUDGET, "none"),
             (cycle4, 2, DEFAULT_BUDGET, "none"),  # proved by the walk, not the cover check
             (cycle4, 1, 1, "exceeded"),
             (antichain, 0, DEFAULT_BUDGET, "found")]

    def forbidden(limit):
        raise AssertionError(f"a search set the recursion limit to {limit}")

    saved = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(500)  # below the 1,081-deep walk of the antichain
        monkeypatch.setattr(sys, "setrecursionlimit", forbidden)
        for poset, target, budget, status in cases:
            outcome = search_partition(poset, target, budget)
            assert outcome.status == status
            assert sys.getrecursionlimit() == 500
    finally:
        monkeypatch.undo()
        sys.setrecursionlimit(saved)
    assert len(antichain.elements) == outcome.nodes == len(outcome.partition.intervals) == 1081


def reference_search(poset, target, budget, memo_cap):
    """The recursive walk that search_partition replaced, kept as its reference:
    one call per chosen interval, the budget reported by an exception."""
    elems = poset.elements
    m = len(elems)
    tall = sum(1 << j for j, r in enumerate(poset.ranks) if r >= target)
    if any(not above & tall for above in poset.up):
        return SearchOutcome("none", None, 0)
    rows = [None] * m
    failed = set()
    chosen = []
    nodes = 0

    def walk(uncovered):
        nonlocal nodes
        if uncovered == 0:
            return True
        if uncovered in failed:
            return False
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(f"search budget {budget} exhausted")
        i = (uncovered & -uncovered).bit_length() - 1
        row = rows[i]
        if row is None:
            row = rows[i] = _row(poset, tall, i)
        for top, mask in row:
            if mask & uncovered != mask:
                continue
            chosen.append((elems[i], top))
            if walk(uncovered & ~mask):
                return True
            chosen.pop()
        if len(failed) < memo_cap:
            failed.add(uncovered)
        return False

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 4 * m + 1000))
    try:
        found = walk((1 << m) - 1)
    except BudgetExceededError:
        return SearchOutcome("exceeded", None, nodes)
    finally:
        sys.setrecursionlimit(limit)
    if found:
        return SearchOutcome("found", IntervalPartition(tuple(chosen)), nodes)
    return SearchOutcome("none", None, nodes)


def test_search_matches_recursive_walk(monkeypatch):
    """Status, partition and node count equal the recursive walk's on every
    target of every table module: at the default budget, at a budget small
    enough to stop some walks, and with a memo that fills after two states."""
    statuses = Counter()
    for budget, memo_cap in ((DEFAULT_BUDGET, _MEMO_CAP), (3, _MEMO_CAP), (2000, 2)):
        monkeypatch.setattr(sdepth, "_MEMO_CAP", memo_cap)
        for poset, target, _ in _reference_cases():
            outcome = search_partition(poset, target, budget)
            assert outcome == reference_search(poset, target, budget, memo_cap)
            statuses[outcome.status] += 1
    assert set(statuses) == {"found", "none", "exceeded"}


def reference_candidates(poset, target):
    """The lattice-walk table: every comparable pair, its interval walked
    point by point and kept only if every point is an element."""
    elems = poset.elements
    index = {e: i for i, e in enumerate(elems)}
    rho = [poset.rho(e) for e in elems]
    table = []
    for i, bottom in enumerate(elems):
        row = []
        for j in range(i, len(elems)):
            top = elems[j]
            if rho[j] < target or any(x > y for x, y in zip(bottom, top)):
                continue
            mask = 0
            inside = True
            for c in product(*(range(x, y + 1) for x, y in zip(bottom, top))):
                ci = index.get(c)
                if ci is None:
                    inside = False
                    break
                mask |= 1 << ci
            if inside:
                row.append((top, mask))
        row.sort(key=lambda t: t[0])
        table.append(row)
    return table


def _table_modules():
    for n in range(1, 5):
        for graph in enumerate_labeled_graphs(n):
            if graph.has_edges():
                for k in (1, 2):
                    yield module_for(graph, k, "power")
                    yield module_for(graph, k, "s-mod-power")
                for k in (0, 1, 2):
                    yield module_for(graph, k, "layer")
    yield from random_presentations(300, seed=3)


@cache
def _reference_cases():
    """(poset, target, reference table) for every target on every table module."""
    cases = []
    for module in _table_modules():
        poset = build_poset(module)
        for target in range(poset.n + 1):
            cases.append((poset, target, reference_candidates(poset, target)))
    return cases


def test_candidates_match_lattice_walk():
    for poset, target, reference in _reference_cases():
        assert poset.ranks == tuple(poset.rho(e) for e in poset.elements)
        tall = sum(1 << j for j, r in enumerate(poset.ranks) if r >= target)
        assert [_row(poset, tall, i) for i in range(len(poset.elements))] == reference
    assert len(_reference_cases()) == 3635


def test_coverability_matches_lattice_walk():
    """The row-free check says "none" with 0 nodes exactly when the union of
    the reference table misses an element.  Budget 0 stops any walk at its
    first node, so only the check can return "none"."""
    uncoverable = 0
    for poset, target, reference in _reference_cases():
        union = 0
        for row in reference:
            for _, mask in row:
                union |= mask
        missed = union != (1 << len(poset.elements)) - 1
        outcome = search_partition(poset, target, budget=0)
        expected = ("none", 0) if missed else ("exceeded", 1)
        assert (outcome.status, outcome.nodes) == expected
        uncoverable += missed
    assert uncoverable == 1307  # so both answers are exercised


def _search_totals(monkeypatch, oracle) -> Counter:
    """Nodes and statuses of every search the oracle makes on the table
    modules, summed."""
    totals = Counter()
    search = sdepth.search_partition

    def counted(poset, target, budget=DEFAULT_BUDGET):
        outcome = search(poset, target, budget)
        totals["nodes"] += outcome.nodes
        totals[outcome.status] += 1
        return outcome

    monkeypatch.setattr(sdepth, "search_partition", counted)
    for module in _table_modules():
        oracle(module)
    return totals


def test_walk_totals_pinned(monkeypatch):
    """The searches of the ascending scan (``helpers.ascending_sdepth``) on the
    table modules; lazy rows and the row-free check must not change them."""
    totals = _search_totals(monkeypatch, ascending_sdepth)
    assert totals == {"nodes": 16518, "found": 745, "none": 508}


def test_cap_first_walk_totals_pinned(monkeypatch):
    """The searches of ``sdepth_exact`` on the table modules: the search at the
    Hilbert-depth cap replaces most of the ascending scan and its "none"."""
    totals = _search_totals(monkeypatch, sdepth_exact)
    assert totals == {"nodes": 6809, "found": 577, "none": 69}


@pytest.mark.parametrize("budget, moved", [
    (DEFAULT_BUDGET, {(True, True, False): 695}),
    # at 5 nodes the scan stops early; the cap search reaches higher values
    (5, {(True, True, False): 361, (False, False, False): 278,
         (True, False, True): 49, (True, False, False): 7}),
])
def test_cap_first_matches_ascending_scan(budget, moved):
    """Against the ascending scan, on every table module: no value falls, no
    exact flag turns false, an exact reference value is met, and the cap is
    never below a value found.  ``moved`` counts (exact, reference exact,
    value rose)."""
    counts = Counter()
    for module in dict.fromkeys(_table_modules()):
        value, exact = ascending_sdepth(module, budget)
        result = sdepth_exact(module, budget)
        assert result.value >= value and result.exact >= exact
        assert result.value == value or not exact
        assert result.upper >= max(result.value, value)
        counts[result.exact, exact, result.value > value] += 1
    assert counts == moved


def reference_cap(poset):
    """The Hilbert-depth cap with the first negative coefficient, term by
    term: t^|a| (1-t)^(d - rho(a)) summed over the elements, degree by degree."""
    def term(m, e):  # the coefficient of t^m in (1-t)^e
        return (-1) ** m * comb(e, m) if e >= 0 else comb(m - e - 1, m)

    top = max(map(sum, poset.elements))
    least, most = min(poset.ranks), max(poset.ranks)
    for d in range(least + 1, most + 1):
        for j in range(top + d + 1):
            c = sum(term(j - sum(a), d - r) for a, r in zip(poset.elements, poset.ranks) if j >= sum(a))
            if c < 0:
                return d - 1, (d, j, c)
    return most, None


def test_hilbert_cap_matches_termwise_expansion():
    caps = Counter()
    for module in dict.fromkeys(_table_modules()):
        poset = build_poset(module)
        upper, witness = hilbert_cap(poset)
        assert (upper, witness) == reference_cap(poset)
        assert min(poset.ranks) <= upper <= max(poset.ranks)
        assert (witness is None) == (upper == max(poset.ranks))
        caps[upper == min(poset.ranks)] += 1
    assert caps[True] and caps[False]


def test_every_exact_answer_is_backed():
    """An exact value meets the cap, whose witness passes ``verify_upper`` or
    which is the largest rank; or a search proves the next target "none"."""
    backed = Counter()
    for module in dict.fromkeys(_table_modules()):
        result = sdepth_exact(module)
        poset = result.poset
        assert result.exact
        if result.value == result.upper:
            assert verify_upper(module, result.witness) if result.witness else result.upper == max(poset.ranks)
            backed["cap"] += 1
        else:
            assert search_partition(poset, result.value + 1).status == "none"
            backed["none"] += 1
    assert backed == {"cap": 630, "none": 65}


def test_cap_at_the_least_rank_takes_no_search(monkeypatch):
    """When the cap is the least rank the singleton partition is exact: no
    search runs and no closure is built."""
    searched = []
    monkeypatch.setattr(sdepth, "search_partition", lambda *args: searched.append(args))
    module = module_for(preset("cycle:3"), 2, "s-mod-power")
    result = sdepth_exact(module)
    assert (result.value, result.exact, result.upper) == (0, True, 0)
    assert result.witness == (1, 4, -1) and verify_upper(module, result.witness)
    assert searched == [] and "up" not in vars(result.poset)


@pytest.mark.parametrize("cap, below, value, exact", [
    ("exceeded", 3, 3, True),  # a partition found below the cap reaches it
    ("exceeded", 2, 2, False),
    ("none", 2, 2, True),
])
def test_scan_below_the_cap(monkeypatch, cap, below, value, exact):
    """``I^2`` of ``path:4`` has least rank 0 and cap 3.  With the cap search
    stopped, the scan runs up to target 2 and no further; its partition there
    is the real one found at ``below``."""
    module = module_for(preset("path:4"), 2, "power")
    search, targets = sdepth.search_partition, []

    def patched(poset, target, budget):
        targets.append(target)
        if target == 3:
            return SearchOutcome(cap, None, 1)
        return search(poset, below if target == 2 else target, budget)

    monkeypatch.setattr(sdepth, "search_partition", patched)
    result = sdepth_exact(module)
    assert (result.value, result.exact, result.upper) == (value, exact, 3)
    assert targets[0] == 3 and max(targets[1:]) == 2
    assert result.partition.value(result.poset) == value


def test_poset_is_convex():
    for module in random_presentations(300, seed=3):
        elems = set(build_poset(module).elements)
        for a in elems:
            for b in elems:
                if all(x <= y for x, y in zip(a, b)):
                    between = product(*(range(x, y + 1) for x, y in zip(a, b)))
                    assert all(c in elems for c in between)


def test_sdepth_exact_values():
    assert sdepth_exact(S_MOD_XY).value == 1
    assert sdepth_exact(S_MOD_XY).exact
    assert sdepth_exact(IDEAL_XY).value == 2
    c3 = ModulePresentation.quotient_ring(preset("cycle:3").edge_ideal())
    result = sdepth_exact(c3)
    assert result.value == 1 and result.exact


def test_partition_to_decomposition_roundtrip():
    for module in (S_MOD_XY, IDEAL_XY, P3_LAYER):
        result = sdepth_exact(module)
        dec = partition_to_decomposition(result.poset, result.partition, module)
        report = verify(dec)
        assert report.valid
        assert report.sdepth == result.partition.value(result.poset)
        assert report.sdepth == result.value


def test_free_variable_additivity():
    wide = ModulePresentation.quotient_ring(MonomialIdeal.make(4, [(1, 1, 0, 0)]))
    base = sdepth_exact(S_MOD_XY)
    extended = sdepth_exact(wide)
    assert extended.value == base.value + 2
    assert [j for j, e in enumerate(build_poset(wide).g, 1) if e == 0] == [3, 4]


def test_full_ring_sdepth_is_n():
    ring = ModulePresentation.quotient_ring(MonomialIdeal.zero(3))
    result = sdepth_exact(ring)
    assert result.value == 3 and result.exact


def test_partition_and_result_stay_dataclasses():
    # perfbench/test_perfbench.py rebuilds both with dataclasses.replace
    assert dataclasses.is_dataclass(IntervalPartition)
    assert dataclasses.is_dataclass(sdepth.SdepthResult)


def test_poset_over_the_closure_bit_cap_fails_before_any_closure(monkeypatch):
    module = ModulePresentation.quotient_ring(MonomialIdeal.make(1, [(4,)]))  # 4 elements
    monkeypatch.setattr(sdepth, "POSET_BIT_CAP", 16)
    assert len(build_poset(module).elements) == 4
    monkeypatch.setattr(sdepth, "POSET_BIT_CAP", 15)
    with pytest.raises(BudgetExceededError, match="poset of 4 elements"):
        build_poset(module)


def test_poset_cap_keeps_the_largest_posets_in_use():
    assert 11_833**2 < sdepth.POSET_BIT_CAP < 32_769**2


def _oracle_modules():
    """Every module of every kind, k <= 3, of the labeled graphs on at most
    4 vertices, then the seeded random presentations."""
    for n in range(1, 5):
        for graph in enumerate_labeled_graphs(n):
            for kind in KINDS:
                for k in range(4):
                    try:
                        yield module_for(graph, k, kind)
                    except InputError:  # k below the kind's minimum
                        pass
    yield from random_presentations(300, seed=3)


def test_search_takes_the_singleton_partition_up_to_the_least_rank():
    """At every target up to the least rank the search returns what the walk
    returns, at every budget, and reads no closure; the partition is the
    singleton one, and its certificate reaches exactly the least rank."""
    shortcut = zero = 0
    for module in dict.fromkeys(_oracle_modules()):
        try:
            poset = build_poset(module)
        except UndefinedValueError:
            zero += 1
            continue
        least, m = min(poset.ranks), len(poset.elements)
        cases = [(target, budget) for target in range(least + 1)
                 for budget in (DEFAULT_BUDGET, m, m - 1, 0, -1)]
        outcomes = [search_partition(poset, target, budget) for target, budget in cases]
        assert "up" not in vars(poset) and "down" not in vars(poset)
        assert outcomes == [reference_search(poset, *case, _MEMO_CAP) for case in cases]
        singleton = IntervalPartition(tuple((e, e) for e in poset.elements))
        assert outcomes[0] == SearchOutcome("found", singleton, m)
        report = verify(partition_to_decomposition(poset, singleton, module))
        assert report.valid and report.sdepth == least
        shortcut += least + 1
    assert (shortcut, zero) == (1585, 4)  # both branches exercised


def test_memo_is_capped_in_bits(monkeypatch):
    """The failed-state memo holds at most POSET_BIT_CAP bits: with the cap
    lowered after the posets are built, the node counts are the walk's with a
    memo of POSET_BIT_CAP // m states."""
    cases = [(poset, target) for poset, target, _ in _reference_cases()
             if target > min(poset.ranks)]
    monkeypatch.setattr(sdepth, "POSET_BIT_CAP", 64)
    moved = 0
    for poset, target in cases:
        outcome = search_partition(poset, target, 2000)
        assert outcome == reference_search(poset, target, 2000, 64 // len(poset.elements))
        moved += outcome != reference_search(poset, target, 2000, _MEMO_CAP)
    assert moved  # the cap bites
