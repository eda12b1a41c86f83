"""Presentations, Stanley spaces, the box verifier, and the combinators."""

import random
from collections import Counter
from functools import lru_cache
from itertools import combinations, islice, product
from math import comb
from operator import le

import pytest

from stanley_lab import (
    BudgetExceededError,
    Graph,
    InputError,
    MonomialIdeal,
    ModulePresentation,
    StanleyDecomposition,
    StanleySpace,
    concat,
    decompose_power_general,
    decompose_power_tree,
    decompose_s_mod_power,
    enumerate_trees,
    parse_graph,
    pin,
    shift,
    tensor,
    verify,
)
from stanley_lab.bounds import KIND_LAYER, KINDS, module_for
from stanley_lab.graphs import enumerate_labeled_graphs
from stanley_lab.monomials import Box
from stanley_lab import constructions, monomials, stanley
from stanley_lab.sdepth import build_poset, hilbert_cap
from stanley_lab.stanley import _verification_box, verify_upper
from stanley_lab.sweeps import isomorphism_classes

from helpers import basis_in_box, certify_trees_requests, random_presentations

XY = MonomialIdeal.make(2, [(1, 1)])
S_MOD_XY = ModulePresentation.quotient_ring(XY)
P3 = MonomialIdeal.make(3, [(1, 1, 0), (0, 1, 1)])


def brute_basis(module, corner):
    out = set()
    for a in product(*(range(c + 1) for c in corner)):
        if module.upper.contains(a) and not module.lower.contains(a):
            out.add(a)
    return out


@lru_cache(maxsize=8)
def cached_brute_basis(module, corner):
    return frozenset(brute_basis(module, corner))


def reference_verify(dec):
    """The point-by-point verifier: walk every space's points in order over the
    box one above all generator and shift exponents, against a set basis."""
    n = dec.module.n
    exps = (*dec.module.lower.gens, *dec.module.upper.gens, *(s.u for s in dec.spaces))
    corner = tuple(max(col) + 1 for col in zip((0,) * n, *exps))
    basis = cached_brute_basis(dec.module, corner)
    covered = set()
    for s in dec.spaces:
        ranges = [
            range(s.u[j], corner[j] + 1) if j + 1 in s.Z else range(s.u[j], s.u[j] + 1)
            for j in range(n)
        ]
        for a in product(*ranges):
            if a not in basis:
                return (False, None, a, "outside-module")
            if a in covered:
                return (False, None, a, "double-covered")
            covered.add(a)
    if covered != basis:
        return (False, None, min(basis - covered), "uncovered")
    return (True, dec.sdepth(), None, None)


def perturbations(dec):
    """Each space dropped, duplicated, shifted by +-e_j, and with each variable toggled."""
    spaces = list(dec.spaces)
    n = dec.module.n
    for i, s in enumerate(spaces):
        rest = spaces[:i] + spaces[i + 1 :]
        yield rest
        yield spaces[: i + 1] + [s] + spaces[i + 1 :]
        for j in range(n):
            for step in (1, -1):
                u = list(s.u)
                u[j] += step
                if u[j] >= 0:
                    yield rest[:i] + [StanleySpace(tuple(u), s.Z)] + rest[i:]
            yield rest[:i] + [StanleySpace(s.u, s.Z ^ {j + 1})] + rest[i:]


def general_power(spec, k):
    return lambda: decompose_power_general(parse_graph(spec), k)


def embedded_quotient():
    """S/I^2 of the path 1-3-5 in 5 variables, with x2 and x4 added to the
    ideal, so no space uses coordinates 2 and 4."""
    dec = decompose_s_mod_power(Graph.make(5, [(1, 3), (3, 5)]), 2)
    units = MonomialIdeal.make(5, [(0, 1, 0, 0, 0), (0, 0, 0, 1, 0)])
    pinned = pin(dec, (2, 4))
    assert pinned.module == ModulePresentation.quotient_ring(dec.module.lower + units)
    return pinned


def free_extended_power():
    """I^2 of path:3 in 5 variables, with x4 and x5 acting freely."""
    return decompose_power_general(Graph.make(5, [(1, 2), (2, 3)]), 2)


def largest_tree_power():
    """I^3 of a 6-vertex tree: the largest verify box of certify-trees."""
    return decompose_power_tree(enumerate_trees(6)[0], 3)


def tiled_quotient():
    """S/(x1^3000) in 2 variables as 3,000 spaces: its level table would exceed
    BOX_POINT_CAP bits, so verify tiles each space instead."""
    module = ModulePresentation.quotient_ring(MonomialIdeal.make(2, [(3000, 0)]))
    spaces = tuple(StanleySpace((a, 0), frozenset({2})) for a in range(3000))
    return StanleyDecomposition(module, spaces)


# (builder, every how many perturbations to check, whether the level table fits)
VERIFY_CASES = [
    *(
        pytest.param(general_power(spec, k), 1, True, id=f"{spec}-{k}")
        for spec, k in [("path:3", 2), ("cycle:3", 2), ("star:3", 2), ("path:2+path:2", 2), ("cycle:4", 2)]
    ),
    pytest.param(embedded_quotient, 1, True, id="embedded"),
    pytest.param(free_extended_power, 1, True, id="free-extended"),
    pytest.param(largest_tree_power, 23, True, id="tree6-3"),
    pytest.param(tiled_quotient, 1499, False, id="tiled-x1^3000"),
]


@pytest.mark.parametrize("build, stride, fits", VERIFY_CASES)
def test_verify_matches_reference_verifier(build, stride, fits):
    dec = build()
    assert reference_verify(dec)[0]
    assert (Box(_verification_box(dec)).levels() is not None) == fits
    decs = [dec] + [
        StanleyDecomposition(dec.module, tuple(spaces))
        for spaces in islice(perturbations(dec), 0, None, stride)
    ]
    kinds = set()
    for d in decs:
        report = verify(d)
        got = (report.valid, report.sdepth, report.witness, report.failure)
        assert got == reference_verify(d), d.spaces
        kinds.add(report.failure)
    assert kinds == {None, "outside-module", "double-covered", "uncovered"}


@pytest.mark.parametrize("build, stride, fits", VERIFY_CASES)
def test_plain_verify_is_the_assembly_of_itself(build, stride, fits):
    """``verify(d)`` walks d as the one piece of itself: given (d,) as the
    pieces it reports the same, on each case and each checked perturbation."""
    dec = build()
    spaces = islice(perturbations(dec), 0, None, stride)
    for d in [dec, *(StanleyDecomposition(dec.module, tuple(s)) for s in spaces)]:
        assert verify(d) == verify(d, (d,), ())


@pytest.mark.parametrize("build, stride, fits", VERIFY_CASES)
def test_verify_walks_the_tight_box(monkeypatch, build, stride, fits):
    """The box ``verify`` walks is componentwise at most the one a unit above
    every generator and shift exponent, on each case and each checked
    perturbation, and has fewer points on the case itself."""
    corners = []

    def recording_box(corner):
        corners.append(corner)
        return Box(corner)

    monkeypatch.setattr(stanley, "Box", recording_box)
    dec = build()
    spaces = islice(perturbations(dec), 0, None, stride)
    for d in [dec, *(StanleyDecomposition(dec.module, tuple(s)) for s in spaces)]:
        exps = (*d.module.lower.gens, *d.module.upper.gens, *(s.u for s in d.spaces))
        old = tuple(max(col) + 1 for col in zip((0,) * d.module.n, *exps))
        corners.clear()
        verify(d)
        (corner,) = corners
        assert all(map(le, corner, old)), (corner, old)
        if d is dec:
            assert Box(corner).size < Box(old).size
            assert (Box(corner).levels() is not None) == fits


# A valid decomposition of S/(xy), and bad spaces with the message each raises.
XY_SPACES = [StanleySpace((0, 0), frozenset({1})), StanleySpace((0, 1), frozenset({2}))]
BAD_SPACES = [
    (StanleySpace((0, 0, 0), frozenset()), "expected a multidegree of length 2, got (0, 0, 0)"),
    (StanleySpace((1,), frozenset({1})), "expected a multidegree of length 2, got (1,)"),
    (StanleySpace((0, -1), frozenset()), "negative exponent in (0, -1)"),
    (StanleySpace((-1, 0, 0), frozenset()), "negative exponent in (-1, 0, 0)"),
    (StanleySpace((0, 0), frozenset({3})), "space variables [3] out of range 1..2"),
    (StanleySpace((1, 0), frozenset({0, 1})), "space variables [0, 1] out of range 1..2"),
]


@pytest.mark.parametrize("where", [0, 1, 2], ids=["first", "middle", "last"])
@pytest.mark.parametrize("bad, message", BAD_SPACES)
def test_verify_rejects_the_first_bad_space(bad, message, where):
    spaces = XY_SPACES[:where] + [bad] + XY_SPACES[where:]
    with pytest.raises(InputError) as info:
        verify(StanleyDecomposition(S_MOD_XY, tuple(spaces)))
    assert str(info.value) == message
    # a bad space after it is not the one reported
    for later, _ in BAD_SPACES:
        with pytest.raises(InputError) as info:
            verify(StanleyDecomposition(S_MOD_XY, tuple(spaces + [later])))
        assert str(info.value) == message


def test_verify_caps_the_box():
    huge = ModulePresentation.quotient_ring(MonomialIdeal.make(3, [(1000, 1000, 1000)]))
    dec = StanleyDecomposition(huge, (StanleySpace((0, 0, 0), frozenset({1, 2})),))
    with pytest.raises(BudgetExceededError):
        verify(dec)


def test_presentation_validates_containment():
    with pytest.raises(InputError):
        ModulePresentation.make(2, MonomialIdeal.unit(2), MonomialIdeal.zero(2))


def test_zero_module_detection():
    ideal = MonomialIdeal.make(2, [(1, 0)])
    assert ModulePresentation.make(2, ideal, ideal).is_zero()
    assert not S_MOD_XY.is_zero()


def test_basis_in_box():
    assert basis_in_box(S_MOD_XY, (1, 1)) == {(0, 0), (1, 0), (0, 1)}
    zero = ModulePresentation.make(2, XY, XY)
    assert basis_in_box(zero, (3, 3)) == set()
    layer = ModulePresentation.power_layer(P3, 1)
    expected = {(1, 1, 0), (0, 1, 1), (1, 2, 0), (0, 2, 1), (1, 1, 1)}
    assert basis_in_box(layer, (1, 2, 1)) == expected
    assert basis_in_box(layer, (1, 2, 1)) == brute_basis(layer, (1, 2, 1))


def test_verify_valid_quotient():
    dec = StanleyDecomposition(
        S_MOD_XY,
        (
            StanleySpace((0, 0), frozenset({1})),
            StanleySpace((0, 1), frozenset({2})),
        ),
    )
    report = verify(dec)
    assert report.valid and report.sdepth == 1


def test_verify_principal_ideal():
    module = ModulePresentation.of_ideal(XY)
    dec = StanleyDecomposition(module, (StanleySpace((1, 1), frozenset({1, 2})),))
    report = verify(dec)
    assert report.valid and report.sdepth == 2


def test_verify_detects_overcoverage():
    dec = StanleyDecomposition(
        S_MOD_XY, (StanleySpace((0, 0), frozenset({1, 2})),)
    )
    report = verify(dec)
    assert not report.valid
    assert report.failure == "outside-module"
    assert report.witness == (1, 1)


def test_verify_detects_uncovered_and_double():
    missing = StanleyDecomposition(
        S_MOD_XY, (StanleySpace((0, 0), frozenset({1})),)
    )
    report = verify(missing)
    assert not report.valid and report.failure == "uncovered"
    assert report.witness == (0, 1)
    doubled = StanleyDecomposition(
        S_MOD_XY,
        (
            StanleySpace((0, 0), frozenset({1})),
            StanleySpace((0, 0), frozenset({2})),
        ),
    )
    report = verify(doubled)
    assert not report.valid and report.failure == "double-covered"


def test_empty_decomposition_of_zero_module_is_valid():
    zero = ModulePresentation.make(2, XY, XY)
    report = verify(StanleyDecomposition(zero, ()))
    assert report.valid and report.sdepth is None


# S/(x1 x2) in 4 variables, with x3 and x4 acting freely
XY_MOD_4 = ModulePresentation.quotient_ring(MonomialIdeal.make(4, [(1, 1, 0, 0)]))
QUOTIENT_12 = StanleyDecomposition(
    XY_MOD_4,
    (
        StanleySpace((0, 0, 0, 0), frozenset({1, 3, 4})),
        StanleySpace((0, 1, 0, 0), frozenset({2, 3, 4})),
    ),
)
# S/(x3 x4) in 4 variables, with x1 and x2 acting freely
QUOTIENT_34 = StanleyDecomposition(
    ModulePresentation.quotient_ring(MonomialIdeal.make(4, [(0, 0, 1, 1)])),
    (
        StanleySpace((0, 0, 0, 0), frozenset({1, 2, 3})),
        StanleySpace((0, 0, 0, 1), frozenset({1, 2, 4})),
    ),
)


def test_variables_are_the_pinned_ones():
    assert QUOTIENT_12.variables() == frozenset({1, 2})
    shifted = StanleyDecomposition(XY_MOD_4, (StanleySpace((0, 0, 1, 0), frozenset({1, 2, 3, 4})),))
    assert shifted.variables() == frozenset({3})


def test_tensor():
    ideal34 = MonomialIdeal.make(4, [(0, 0, 1, 1)])
    right = StanleyDecomposition(
        ModulePresentation.of_ideal(ideal34),
        (StanleySpace((0, 0, 1, 1), frozenset({1, 2, 3, 4})),),
    )
    lifted_xy = MonomialIdeal.make(4, [(1, 1, 0, 0)])
    target = ModulePresentation.make(
        4, lifted_xy * ideal34, ideal34
    )
    combined = tensor(QUOTIENT_12, right)
    assert combined.module == target
    assert combined.spaces == (
        StanleySpace((0, 0, 1, 1), frozenset({1, 3, 4})),
        StanleySpace((0, 1, 1, 1), frozenset({2, 3, 4})),
    )
    assert combined.sdepth() == 1 + 2
    assert verify(combined).valid


def test_tensor_layer_piece():
    # L/L^2 over {x1,x2} tensor S''/J' over {x3,x4}, checked against the
    # piece L/(L^2 + L J') it is supposed to cover
    L = MonomialIdeal.make(4, [(1, 1, 0, 0)])
    Jp = MonomialIdeal.make(4, [(0, 0, 1, 1)])
    target = ModulePresentation.make(4, L * L + L * Jp, L)
    layer = StanleyDecomposition(
        ModulePresentation.power_layer(L, 1),
        (
            StanleySpace((1, 1, 0, 0), frozenset({1, 3, 4})),
            StanleySpace((1, 2, 0, 0), frozenset({2, 3, 4})),
        ),
    )
    quotient = StanleyDecomposition(
        ModulePresentation.quotient_ring(Jp),
        (
            StanleySpace((0, 0, 0, 0), frozenset({1, 2, 3})),
            StanleySpace((0, 0, 0, 1), frozenset({1, 2, 4})),
        ),
    )
    combined = tensor(layer, quotient)
    assert combined.module == target
    report = verify(combined)
    assert report.valid and report.sdepth == 2


def test_tensor_sdepth_adds_exactly():
    # each factor has sdepth 1 over its own two variables, 3 in 4 variables
    target = ModulePresentation.quotient_ring(
        MonomialIdeal.make(4, [(1, 1, 0, 0), (0, 0, 1, 1)])
    )
    combined = tensor(QUOTIENT_12, QUOTIENT_34)
    assert combined.module == target
    assert combined.sdepth() == QUOTIENT_12.sdepth() + QUOTIENT_34.sdepth() - 4 == 1 + 1
    assert verify(combined).valid


def test_tensor_rejects_overlap():
    a = StanleyDecomposition(S_MOD_XY, (StanleySpace((0, 0), frozenset({1})),))
    with pytest.raises(InputError, match=r"both pin variables \[2\]"):
        tensor(a, a)
    with pytest.raises(InputError, match=r"both pin variables \[1, 2\]"):
        tensor(QUOTIENT_12, QUOTIENT_12)
    # x3 is free in QUOTIENT_12, and pinned in both factors here
    narrow = pin(QUOTIENT_12, (3,))
    with pytest.raises(InputError, match=r"both pin variables \[1, 2, 3\]"):
        tensor(narrow, narrow)


def test_tensor_rejects_factors_over_different_rings(monkeypatch):
    # S/(x1 x2) over 2 variables pins {1, 2}; QUOTIENT_34 over 4 pins {3, 4}
    narrow = StanleyDecomposition(
        S_MOD_XY, (StanleySpace((0, 0), frozenset({1})), StanleySpace((0, 1), frozenset({2})))
    )

    def no_space_built(*args):
        raise AssertionError("a space was built")

    monkeypatch.setattr(stanley, "deg_add", no_space_built)
    for d1, d2 in ((narrow, QUOTIENT_34), (QUOTIENT_34, narrow)):
        with pytest.raises(InputError, match="ambient mismatch"):
            tensor(d1, d2)


def test_shift_identity():
    dec = StanleyDecomposition(S_MOD_XY, (StanleySpace((0, 0), frozenset({1})),))
    assert shift(dec, (0, 0)) == dec


def test_shift_derives_the_shifted_module():
    # x3 times S/(x1 x2): the module x3 S / x1 x2 x3 S
    moved = shift(QUOTIENT_12, (0, 0, 1, 0))
    assert moved.module == ModulePresentation.make(
        4, MonomialIdeal.make(4, [(1, 1, 1, 0)]), MonomialIdeal.make(4, [(0, 0, 1, 0)])
    )
    assert verify(moved).valid and moved.sdepth() == 3


def test_pin_lowers_sdepth():
    # pinning the free x3 and x4 of S/(x1 x2) leaves S/(x1 x2, x3, x4)
    module = ModulePresentation.quotient_ring(
        MonomialIdeal.make(4, [(1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    )
    narrow = pin(QUOTIENT_12, (3, 4))
    assert narrow.module == module
    assert narrow.spaces == (
        StanleySpace((0, 0, 0, 0), frozenset({1})),
        StanleySpace((0, 1, 0, 0), frozenset({2})),
    )
    assert verify(narrow).valid and narrow.sdepth() == 1


def test_pin_rejects_a_variable_that_is_not_free():
    with pytest.raises(InputError, match=r"not free"):
        pin(QUOTIENT_12, (1, 3))
    shifted = StanleyDecomposition(XY_MOD_4, (StanleySpace((0, 0, 1, 0), frozenset({1, 2, 3, 4})),))
    with pytest.raises(InputError, match=r"pin variables \[3\]"):
        pin(shifted, (3,))


@pytest.mark.parametrize("variables", [(0,), (5,), (3, -1)])
def test_pin_rejects_a_variable_outside_the_ring(variables):
    with pytest.raises(InputError, match=r"out of range 1\.\.4"):
        pin(QUOTIENT_12, variables)


@pytest.mark.parametrize("variable", [4.9, "4", True])
def test_pin_rejects_a_variable_that_is_not_an_integer(variable):
    # x4 is free in QUOTIENT_12: none of these may pin it (nor, for True, x1)
    with pytest.raises(InputError, match="expected an integer"):
        pin(QUOTIENT_12, (variable,))


def test_concat_layers_of_small_quotient():
    # stack I^0/I^1 and I^1/I^2 into S/I^2 for the single-edge ideal
    ideal = XY
    target = ModulePresentation.quotient_ring(ideal**2)
    layer0 = StanleyDecomposition(
        ModulePresentation.power_layer(ideal, 0),
        (
            StanleySpace((0, 0), frozenset({1})),
            StanleySpace((0, 1), frozenset({2})),
        ),
    )
    layer1 = StanleyDecomposition(
        ModulePresentation.power_layer(ideal, 1),
        (
            StanleySpace((1, 1), frozenset({1})),
            StanleySpace((1, 2), frozenset({2})),
        ),
    )
    assert verify(layer0).valid and verify(layer1).valid
    stacked = concat([layer0, layer1], target)
    report = verify(stacked)
    assert report.valid and report.sdepth == 1
    assert len(stacked.spaces) == len(layer0.spaces) + len(layer1.spaces)


@lru_cache(maxsize=1)
def certify_assemblies():
    """Each (whole, pieces, proven) that the seed-0 certify-trees requests pass
    to ``verify`` with pieces."""
    seen, real = [], constructions.verify

    def record(dec, pieces=(), proven=()):
        if pieces:
            seen.append((dec, tuple(pieces), frozenset(proven)))
        return real(dec, pieces, proven)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(constructions, "verify", record)
        for build, graph, k in certify_trees_requests():
            build(graph, k)
    return seen


def with_piece(pieces, i, spaces):
    piece = pieces[i]
    return pieces[:i] + (StanleyDecomposition(piece.module, tuple(spaces)),) + pieces[i + 1 :]


def corruptions(pieces, rng):
    """(kind, corrupted pieces): per nonempty piece, the piece omitted, and one
    seeded space dropped, duplicated and with one exponent of u bumped; per
    adjacent pair, the last space of the first moved to the front of the second."""
    for i, piece in enumerate(pieces):
        spaces = list(piece.spaces)
        if not spaces:
            continue
        j, axis = rng.randrange(len(spaces)), rng.randrange(piece.module.n)
        s = spaces[j]
        bumped = StanleySpace(tuple(e + (a == axis) for a, e in enumerate(s.u)), s.Z)
        yield "omit", pieces[:i] + pieces[i + 1 :]
        yield "drop", with_piece(pieces, i, spaces[:j] + spaces[j + 1 :])
        yield "duplicate", with_piece(pieces, i, spaces[: j + 1] + spaces[j:])
        yield "bump", with_piece(pieces, i, spaces[:j] + [bumped] + spaces[j + 1 :])
        if i + 1 < len(pieces):
            moved = with_piece(pieces, i, spaces[:-1])
            yield "move", with_piece(moved, i + 1, (spaces[-1], *pieces[i + 1].spaces))


def test_verify_assembly_accepts_exactly_when_each_new_part_verifies():
    """On every assembly of the seed-0 certify-trees requests and on each of its
    corruptions, one joint walk accepts exactly when the whole and each piece
    not proven pass a separate ``verify``."""
    rng, outcomes = random.Random(0), Counter()
    assemblies = certify_assemblies()
    assert len(assemblies) == 133
    for whole, pieces, proven in assemblies:
        assert verify(whole, pieces, proven).valid
        assert verify(whole).valid and all(verify(p).valid for p in pieces)
        for kind, bad in corruptions(pieces, rng):
            spaces = tuple(s for p in bad for s in p.spaces)
            bad_whole = StanleyDecomposition(whole.module, spaces)
            new = [p for p in bad if p not in proven]
            expected = verify(bad_whole).valid and all(verify(p).valid for p in new)
            assert verify(bad_whole, bad, proven).valid == expected, kind
            outcomes[kind, expected] += 1
            if kind == "move":
                # the whole is unchanged and valid; both moved pieces are not,
                # and only taking them as proven lets the walk accept
                changed = [p for p, q in zip(bad, pieces) if p != q]
                assert bad_whole == whole and len(changed) == 2
                assert not any(verify(p).valid for p in changed)
                assert verify(bad_whole, bad, proven | set(changed)).valid
    assert {kind for kind, expected in outcomes if not expected} == {
        "omit", "drop", "duplicate", "bump", "move"
    }
    assert outcomes["move", True] == 0


def test_verify_assembly_needs_the_pieces_spaces_in_order():
    dec = decompose_power_tree(parse_graph("path:4"), 2)
    head = StanleyDecomposition(dec.module, dec.spaces[:2])
    tail = StanleyDecomposition(dec.module, dec.spaces[2:])
    assert verify(dec, (head, tail), {head, tail}).valid
    assert not verify(dec, (tail, head), {head, tail}).valid
    assert not verify(dec, (head,), {head}).valid
    narrow = StanleyDecomposition(S_MOD_XY, tail.spaces)
    assert not verify(dec, (head, narrow), {head, narrow}).valid


def test_certificate_json_roundtrip():
    dec = StanleyDecomposition(
        S_MOD_XY,
        (
            StanleySpace((0, 0), frozenset({1})),
            StanleySpace((0, 1), frozenset({2})),
        ),
    )
    obj = dec.to_json()
    assert obj["spaces"][0] == {"u": [0, 0], "Z": [1]}
    again = StanleyDecomposition.from_json(obj)
    assert again == dec


def distinct_z_counts(dec):
    """(stored Z objects, distinct Z values) over the spaces of dec."""
    return len({id(s.Z) for s in dec.spaces}), len({s.Z for s in dec.spaces})


def test_spaces_share_their_z_sets():
    tree = decompose_power_tree(enumerate_trees(6)[0], 3)
    objects, values = distinct_z_counts(tree)
    assert objects == values < len(tree.spaces)
    again = StanleyDecomposition.from_json(tree.to_json())
    assert all(a.Z is b.Z for a, b in zip(again.spaces, tree.spaces))
    # two trees on their own variables of a 6-variable ring, each free in the other
    left = decompose_power_tree(Graph.make(6, [(1, 2), (2, 3)], {1, 2, 3}), 2)
    right = decompose_power_tree(Graph.make(6, [(4, 5), (5, 6)], {4, 5, 6}), 2)
    lower = left.module.lower * right.module.upper + left.module.upper * right.module.lower
    product_module = ModulePresentation.make(6, lower, left.module.upper * right.module.upper)
    combined = tensor(left, right)
    assert combined.module == product_module
    upper = left.module.upper
    pinned = pin(left, (4, 5))
    assert pinned.module == ModulePresentation.make(
        6, MonomialIdeal.make(6, [(0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0)]) * upper, upper
    )
    for dec in (combined, pinned):
        assert verify(dec).valid
        objects, values = distinct_z_counts(dec)
        assert objects == values < len(dec.spaces)


def test_equal_records_built_apart_compare_and_hash_equal():
    graphs = Graph.make(3, [(1, 2), (2, 3)]), Graph.make(3, [[3, 2], [2, 1]], [3, 2, 1])
    modules = (
        ModulePresentation.quotient_ring(P3),
        ModulePresentation.make(3, MonomialIdeal.make(3, [(0, 1, 1), (1, 1, 1), (1, 1, 0)]),
                                MonomialIdeal.unit(3)),
    )
    for a, b in (graphs, modules):
        assert a is not b and a == b and hash(a) == hash(b)


def test_built_in_presentations_equal_their_validated_make_forms():
    # quotient_ring, of_ideal and power_layer skip the inclusion scan of make
    make = ModulePresentation.make
    checked = 0
    for n in range(1, 5):
        for graph in enumerate_labeled_graphs(n):
            ideal = graph.edge_ideal()
            unit, zero = MonomialIdeal.unit(n), MonomialIdeal.zero(n)
            for k in range(4):
                power, next_power = ideal**k, ideal ** (k + 1)
                assert ModulePresentation.quotient_ring(power) == make(n, power, unit)
                assert ModulePresentation.of_ideal(power) == make(n, zero, power)
                assert ModulePresentation.power_layer(ideal, k) == make(n, next_power, power)
                checked += 1
    assert checked == 4 * 75


def test_shift_pin_and_module_for_build_without_the_validators(monkeypatch):
    """With ``MonomialIdeal.make`` and ``minimalize`` patched to raise, the
    modules that ``module_for``, ``shift`` and ``pin`` derive equal their
    validated forms.  A combinator's module does not depend on the spaces, so
    each module goes in with none, which leaves every variable free."""
    cases = [
        (graph, k, kind)
        for n in range(1, 5)
        for graph in enumerate_labeled_graphs(n)
        for kind in KINDS
        for k in range(kind != KIND_LAYER, 4)
    ]

    def moves(n):
        return (0,) * n, tuple(range(n)), tuple(range(n, 0, -1))

    def pinned_sets(n):
        return [ws for size in range(n + 1) for ws in combinations(range(1, n + 1), size)]

    def refuse(*args):
        raise AssertionError(f"validator reached with {args}")

    derived = []
    with monkeypatch.context() as patch:
        patch.setattr(MonomialIdeal, "make", refuse)
        patch.setattr(monomials, "minimalize", refuse)
        for graph, k, kind in cases:
            module = module_for(graph, k, kind)
            bare = StanleyDecomposition(module, ())
            derived.append(module)
            derived += [shift(bare, m).module for m in moves(graph.n)]
            derived += [pin(bare, ws).module for ws in pinned_sets(graph.n)]
    make, expected = ModulePresentation.make, []
    for graph, k, kind in cases:
        module = ModulePresentation.from_json(module_for(graph, k, kind).to_json())
        n, lower, upper = module
        expected.append(module)
        for m in moves(n):
            monomial = MonomialIdeal.make(n, [m])
            expected.append(make(n, monomial * lower, monomial * upper))
        for ws in pinned_sets(n):
            pinned = MonomialIdeal.make(n, [[int(j == w) for j in range(1, n + 1)] for w in ws])
            expected.append(make(n, lower + pinned * upper, upper))
    assert len(cases) == 75 * 10
    assert derived == expected


def _witness_cases():
    """(module, witness) for every Hilbert-depth cap below the largest rank:
    the nonzero modules of the three kinds, k <= 2, of one graph per class on
    at most 4 vertices, then the seeded random presentations."""
    modules = [
        module_for(rep, k, kind)
        for n in range(1, 5)
        for rep in dict.fromkeys(rep for _, rep in isomorphism_classes(n))
        for kind in KINDS
        for k in range(kind != KIND_LAYER, 3)
    ]
    for module in [m for m in modules if not m.is_zero()] + random_presentations(300, seed=3):
        _, witness = hilbert_cap(build_poset(module))
        if witness is not None:
            yield module, witness


def test_verify_upper_accepts_every_cap_witness():
    cases = list(_witness_cases())
    assert all(verify_upper(module, witness) for module, witness in cases)
    assert len(cases) == 196


def _coefficient(module, d, m):
    """The coefficient of t^m in (1-t)^d H_M(t), from the basis points of the box [0, m]^n."""
    h = Counter(map(sum, basis_in_box(module, (m,) * module.n)))
    return sum((-1) ** i * comb(d, i) * h[m - i] for i in range(min(d, m) + 1))


def test_verify_upper_rejects_tampered_witnesses():
    """A witness with its coefficient raised by one, or with d lowered by one
    (with its coefficient or the true one there), is rejected.  With its degree raised by one it is accepted exactly when
    that coefficient, recounted from the box basis, is the same negative."""
    next_equal = Counter()
    for module, (d, m, c) in _witness_cases():
        assert _coefficient(module, d, m) == c
        assert not verify_upper(module, (d, m, c + 1))
        assert not verify_upper(module, (d - 1, m, c))
        below = _coefficient(module, d - 1, m)  # the cap holds: not negative
        assert below >= 0 and not verify_upper(module, (d - 1, m, below))
        same = _coefficient(module, d, m + 1) == c
        assert verify_upper(module, (d, m + 1, c)) == same
        next_equal[same] += 1
    assert next_equal == {False: 165, True: 31}


def test_verify_upper_refuses_a_count_over_the_box_cap():
    module = ModulePresentation.quotient_ring(MonomialIdeal.make(4, [(1, 1, 0, 0)]))
    with pytest.raises(BudgetExceededError, match="monomials of degree at most 10000"):
        verify_upper(module, (3, 10_000, -1))
