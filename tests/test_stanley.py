"""Presentations, Stanley spaces, the box verifier, and the combinators."""

from functools import lru_cache
from itertools import islice, product

import pytest

from stanley_lab import (
    BudgetExceededError,
    InputError,
    MonomialIdeal,
    ModulePresentation,
    StanleyDecomposition,
    StanleySpace,
    basis_in_box,
    concat,
    decompose_power_general,
    decompose_power_tree,
    decompose_s_mod_power,
    embed,
    enumerate_trees,
    free_extend,
    parse_graph,
    shift,
    tensor,
    verify,
)
from stanley_lab.monomials import Box
from stanley_lab.stanley import _verification_box

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
    """S/I^2 of path:3 moved to variables 1, 3, 5 of 5; x2 and x4 lie in the
    ideal, so no space uses coordinates 2 and 4."""
    dec = decompose_s_mod_power(parse_graph("path:3"), 2)
    units = MonomialIdeal.make(5, [(0, 1, 0, 0, 0), (0, 0, 0, 1, 0)])
    ideal = dec.module.lower.extend((1, 3, 5), 5) + units
    return embed(dec, (1, 3, 5), ModulePresentation.quotient_ring(ideal))


def free_extended_power():
    """I^2 of path:3 moved into 5 variables, with x4 and x5 acting freely."""
    dec = decompose_power_general(parse_graph("path:3"), 2)
    module = ModulePresentation.of_ideal(dec.module.upper.extend((1, 2, 3), 5))
    return free_extend(embed(dec, (1, 2, 3), module), (4, 5), module)


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


def test_tensor():
    left = StanleyDecomposition(
        S_MOD_XY,
        (
            StanleySpace((0, 0), frozenset({1})),
            StanleySpace((0, 1), frozenset({2})),
        ),
    )
    ideal34 = MonomialIdeal.make(4, [(0, 0, 1, 1)])
    right_module = ModulePresentation.of_ideal(ideal34)
    right = StanleyDecomposition(
        right_module, (StanleySpace((0, 0, 1, 1), frozenset({3, 4})),)
    )
    lifted_xy = MonomialIdeal.make(4, [(1, 1, 0, 0)])
    target = ModulePresentation.make(
        4, lifted_xy * ideal34, ideal34
    )
    left4 = embed(left, (1, 2), target)
    combined = tensor(left4, right, target)
    assert len(combined.spaces) == 2
    assert combined.sdepth() == 1 + 2
    assert verify(combined).valid


def test_tensor_layer_piece():
    # L/L^2 over {x1,x2} tensor S''/J' over {x3,x4}, checked against the
    # piece L/(L^2 + L J') it is supposed to cover
    L = MonomialIdeal.make(4, [(1, 1, 0, 0)])
    Jp = MonomialIdeal.make(4, [(0, 0, 1, 1)])
    target = ModulePresentation.make(4, L * L + L * Jp, L)
    layer = StanleyDecomposition(
        ModulePresentation.power_layer(MonomialIdeal.make(2, [(1, 1)]), 1),
        (
            StanleySpace((1, 1), frozenset({1})),
            StanleySpace((1, 2), frozenset({2})),
        ),
    )
    quotient = StanleyDecomposition(
        S_MOD_XY,
        (
            StanleySpace((0, 0), frozenset({1})),
            StanleySpace((0, 1), frozenset({2})),
        ),
    )
    combined = tensor(
        embed(layer, (1, 2), target), embed(quotient, (3, 4), target), target
    )
    report = verify(combined)
    assert report.valid and report.sdepth == 2


def test_tensor_sdepth_adds_exactly():
    a = StanleyDecomposition(
        S_MOD_XY,
        (StanleySpace((0, 0), frozenset({1})), StanleySpace((0, 1), frozenset({2}))),
    )
    target = ModulePresentation.quotient_ring(
        MonomialIdeal.make(4, [(1, 1, 0, 0), (0, 0, 1, 1)])
    )
    b_module = ModulePresentation.quotient_ring(MonomialIdeal.make(2, [(1, 1)]))
    b = StanleyDecomposition(
        b_module,
        (StanleySpace((0, 0), frozenset({1})), StanleySpace((0, 1), frozenset({2}))),
    )
    combined = tensor(embed(a, (1, 2), target), embed(b, (3, 4), target), target)
    assert combined.sdepth() == a.sdepth() + b.sdepth()
    assert verify(combined).valid


def test_tensor_rejects_overlap():
    a = StanleyDecomposition(S_MOD_XY, (StanleySpace((0, 0), frozenset({1})),))
    with pytest.raises(InputError):
        tensor(a, a, S_MOD_XY)


def test_shift_identity():
    dec = StanleyDecomposition(S_MOD_XY, (StanleySpace((0, 0), frozenset({1})),))
    assert shift(dec, (0, 0), S_MOD_XY).spaces == dec.spaces


def test_free_extend_raises_sdepth():
    dec = StanleyDecomposition(S_MOD_XY, (StanleySpace((0, 0), frozenset({1})),))
    target = ModulePresentation.quotient_ring(XY.extend((1, 2), 4))
    wide = free_extend(embed(dec, (1, 2), target), (3, 4), target)
    assert wide.sdepth() == 3


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
