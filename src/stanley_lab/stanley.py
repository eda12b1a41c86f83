"""Module presentations J/I, Stanley spaces and decompositions, and the verifier.

A presentation is a pair of monomial ideals lower <= upper; the module it
denotes is the multigraded vector space spanned by the monomials of
upper \\ lower.  A Stanley space (u, Z) is the set of multidegrees equal to u
off Z and >= u on Z.  Decompositions are certificates: ``verify`` checks
disjoint exact coverage over a finite box that is provably sufficient:
clamping a coordinate to the box corner keeps every membership predicate, as
the corner reaches every generator exponent and each u_j with j in Z of a
space (u, Z), and exceeds each u_j with j off Z (see ``verify``).  Spaces
share their Z sets: each new Z goes through ``shared_z``, which keeps one
stored copy per distinct set, at most 2^n of them over n variables.
``tensor``, ``shift`` and ``pin`` each derive the module they decompose from
their input, which keeps lower <= upper, so only ``make``, for input, scans
for it.
"""

from __future__ import annotations

from itertools import chain, combinations, islice
from math import comb
from operator import add
from typing import Container, Iterable, Iterator, NamedTuple, Sequence

from .errors import BudgetExceededError, InputError, as_int, malformed, quote
from .monomials import (
    BOX_POINT_CAP,
    Box,
    MonomialIdeal,
    Multidegree,
    as_degree,
    deg_add,
    support,
)


class ModulePresentation(NamedTuple):
    """The multigraded module upper/lower for monomial ideals lower <= upper.

    Covers all shapes used here: S/I is (lower=I, upper=unit), an ideal I is
    (lower=zero, upper=I), and a power layer I^k/I^{k+1} is
    (lower=I^{k+1}, upper=I^k).
    """

    n: int
    lower: MonomialIdeal
    upper: MonomialIdeal

    @classmethod
    def make(cls, n: int, lower: MonomialIdeal, upper: MonomialIdeal) -> "ModulePresentation":
        if lower.n != n or upper.n != n:
            raise InputError(
                f"ambient mismatch: module {n}, lower {lower.n}, upper {upper.n}"
            )
        if not lower.subset_of(upper):
            raise InputError("lower ideal is not contained in the upper ideal")
        return cls(n, lower, upper)

    @classmethod
    def quotient_ring(cls, ideal: MonomialIdeal) -> "ModulePresentation":
        """S/I; I lies in the unit ideal S by construction."""
        return cls(ideal.n, ideal, MonomialIdeal(ideal.n, ((0,) * ideal.n,)))

    @classmethod
    def of_ideal(cls, ideal: MonomialIdeal) -> "ModulePresentation":
        """I as a module; the zero ideal lies in I by construction."""
        return cls(ideal.n, MonomialIdeal(ideal.n, ()), ideal)

    @classmethod
    def power_layer(cls, ideal: MonomialIdeal, k: int) -> "ModulePresentation":
        """I^k/I^{k+1}, with I^{k+1} taken as I^k * I: in I^k by construction."""
        power = ideal**k
        return cls(ideal.n, power * ideal, power)

    def is_zero(self) -> bool:
        return self.upper.subset_of(self.lower)

    def contains(self, a: Sequence[int]) -> bool:
        """Whether x^a is a basis monomial of the module."""
        return self.upper.contains(a) and not self.lower.contains(a)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "lower_gens": [list(g) for g in self.lower.gens],
            "upper_gens": [list(g) for g in self.upper.gens],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ModulePresentation":
        with malformed("module", obj):
            n = as_int(obj["n"])
            return cls.make(
                n,
                MonomialIdeal.make(n, obj["lower_gens"]),
                MonomialIdeal.make(n, obj["upper_gens"]),
            )


def generator_corner(module: ModulePresentation) -> Multidegree:
    """Componentwise maximum generator exponent of both ideals.  Clamping to it
    keeps membership in both, so every nonzero module has a basis point below it."""
    return tuple(
        max(col) for col in zip((0,) * module.n, *module.lower.gens, *module.upper.gens)
    )


_Z_SETS: dict[frozenset[int], frozenset[int]] = {}  # each Z set in use, keyed by itself


def shared_z(z: frozenset[int]) -> frozenset[int]:
    """The stored copy of the Z set equal to z, stored first if new.  Z sets
    are subsets of 1..n, so the table holds at most 2^n sets for n variables."""
    return _Z_SETS.setdefault(z, z)


class StanleySpace(NamedTuple):
    """u * K[Z]: multidegrees equal to u outside Z and >= u on Z."""

    u: Multidegree
    Z: frozenset[int]


class StanleyDecomposition(NamedTuple):
    module: ModulePresentation
    spaces: tuple[StanleySpace, ...]

    def sdepth(self) -> int | None:
        """Minimum space dimension; None for the empty decomposition."""
        return min(map(len, {s.Z for s in self.spaces}), default=None)

    def variables(self) -> frozenset[int]:
        """The variables some space pins: in the support of its shift or off
        its Z.  Every other variable acts freely in every space."""
        if not self.spaces:
            return frozenset()
        every = frozenset(range(1, self.module.n + 1))
        shifted = support(tuple(map(max, zip(*(s.u for s in self.spaces)))))
        return shifted | (every - frozenset.intersection(*{s.Z for s in self.spaces}))

    def to_json(self) -> dict:
        return {
            "module": self.module.to_json(),
            "spaces": [{"u": list(s.u), "Z": sorted(s.Z)} for s in self.spaces],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "StanleyDecomposition":
        with malformed("certificate", obj):
            module = ModulePresentation.from_json(obj["module"])
            spaces = []
            for i, s in enumerate(obj["spaces"]):
                with malformed(f"certificate space {i}", s):
                    u, z = as_degree(s["u"], module.n), frozenset(map(as_int, s["Z"]))
                    spaces.append(StanleySpace(u, z))
        _check_spaces(spaces, module.n)  # only Z sets inside 1..n are shared
        return cls(module, tuple(StanleySpace(s.u, shared_z(s.Z)) for s in spaces))


class VerificationReport(NamedTuple):
    valid: bool
    sdepth: int | None
    witness: Multidegree | None = None
    failure: str | None = None  # "outside-module" | "double-covered" | "uncovered" | "not-the-pieces"

    def to_json(self) -> dict:
        witness = list(self.witness) if self.witness is not None else None
        return {**self._asdict(), "witness": witness}


def _verification_box(dec: StanleyDecomposition, *modules: ModulePresentation) -> Multidegree:
    """The corner of the box ``verify`` walks, by the rule ``verify`` states."""
    every = range(1, dec.module.n + 1)
    off = {z: tuple(j not in z for j in every) for z in {s.Z for s in dec.spaces}}
    corners = map(generator_corner, (dec.module, *modules))
    return tuple(map(max, zip(*corners, *(map(add, s.u, off[s.Z]) for s in dec.spaces))))


def _check_spaces(spaces: Sequence[StanleySpace], n: int) -> None:
    """Raise InputError at the first space with a bad shift or Z set.

    Bulk passes over all shifts and the distinct Z sets accept the common
    valid input; only when one fails does the per-space loop run, to report
    the first bad space.
    """
    shifts = [s.u for s in spaces]
    variables = frozenset(range(1, n + 1))
    try:
        if (
            set(map(len, shifts)) <= {n}
            and min(chain.from_iterable(shifts), default=0) >= 0
            and variables.issuperset(chain.from_iterable({s.Z for s in spaces}))
        ):
            return
    except TypeError:  # a non-integer exponent: as_degree below reports it
        pass
    for s in spaces:
        as_degree(s.u, n)  # raises InputError on a wrong length or a negative exponent
        if not s.Z <= variables:
            raise InputError(f"space variables {quote(sorted(s.Z))} out of range 1..{n}")


def module_basis(box: Box, module: ModulePresentation) -> int:
    """The bitset of the module's basis points in the box: ``up(upper) & ~up(lower)``."""
    return box.up(module.upper.gens) & ~box.up(module.lower.gens)


def _cones(box: Box, spaces: Iterable[StanleySpace]) -> Iterator[int]:
    """The points of each space (u, Z) in the box, in order: the AND over the
    axes j of the level mask ``a_j >= u_j`` for j in Z and ``a_j == u_j``
    otherwise, from one ``Box.levels`` table; when that table would exceed
    ``BOX_POINT_CAP`` bits, each space is tiled from u by ``Box.cone``."""
    levels = box.levels()
    for s in spaces:
        cone = -1 if levels else box.cone(s.u, (z - 1 for z in s.Z))
        for j, (v, eq_ge) in enumerate(zip(s.u, levels or ()), 1):
            cone &= eq_ge[j in s.Z][v]  # -1 is all ones, cut to the box by the first mask
        yield cone


def verify(
    dec: StanleyDecomposition, pieces: Sequence = (), proven: Container = ()
) -> VerificationReport:
    """Check that the spaces partition the module basis exactly, and that they
    are the spaces of ``pieces`` in order, each piece taking exactly its basis.

    The check runs over the box [0, B] (Herzog-Vladoiu-Zheng) with B_j the
    largest of every generator exponent in coordinate j, of dec's module and
    each piece's, of u_j over the spaces with j in Z, and of u_j + 1 over the
    spaces with j off Z.  Clamping a multidegree a to min(a, B) keeps every
    ideal membership (no generator exceeds B), ``a_j >= u_j`` on Z (u_j <= B_j)
    and ``a_j == u_j`` off Z (u_j < B_j), so agreement on the box implies
    agreement everywhere.  A bad point's clamp is bad and no larger, so every
    report, witness included, is the one any larger box would give.

    The box is a ``Box`` bitset in lexicographic bit order; the basis is
    ``module_basis``.  Spaces (see ``_cones``) are checked in order against the
    basis points not yet covered; the first bad space reports its lowest bad
    bit, the lexicographically first of its points outside the module or
    already covered, where a point-by-point walk would stop; an uncovered
    witness is likewise the least uncovered basis point.  Boxes over
    ``BOX_POINT_CAP`` points raise BudgetExceededError before any allocation.

    A plain certificate is an assembly of one piece, itself.  Each piece
    neither in ``proven`` nor equal to dec must take exactly its own basis;
    spaces that are not the pieces' in order, a piece over another n, or a
    piece that takes other points report "not-the-pieces".
    """
    n, pieces = dec.module.n, pieces or (dec,)
    joined = tuple(chain.from_iterable(p.spaces for p in pieces))
    if dec.spaces != joined or any(p.module.n != n for p in pieces):
        return VerificationReport(False, None, failure="not-the-pieces")
    _check_spaces(dec.spaces, n)
    box = Box(_verification_box(dec, *(p.module for p in pieces if p is not dec)))
    basis = remaining = module_basis(box, dec.module)
    cones = _cones(box, dec.spaces)
    for piece in pieces:
        before = remaining
        for cone in islice(cones, len(piece.spaces)):
            bad = cone & ~remaining
            if bad:
                failure = "double-covered" if bad & -bad & basis else "outside-module"
                return VerificationReport(False, None, box.lowest(bad), failure)
            remaining ^= cone
        if piece != dec and piece not in proven and module_basis(box, piece.module) != before ^ remaining:
            return VerificationReport(False, None, failure="not-the-pieces")
    if remaining:
        return VerificationReport(False, None, box.lowest(remaining), "uncovered")
    return VerificationReport(True, dec.sdepth())


def verify_upper(module: ModulePresentation, witness: Sequence[int]) -> bool:
    """Whether witness (d, degree, coefficient) proves sdepth < d: a negative
    coefficient of t^degree in (1-t)^d H_M(t), with H_M recounted by ``contains``
    on each monomial up to that degree; more than ``BOX_POINT_CAP`` is a budget error."""
    (d, m, coefficient), n = witness, module.n
    if comb(m + n, n) > BOX_POINT_CAP:
        raise BudgetExceededError(f"{comb(m + n, n)} monomials of degree at most {m}")
    h = [sum(module.contains([b - a - 1 for a, b in zip((-1, *bars), (*bars, j + n - 1))])
             for bars in combinations(range(j + n - 1), n - 1)) for j in range(m + 1)]  # stars and bars
    return 0 > coefficient == sum((-1) ** i * comb(d, i) * h[m - i] for i in range(min(d, m) + 1))


def tensor(d1: StanleyDecomposition, d2: StanleyDecomposition) -> StanleyDecomposition:
    """Componentwise product of decompositions that leave each other's
    variables free: a decomposition of U1 U2 / (L1 U2 + U1 L2).

    Spaces are all pairwise (u + u', Z & Z').  Each variable is free in one
    factor or in both, so Z | Z' is every variable, |Z & Z'| = |Z| + |Z'| - n,
    and the sdepth of the product is the sum of the factors' minus n.
    """
    m1, m2 = d1.module, d2.module
    lower = m1.lower * m2.upper + m1.upper * m2.lower  # raises on different n, before any space
    module = ModulePresentation(m1.n, lower, m1.upper * m2.upper)
    overlap = d1.variables() & d2.variables()
    if overlap:
        raise InputError(f"tensor factors both pin variables {sorted(overlap)}")
    zs = {s.Z for s in d2.spaces}
    meet = {(z1, z2): shared_z(z1 & z2) for z1 in {s.Z for s in d1.spaces} for z2 in zs}
    spaces = tuple(
        StanleySpace(deg_add(a.u, b.u), meet[a.Z, b.Z])
        for a in d1.spaces
        for b in d2.spaces
    )
    return StanleyDecomposition(module, spaces)


def shift(dec: StanleyDecomposition, m: Sequence[int]) -> StanleyDecomposition:
    """Multiply every space by x^m: (u, Z) -> (u + m, Z), a decomposition of
    x^m U / x^m L.  Only m is checked: moving the generators of an ideal by m
    keeps them minimal and in lexicographic order."""
    n, lower, upper = dec.module
    m = as_degree(m, n)
    moved = (MonomialIdeal(n, tuple(deg_add(g, m) for g in ideal.gens)) for ideal in (lower, upper))
    spaces = tuple(StanleySpace(deg_add(s.u, m), s.Z) for s in dec.spaces)
    return StanleyDecomposition(ModulePresentation(n, *moved), spaces)


def pin(dec: StanleyDecomposition, variables: Iterable[int]) -> StanleyDecomposition:
    """Fix variables W that act freely in dec at exponent 0: (u, Z) -> (u, Z - W),
    a decomposition of U / (L + x_W U)."""
    n, lower, upper = dec.module
    ws = frozenset(map(as_int, variables))
    if not ws <= frozenset(range(1, n + 1)):
        raise InputError(f"pin variables {sorted(ws)} out of range 1..{n}")
    clash = ws & dec.variables()
    if clash:
        raise InputError(f"cannot pin variables {sorted(clash)} that are not free")
    cut = {z: shared_z(z - ws) for z in {s.Z for s in dec.spaces}}
    spaces = tuple(StanleySpace(s.u, cut[s.Z]) for s in dec.spaces)
    units = sorted(tuple(int(j == w) for j in range(1, n + 1)) for w in ws)
    pinned = MonomialIdeal(n, tuple(units))  # distinct unit vectors are minimal
    return StanleyDecomposition(ModulePresentation(n, lower + pinned * upper, upper), spaces)


def concat(
    decs: Sequence[StanleyDecomposition], module: ModulePresentation
) -> StanleyDecomposition:
    """Concatenate space lists against a caller-supplied target presentation.
    Directness is not assumed: check the result with ``verify``, given the
    pieces to prove them in the same walk."""
    spaces = tuple(chain.from_iterable(d.spaces for d in decs))
    return StanleyDecomposition(module, spaces)
