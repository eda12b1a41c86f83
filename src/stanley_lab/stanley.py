"""Module presentations J/I, Stanley spaces and decompositions, and the verifier.

A presentation is a pair of monomial ideals lower <= upper; the module it
denotes is the multigraded vector space spanned by the monomials of
upper \\ lower.  A Stanley space (u, Z) is the set of multidegrees equal to u
off Z and >= u on Z.  Decompositions are certificates: ``verify`` checks
disjoint exact coverage over a finite box that is provably sufficient, because
every membership predicate involved is constant above a per-coordinate
threshold, and the box corner exceeds all thresholds by one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

from .errors import InputError
from .monomials import (
    Box,
    MonomialIdeal,
    Multidegree,
    as_degree,
    deg_add,
    members_in_box,
    support,
)


@dataclass(frozen=True)
class ModulePresentation:
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
        """S/I."""
        return cls.make(ideal.n, ideal, MonomialIdeal.unit(ideal.n))

    @classmethod
    def of_ideal(cls, ideal: MonomialIdeal) -> "ModulePresentation":
        """I as a module."""
        return cls.make(ideal.n, MonomialIdeal.zero(ideal.n), ideal)

    @classmethod
    def power_layer(cls, ideal: MonomialIdeal, k: int) -> "ModulePresentation":
        """I^k/I^{k+1}, with I^{k+1} taken as I^k * I."""
        power = ideal**k
        return cls.make(ideal.n, power * ideal, power)

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
        try:
            n = int(obj["n"])
            return cls.make(
                n,
                MonomialIdeal.make(n, obj["lower_gens"]),
                MonomialIdeal.make(n, obj["upper_gens"]),
            )
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed module JSON: {obj!r}") from exc


def generator_corner(module: ModulePresentation) -> Multidegree:
    """Componentwise maximum generator exponent of both ideals."""
    return tuple(
        max(col) for col in zip((0,) * module.n, *module.lower.gens, *module.upper.gens)
    )


def basis_in_box(module: ModulePresentation, corner: Sequence[int]) -> set[Multidegree]:
    """All basis multidegrees a <= corner of the module."""
    return members_in_box(module.upper, corner) - members_in_box(module.lower, corner)


@dataclass(frozen=True)
class StanleySpace:
    """u * K[Z]: multidegrees equal to u outside Z and >= u on Z."""

    u: Multidegree
    Z: frozenset[int]

    @property
    def dim(self) -> int:
        return len(self.Z)

    def covers(self, a: Multidegree) -> bool:
        return all(
            x >= y if j + 1 in self.Z else x == y
            for j, (x, y) in enumerate(zip(a, self.u))
        )


@dataclass(frozen=True)
class StanleyDecomposition:
    module: ModulePresentation
    spaces: tuple[StanleySpace, ...]

    def sdepth(self) -> int | None:
        """Minimum space dimension; None for the empty decomposition."""
        return min((s.dim for s in self.spaces), default=None)

    def variables(self) -> frozenset[int]:
        """All variables featured by any space (in a shift or in a Z-set)."""
        out: frozenset[int] = frozenset()
        for s in self.spaces:
            out |= support(s.u) | s.Z
        return out

    def to_json(self) -> dict:
        return {
            "module": self.module.to_json(),
            "spaces": [{"u": list(s.u), "Z": sorted(s.Z)} for s in self.spaces],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "StanleyDecomposition":
        try:
            module = ModulePresentation.from_json(obj["module"])
            spaces = tuple(
                StanleySpace(as_degree(s["u"], module.n), frozenset(int(z) for z in s["Z"]))
                for s in obj["spaces"]
            )
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed certificate JSON: {obj!r}") from exc
        return cls(module, spaces)


@dataclass(frozen=True)
class VerificationReport:
    valid: bool
    sdepth: int | None
    witness: Multidegree | None = None
    failure: str | None = None  # "outside-module" | "double-covered" | "uncovered"

    def to_json(self) -> dict:
        return {
            "valid": self.valid,
            "sdepth": self.sdepth,
            "witness": list(self.witness) if self.witness is not None else None,
            "failure": self.failure,
        }


def _verification_box(dec: StanleyDecomposition) -> Multidegree:
    shifts = (s.u for s in dec.spaces)
    return tuple(max(col) + 1 for col in zip(generator_corner(dec.module), *shifts))


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
            raise InputError(f"space variables {sorted(s.Z)} out of range 1..{n}")


def verify(dec: StanleyDecomposition) -> VerificationReport:
    """Check that the spaces partition the module basis exactly.

    The check runs over the box [0, B] with B_j one above every generator
    exponent and every shift exponent in coordinate j (Herzog-Vladoiu-Zheng).
    Clamping any multidegree into the box preserves all membership
    predicates, so agreement on the box implies agreement everywhere.

    The box is a ``Box`` bitset whose bit order is the lexicographic order of
    its points.  The basis is ``up(upper) & ~up(lower)``.  A space (u, Z) is
    the AND over the axes j of the level mask ``a_j >= u_j`` for j in Z and
    ``a_j == u_j`` otherwise, read from ``Box.levels``, which is built once
    per call.  That table holds 2 * sum(B_j + 1) box bitsets; when it would
    exceed ``BOX_POINT_CAP`` bits, each space is instead tiled from its
    corner point by ``Box.cone``.  Spaces are checked in order against the
    basis points not yet covered; the first bad space reports its lowest bad
    bit, which is the lexicographically first of its points that is outside
    the module or already covered.  That is the point, and the failure kind,
    at which a point-by-point walk of the spaces in order would stop; an
    uncovered witness is likewise the least uncovered basis point.  Boxes over
    ``BOX_POINT_CAP`` points raise BudgetExceededError before any allocation.
    """
    n = dec.module.n
    _check_spaces(dec.spaces, n)
    box = Box(_verification_box(dec))
    basis = box.up(dec.module.upper.gens) & ~box.up(dec.module.lower.gens)
    levels = box.levels()
    remaining = basis
    for s in dec.spaces:
        if levels is None:
            cone = box.cone(s.u, (z - 1 for z in s.Z))
        else:
            cone = -1  # all ones, cut down to the box by the first mask
            for j, (v, eq_ge) in enumerate(zip(s.u, levels), 1):
                cone &= eq_ge[j in s.Z][v]
        bad = cone & ~remaining
        if bad:
            failure = "double-covered" if bad & -bad & basis else "outside-module"
            return VerificationReport(False, None, box.lowest(bad), failure)
        remaining ^= cone
    if remaining:
        return VerificationReport(False, None, box.lowest(remaining), "uncovered")
    return VerificationReport(True, dec.sdepth())


def tensor(
    d1: StanleyDecomposition,
    d2: StanleyDecomposition,
    module: ModulePresentation,
) -> StanleyDecomposition:
    """Componentwise product of decompositions over disjoint variable sets.

    Spaces are all pairwise (u + u', Z | Z'); with disjoint variables the
    minimum dimension adds exactly.
    """
    overlap = d1.variables() & d2.variables()
    if overlap:
        raise InputError(f"tensor factors share variables {sorted(overlap)}")
    spaces = tuple(
        StanleySpace(deg_add(a.u, b.u), a.Z | b.Z)
        for a in d1.spaces
        for b in d2.spaces
    )
    return StanleyDecomposition(module, spaces)


def shift(
    dec: StanleyDecomposition, m: Sequence[int], module: ModulePresentation
) -> StanleyDecomposition:
    """Multiply every space by x^m: (u, Z) -> (u + m, Z)."""
    deg = as_degree(m, dec.module.n)
    spaces = tuple(StanleySpace(deg_add(s.u, deg), s.Z) for s in dec.spaces)
    return StanleyDecomposition(module, spaces)


def free_extend(
    dec: StanleyDecomposition, new_vars: Iterable[int], module: ModulePresentation
) -> StanleyDecomposition:
    """Adjoin variables acting freely: every Z gains them, sdepth gains |W|."""
    ws = frozenset(int(v) for v in new_vars)
    clash = ws & dec.variables()
    if clash:
        raise InputError(f"free extension by already-used variables {sorted(clash)}")
    spaces = tuple(StanleySpace(s.u, s.Z | ws) for s in dec.spaces)
    return StanleyDecomposition(module, spaces)


def concat(
    decs: Sequence[StanleyDecomposition], module: ModulePresentation
) -> StanleyDecomposition:
    """Concatenate space lists against a caller-supplied target presentation.

    Directness is not assumed; the assembled certificate is meant to be
    re-checked with ``verify``.
    """
    spaces = tuple(chain.from_iterable(d.spaces for d in decs))
    return StanleyDecomposition(module, spaces)


def embed(
    dec: StanleyDecomposition, labels: Sequence[int], module: ModulePresentation
) -> StanleyDecomposition:
    """Re-index a decomposition into a larger ambient, coordinate i -> labels[i]."""
    labs = tuple(int(v) for v in labels)
    if len(labs) != dec.module.n:
        raise InputError(
            f"label count {len(labs)} does not match source ambient {dec.module.n}"
        )
    if any(not 1 <= v <= module.n for v in labs):
        raise InputError(f"labels {labs} out of target range 1..{module.n}")
    spaces = []
    for s in dec.spaces:
        u = [0] * module.n
        for e, v in zip(s.u, labs):
            u[v - 1] = e
        spaces.append(StanleySpace(tuple(u), frozenset(labs[z - 1] for z in s.Z)))
    return StanleyDecomposition(module, tuple(spaces))
