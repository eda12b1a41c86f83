"""Multidegrees and exact monomial-ideal arithmetic.

A multidegree is a tuple of nonnegative integer exponents in a fixed ambient
variable count n; x^a divides x^b iff a <= b componentwise.  A MonomialIdeal
stores the unique minimal generating set, sorted lexicographically, so that
ideal equality is plain value equality.  All values are immutable and all
operations are pure functions.
"""

from __future__ import annotations

from itertools import compress, groupby, product as lattice_product
from operator import add, le, mul, xor
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import BudgetExceededError, InputError, as_int, quote

Multidegree = tuple[int, ...]

# Most points a Box may have (2 MiB per bitset): larger boxes fail fast
# instead of exhausting memory or time.
BOX_POINT_CAP = 1 << 24

# Most variables an ideal or graph may have: each box of a module whose ideals
# involve every variable has two points per axis or more, so none fits past it.
MAX_VARIABLES = BOX_POINT_CAP.bit_length() - 1

# Maps the '0'/'1' digits of a bitset's binary string to falsy/truthy bytes.
_SELECT = bytes.maketrans(b"01", b"\x00\x01")


def as_degree(exponents: Sequence[int], n: int) -> Multidegree:
    """A validated exponent tuple of length n; an exponent that is not an
    int (a bool, float or str) is rejected, not coerced."""
    deg = tuple(map(as_int, exponents))
    if deg and min(deg) < 0:
        raise InputError(f"negative exponent in {quote(deg)}")
    if len(deg) != n:
        raise InputError(f"expected a multidegree of length {n}, got {quote(deg)}")
    return deg


def divides(a: Multidegree, b: Multidegree) -> bool:
    """x^a | x^b, i.e. a <= b componentwise."""
    if len(a) != len(b):
        raise InputError(f"length mismatch: {len(a)} vs {len(b)}")
    return all(x <= y for x, y in zip(a, b))


def deg_add(a: Multidegree, b: Multidegree) -> Multidegree:
    return tuple(map(add, a, b))


def support(a: Multidegree) -> frozenset[int]:
    """1-based variable indices with positive exponent."""
    return frozenset(j + 1 for j, e in enumerate(a) if e > 0)


def iter_box(corner: Multidegree) -> Iterator[Multidegree]:
    """All multidegrees a with 0 <= a <= corner, in lexicographic order."""
    return lattice_product(*(range(c + 1) for c in corner))


def minimalize(gens: Iterable[Sequence[int]], n: int) -> tuple[Multidegree, ...]:
    """The unique minimal generating set: divisibility-redundant degrees dropped.

    Each distinct degree is validated in input order, so the first bad one is
    the one reported.
    """
    return _reduce(as_degree(g, n) for g in dict.fromkeys(map(tuple, gens)))


def _reduce(degrees: Iterable[Multidegree]) -> tuple[Multidegree, ...]:
    """``minimalize`` of degrees that are already valid, such as the degrees
    built from the generators of existing ideals.

    A proper divisor has strictly smaller total degree, so each degree is
    checked only against kept degrees of smaller total degree: none for an
    equigenerated set, such as any product of powers of an edge ideal,
    which is returned sorted once its least and largest total degrees agree.
    """
    degs = sorted(set(degrees), key=sum)
    if not degs or sum(degs[0]) == sum(degs[-1]):
        return tuple(sorted(degs))
    kept: list[Multidegree] = []
    for _, layer in groupby(degs, key=sum):
        # the comprehension reads kept before this layer is added to it
        kept += [d for d in layer if not any(all(map(le, m, d)) for m in kept)]
    return tuple(sorted(kept))


class MonomialIdeal(NamedTuple):
    """A monomial ideal in K[x_1..x_n], as its minimal generating set.

    The zero ideal has no generators; the unit ideal has the single
    generator (0,...,0).
    """

    n: int
    gens: tuple[Multidegree, ...]

    @classmethod
    def make(cls, n: int, gens: Iterable[Sequence[int]]) -> "MonomialIdeal":
        if not 1 <= n <= MAX_VARIABLES:
            raise InputError(f"ambient variable count must be in 1..{MAX_VARIABLES}, got {n}")
        return cls(n, minimalize(gens, n))

    @classmethod
    def zero(cls, n: int) -> "MonomialIdeal":
        return cls.make(n, ())

    @classmethod
    def unit(cls, n: int) -> "MonomialIdeal":
        return cls.make(n, ((0,) * n,))

    def is_zero(self) -> bool:
        return not self.gens

    def _check_ambient(self, other: "MonomialIdeal") -> None:
        if self.n != other.n:
            raise InputError(f"ambient mismatch: {self.n} vs {other.n}")

    def contains(self, a: Sequence[int]) -> bool:
        """Membership of the monomial x^a."""
        deg = as_degree(a, self.n)
        return any(divides(g, deg) for g in self.gens)

    def subset_of(self, other: "MonomialIdeal") -> bool:
        self._check_ambient(other)
        return all(any(all(map(le, h, g)) for h in other.gens) for g in self.gens)

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check_ambient(other)
        return MonomialIdeal(self.n, _reduce(self.gens + other.gens))

    def __mul__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check_ambient(other)
        return MonomialIdeal(
            self.n, _reduce(deg_add(a, b) for a in self.gens for b in other.gens)
        )

    def __pow__(self, k: int) -> "MonomialIdeal":
        if k < 0:
            raise InputError(f"negative power {k}")
        out = self if k else MonomialIdeal(self.n, ((0,) * self.n,))
        for _ in range(k - 1):
            out = out * self
        return out

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check_ambient(other)
        return MonomialIdeal(
            self.n, _reduce(tuple(map(max, a, b)) for a in self.gens for b in other.gens)
        )


def _tile(block: int, width: int, count: int) -> int:
    """``count`` copies of ``block``, each ``width`` bits above the last."""
    out = offset = 0
    while count:
        if count & 1:
            out |= block << offset
            offset += width
        block |= block << width
        width <<= 1
        count >>= 1
    return out


class Box:
    """The box [0, corner] with its points numbered as the bits of one integer.

    Point a is bit ``sum(a_j * strides[j])`` for mixed-radix strides in which
    coordinate 0 is the most significant digit, so the order of the bits is
    the lexicographic order of ``iter_box``.  ``masks[j]`` holds the points
    with a_j >= 1: shifting a set of points up by ``strides[j]`` and masking
    moves each point a to a + e_j and drops those that leave the box.
    Boxes over ``BOX_POINT_CAP`` points raise BudgetExceededError.
    """

    __slots__ = ("corner", "strides", "size", "masks")

    def __init__(self, corner: Multidegree) -> None:
        strides = []
        size = 1
        for c in reversed(corner):
            strides.append(size)
            size *= c + 1
            if size > BOX_POINT_CAP:  # stop before the count grows any further
                raise BudgetExceededError(
                    f"box over {len(corner)} variables has more than {BOX_POINT_CAP} points"
                )
        strides.reverse()
        self.corner = tuple(corner)
        self.strides = tuple(strides)
        self.size = size
        # One period of axis j is s*(c+1) bits; its top s*c bits have a_j >= 1.
        self.masks = tuple(
            _tile(((1 << s * c) - 1) << s, s * (c + 1), size // (s * (c + 1)))
            for s, c in zip(strides, corner)
        )

    def index(self, a: Multidegree) -> int:
        return sum(map(mul, a, self.strides))

    def lowest(self, bits: int) -> Multidegree:
        """The lexicographically least point of a nonempty set."""
        i = (bits & -bits).bit_length() - 1
        out = []
        for s in self.strides:
            q, i = divmod(i, s)
            out.append(q)
        return tuple(out)

    def points(self, bits: int) -> Iterator[Multidegree]:
        """The points of a set, in lexicographic order."""
        selectors = format(bits, "b").zfill(self.size)[::-1].encode().translate(_SELECT)
        return compress(iter_box(self.corner), selectors)

    def up(self, gens: Iterable[Multidegree]) -> int:
        """The points above some generator; generators outside the box are ignored."""
        bits = 0
        for g in gens:
            if all(map(le, g, self.corner)):
                bits |= 1 << self.index(g)
        for s, c, mask in zip(self.strides, self.corner, self.masks):
            for _ in range(c):
                bits |= (bits << s) & mask
        return bits

    def levels(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...] | None:
        """Per axis j the pair ``(eq, ge)``: ``eq[v]`` holds the points with
        a_j == v and ``ge[v]`` those with a_j >= v, for v in 0..corner[j].

        Each ``ge[v + 1]`` is ``ge[v]`` moved up one step along j by the
        shift-and-mask step of ``up``.  The table is 2 * sum(c_j + 1) bitsets
        of ``size`` bits; None when that is over ``BOX_POINT_CAP`` bits.
        """
        if 2 * sum(c + 1 for c in self.corner) * self.size > BOX_POINT_CAP:
            return None
        full = (1 << self.size) - 1
        table = []
        for s, c, mask in zip(self.strides, self.corner, self.masks):
            ge = [full]
            for _ in range(c):
                ge.append((ge[-1] << s) & mask)
            eq = tuple(map(xor, ge, ge[1:] + [0]))
            table.append((eq, tuple(ge)))
        return tuple(table)

    def cone(self, u: Multidegree, axes: Iterable[int]) -> int:
        """The points equal to u off ``axes`` (0-based) and >= u on them; u in the box."""
        bits = 1 << self.index(u)
        for j in axes:
            bits = _tile(bits, self.strides[j], self.corner[j] - u[j] + 1)
        return bits


# Unread in the library: tests read it, and perfbench/tracing.py wraps it.
def members_in_box(ideal: MonomialIdeal, corner: Multidegree) -> set[Multidegree]:
    """All multidegrees a <= corner with x^a in the ideal: the in-box
    generators closed upward by ``Box.up``, sum(c_j) shift-and-mask steps on
    one integer, independent of the number of generators.  Boxes over
    ``BOX_POINT_CAP`` points raise BudgetExceededError before any allocation.
    """
    corner = as_degree(corner, ideal.n)
    box = Box(corner)
    return set(box.points(box.up(ideal.gens)))
