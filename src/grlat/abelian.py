"""Finite abelian groups, their subgroups and quotients.

A group is a chain of invariant factors d_1 | d_2 | ... | d_k, all >= 2,
and its elements are coordinate tuples mod the d_i.  A subgroup is stored
as the canonical row-HNF basis of its preimage lattice L with
diag(d) Z^k <= L <= Z^k: a square upper-triangular matrix with its
pivots on the diagonal.  The order (a pivot product), membership and
the canonical coset lift are read off the stored basis by reduction,
with no second HNF.  Its residues (intmat.hnf_residues) are a
transversal of G/S made of canonical lifts, and enumerate_subgroups
builds each of these bases once, directly.  The only join is I + <frob>
(decomposition_subgroup); meets are read off the subgroups' element
bitmasks (monoid.PairSets.meet).  Whether S, its Sylow subgroups or
G/S are cyclic is read off element orders, with no Smith form: the
exponent of S is the lcm of the orders of its generators, and that of
G/S the lcm of the orders of the cosets e_j + S, each read off the
basis one column at a time (intmat.hnf_order).  quotient_data reads a quotient G/S in the
Smith coordinates of S's basis (intmat.smith_coordinates):
x -> x P mod d.  No command calls it: the package names each coset of
S by its canonical lift.

make_group() accepts any factor list and CRT-normalizes it, so callers
can say make_group([6, 3]) and get the canonical chain (3, 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Iterator

from . import intmat as im
from .errors import (
    CapacityError,
    ContainmentError,
    InvalidFactorError,
    NotFullRankError,
    ParentMismatchError,
)

ELEMENT_CAP = 1_000_000
SUBGROUP_CAP = 10_000


def prime_factors(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n: int) -> bool:
    """Trial division below 2^32 (2^16 steps); sympy.isprime above."""
    if n < 1 << 32:
        return n > 1 and prime_factors(n) == {n: 1}
    from sympy import isprime

    return isprime(n)


def p_split(n: int, p: int) -> tuple[int, int]:
    """(e, rest) with |n| = p^e * rest and p not dividing rest."""
    if n == 0:
        raise ValueError("valuation of zero")
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e, n


def make_group(factors) -> "FinAbGroup":
    """Build a group from arbitrary positive integer factors.

    Factors equal to 1 are dropped; anything < 1 is rejected.  The result
    is the canonical invariant-factor chain, e.g. [6, 3] -> (3, 6) and
    [4, 6] -> (2, 12).
    """
    pows: dict[int, list[int]] = {}
    for f in factors:
        if not isinstance(f, int) or f < 1:
            raise InvalidFactorError(f"factor {f!r} is not a positive integer")
        if f == 1:
            continue
        for p, e in prime_factors(f).items():
            pows.setdefault(p, []).append(e)
    k = max((len(v) for v in pows.values()), default=0)
    chain = [1] * k
    for p, exps in pows.items():
        exps.sort()
        # align the largest exponents with the last invariant factor
        for i, e in enumerate(exps):
            chain[k - len(exps) + i] *= p ** e
    return FinAbGroup(tuple(chain))


@dataclass(frozen=True)
class FinAbGroup:
    """Finite abelian group prod Z/d_i with d_1 | d_2 | ... | d_k, d_i >= 2."""

    factors: tuple[int, ...]

    def __post_init__(self):
        prev = 1
        for d in self.factors:
            if not isinstance(d, int) or d < 2:
                raise InvalidFactorError(f"invariant factor {d!r} must be an int >= 2")
            if d % prev:
                raise InvalidFactorError(
                    f"factors {self.factors} do not form a divisibility chain"
                )
            prev = d

    @property
    def rank(self) -> int:
        return len(self.factors)

    @property
    def order(self) -> int:
        out = 1
        for d in self.factors:
            out *= d
        return out

    @property
    def is_trivial(self) -> bool:
        return not self.factors

    @property
    def is_cyclic(self) -> bool:
        return len(self.factors) <= 1

    def element(self, coords) -> "GroupElement":
        coords = tuple(coords)
        if len(coords) != self.rank:
            raise InvalidFactorError(
                f"need {self.rank} coordinates, got {len(coords)}"
            )
        return GroupElement(self, tuple(c % d for c, d in zip(coords, self.factors)))

    def zero(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.rank)

    def index_of(self, elem: "GroupElement") -> int:
        """Position of elem in elements(): its mixed-radix index, first
        coordinate fastest."""
        out, stride = 0, 1
        for c, d in zip(elem.coords, self.factors):
            out += c * stride
            stride *= d
        return out

    def generators(self) -> list["GroupElement"]:
        return [self.element(r) for r in im.identity(self.rank)]

    def elements(self) -> Iterator["GroupElement"]:
        """The elements, first coordinate fastest: the residues of the
        relation lattice diag(d)."""
        if self.order > ELEMENT_CAP:
            raise CapacityError(
                f"group of order {self.order} exceeds element cap {ELEMENT_CAP}"
            )
        return (GroupElement(self, x) for x in im.hnf_residues(im.diagonal(self.factors)))

    def __repr__(self):
        if not self.factors:
            return "FinAbGroup(trivial)"
        return "FinAbGroup(%s)" % " x ".join("Z/%d" % d for d in self.factors)


@dataclass(frozen=True)
class GroupElement:
    group: FinAbGroup
    coords: tuple[int, ...]

    def __add__(self, other: "GroupElement") -> "GroupElement":
        self._check(other)
        return GroupElement(
            self.group,
            tuple((a + b) % d for a, b, d in zip(self.coords, other.coords, self.group.factors)),
        )

    def __neg__(self) -> "GroupElement":
        return GroupElement(
            self.group, tuple((-a) % d for a, d in zip(self.coords, self.group.factors))
        )

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + (-other)

    def scale(self, n: int) -> "GroupElement":
        return GroupElement(
            self.group, tuple((a * n) % d for a, d in zip(self.coords, self.group.factors))
        )

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    def order(self) -> int:
        out = 1
        for a, d in zip(self.coords, self.group.factors):
            out = lcm(out, d // gcd(d, a))
        return out

    def _check(self, other):
        if self.group != other.group:
            raise ParentMismatchError("elements live in different groups")

    def __repr__(self):
        return f"elt{self.coords}"


class Subgroup:
    """Subgroup of a FinAbGroup, held as the canonical square HNF basis of
    its preimage lattice; order, membership, exponent and the canonical
    coset lift are all read off that basis.  The basis must hold the
    relations d_i e_i (else ContainmentError on construction), so it is
    the preimage of a subgroup and its pivot product divides #G.  The
    order and the hash are computed once, on construction, and the
    exponent on its first call, so a subgroup met again reuses them."""

    __slots__ = ("group", "basis", "order", "_hash", "_exponent")

    def __init__(self, group: FinAbGroup, basis):
        self.group = group
        self.basis = im.frozen(basis)
        self.order = self._order_holding_relations()
        self._hash = hash((group, self.basis))
        self._exponent = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def trivial(cls, group: FinAbGroup) -> "Subgroup":
        return cls(group, im.diagonal(group.factors))

    @classmethod
    def full(cls, group: FinAbGroup) -> "Subgroup":
        return cls(group, im.identity(group.rank))

    @classmethod
    def from_generators(cls, group: FinAbGroup, gens) -> "Subgroup":
        for g in gens:
            if g.group != group:
                raise ParentMismatchError("generator from a different group")
        return cls(group, im.hnf([g.coords for g in gens], group.rank, group.factors))

    # -- basic data ---------------------------------------------------------

    @property
    def exponent(self) -> int:
        """The lcm of the orders of the generators, kept after the first
        call."""
        if self._exponent is None:
            self._exponent = lcm(*(g.order() for g in self.generators()))
        return self._exponent

    @property
    def is_cyclic(self) -> bool:
        return self.exponent == self.order

    @property
    def is_elementary(self) -> bool:
        """At most one Sylow subgroup is noncyclic.  The Sylow p-subgroup
        is cyclic exactly when p divides the order and the exponent
        equally often, so the noncyclic ones are the primes of
        order / exponent."""
        return len(prime_factors(self.order // self.exponent)) <= 1

    @property
    def quotient_is_cyclic(self) -> bool:
        """Whether G/self is cyclic: whether its exponent, the lcm of the
        orders of the cosets e_j + self of the rows e_j of G's basis,
        equals its order [G:self]."""
        rows = im.identity(self.group.rank)
        return lcm(*(im.hnf_order(self.basis, e) for e in rows)) == self.group.order // self.order

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    def generators(self) -> list[GroupElement]:
        return [e for e in map(self.group.element, self.basis) if not e.is_zero]

    # -- predicates and arithmetic ------------------------------------------

    def _spans(self, row) -> bool:
        return im.in_span(self.basis, range(len(self.basis)), row)

    def _order_holding_relations(self) -> int:
        """#S, the product of d_i / h_i over the pivots h_i, once the basis
        is checked to hold every d_i e_i (else ContainmentError).  Row i
        is h_i e_i plus a tail past the pivot, so d_i e_i is in the
        lattice exactly when h_i divides d_i and d_i / h_i times the tail
        is; only a nonzero tail needs that membership test."""
        if len(self.basis) != self.group.rank:
            raise ContainmentError(f"basis {self.basis} of {self.group!r} is not square")
        order = 1
        for i, (row, d) in enumerate(zip(self.basis, self.group.factors)):
            c, r = divmod(d, row[i])
            tail = row[i + 1 :]
            if r or (any(tail) and not self._spans([0] * (i + 1) + [c * x for x in tail])):
                raise ContainmentError(
                    f"basis {self.basis} of {self.group!r} does not contain the relations"
                )
            order *= c
        return order

    def contains(self, elem: GroupElement) -> bool:
        if elem.group != self.group:
            raise ParentMismatchError("element from a different group")
        return self._spans(elem.coords)

    def elements(self) -> list[GroupElement]:
        if self.order > ELEMENT_CAP:
            raise CapacityError(f"subgroup of order {self.order} exceeds cap {ELEMENT_CAP}")
        # close the generators under addition mod the factors: S + m*g is
        # either S or disjoint from it, so adding multiples of g stops at
        # the first coset that is already in S
        factors = self.group.factors
        pts = {self.group.zero().coords}
        for g in self.generators():
            coset = list(pts)
            while True:
                coset = [
                    tuple((a + b) % d for a, b, d in zip(x, g.coords, factors))
                    for x in coset
                ]
                if coset[0] in pts:
                    break
                pts.update(coset)
        # FinAbGroup.elements() order: the first coordinate varies fastest
        return [
            GroupElement(self.group, c)
            for c in sorted(pts, key=lambda c: c[::-1])
        ]

    def __eq__(self, other):
        return other is self or (
            isinstance(other, Subgroup)
            and self._hash == other._hash
            and self.group == other.group
            and self.basis == other.basis
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Subgroup(order={self.order} of {self.group!r})"


def decomposition_subgroup(inertia: Subgroup, frob: GroupElement) -> Subgroup:
    """I + <frob>, as one HNF of I's stored basis and the row frob."""
    if inertia.group != frob.group:
        raise ParentMismatchError("subgroup and element of different groups")
    return Subgroup(inertia.group, im.hnf([*inertia.basis, frob.coords], inertia.group.rank))


def canonical_lift(sub: Subgroup, elem: GroupElement) -> GroupElement:
    """Lexicographically smallest representative of elem + sub: elem
    reduced against the HNF basis, which leaves each coordinate at the
    least value the earlier coordinates allow (Cohen, GTM 138, 2.4.3)."""
    if sub.group != elem.group:
        raise ParentMismatchError("subgroup and element of different groups")
    _, rem = im.reduce_against(sub.basis, range(len(sub.basis)), elem.coords)
    return GroupElement(sub.group, tuple(rem))


def _torsion_residues(block, m):
    """The residues t of a full-rank square HNF block (see
    intmat.hnf_residues) with m*t in its span.  Column by column, m*t_j
    must clear, modulo the pivot h, what reducing the earlier columns
    left there: t_j runs over one class mod h/g with g = gcd(m, h), or
    over none when g does not divide that entry."""
    found = [((), (0,) * len(block))]  # (prefix, what is left to clear)
    for j, row in enumerate(block):
        h = row[j]
        g = gcd(m, h)
        step = h // g
        inv = pow(m // g, -1, step)
        rest = row[j + 1 :]
        found = [
            (t + (x,), tuple(a - (left[0] + m * x) // h * b for a, b in zip(left[1:], rest)))
            for t, left in found
            if left[0] % g == 0
            for x in range(-left[0] // g * inv % step, h, step)
        ]
    return [t for t, _ in found]


def enumerate_subgroups(group: FinAbGroup) -> list[Subgroup]:
    """All subgroups, each built once as its stored basis, sorted by
    (order, basis).

    A basis is the square HNF of a lattice L with diag(d) Z^k <= L, and
    it is built from the bottom row up: row i has a pivot h dividing d_i
    and entries above each later pivot j reduced into [0, h_jj), and
    only tails t with (d_i/h) t in the span of the rows below are made,
    which puts d_i e_i in L.  The rows from i down are a subgroup of the
    last factors, and identity rows above extend each to a subgroup of
    the group, so a partial list past SUBGROUP_CAP already proves the
    group has more than SUBGROUP_CAP subgroups: CapacityError.
    """
    d = group.factors
    k = len(d)
    partial = [()]
    for i in reversed(range(k)):
        grown = []
        divisors = [h for h in range(1, d[i] + 1) if d[i] % h == 0]
        for rows in partial:
            block = [r[i + 1 :] for r in rows]
            for h in divisors:
                for tail in _torsion_residues(block, d[i] // h):
                    if len(grown) >= SUBGROUP_CAP:
                        raise CapacityError(f"more than {SUBGROUP_CAP} subgroups in {group!r}")
                    grown.append(((0,) * i + (h, *tail), *rows))
        partial = grown
    out = [Subgroup(group, rows) for rows in partial]
    out.sort(key=lambda s: (s.order, s.basis))
    return out


def sylow(group: FinAbGroup, p: int) -> Subgroup:
    """The p-Sylow subgroup (trivial when p does not divide the order)."""
    return Subgroup(group, im.diagonal([p_split(d, p)[1] for d in group.factors]))


def sylow_complement(group: FinAbGroup, p: int) -> Subgroup:
    """The subgroup of order prime to p (the product of the other Sylows)."""
    return Subgroup(group, im.diagonal([p ** p_split(d, p)[0] for d in group.factors]))


@dataclass(frozen=True)
class QuotientData:
    """A quotient G/S in Smith coordinates: proj is x -> x P mod d, for
    the invariants d of G/S and the columns P of intmat.smith_coordinates
    of S's basis."""

    source: FinAbGroup
    group: FinAbGroup
    _p: tuple

    def proj(self, elem: GroupElement) -> GroupElement:
        if elem.group != self.source:
            raise ParentMismatchError("element not in the source group")
        return self.group.element(im.vec_mat(elem.coords, self._p))


def quotient_data(group: FinAbGroup, sub: Subgroup) -> QuotientData:
    if sub.group != group:
        raise ParentMismatchError("subgroup of a different group")
    coords = im.smith_coordinates(sub.basis, group.rank)
    if coords is None:
        raise NotFullRankError("subgroup basis does not have full rank")
    d, p, _ = coords
    return QuotientData(group, FinAbGroup(d), im.frozen(p))
