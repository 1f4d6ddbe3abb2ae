"""Integral group rings of finite abelian groups, their ideal lattices,
and finitely generated torsion modules.

Ring elements are dense integer coefficient tuples over the
enumeration of FinAbGroup.elements(): mixed radix, first coordinate
fastest.  Group addition is index arithmetic on the radix digits:
GroupRing.shift(j), cached per j, maps i to the index of the sum of
elements i and j (a rotation for cyclic groups).  Translation
permutes coefficients along it, multiplication scatters products along
it, and the ideal generated by x is spanned by the translates of x.
group_ring() memoises the ring of the last group it was asked for.
spectrum, whose rings are all cyclic, builds none: it works on
coefficient lists mod X^n - 1.  The kernel check of lattices builds no
element of its cyclic ring: it works on term maps {j: c} mod X^n - 1.
The unit check builds no ring at all: it walks canonical coset lifts.

An ideal lattice is a full-rank lattice in Z[G], stored as its
canonical integer row-HNF basis so equal lattices compare equal; the
backward representative of an inertia group I, L = Z[G] + nu Z[G] with
nu = N_I / #I, is stored as the ideal #I L = (N_I, #I).

A finite module is (Z/m)^r with each group generator in monomial form
(perm, units): it sends e_t to units[t] e_perm[t].  Every module a
command reaches is of this kind, an inertia module being induced from
its decomposition group (inertia_module).  mono_mul and mono_pow
compose monomials, FiniteModule.act gives an element's, and validate
checks each generator's order and that the generators commute.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from . import intmat as im
from .abelian import FinAbGroup, GroupElement, Subgroup, canonical_lift, decomposition_subgroup
from .errors import (
    CapacityError,
    ContainmentError,
    IdentityCheckError,
    NotFullRankError,
    ParentMismatchError,
)

RING_ORDER_CAP = 4096


def check_ring_order(order: int) -> None:
    """Refuse a group ring of more than RING_ORDER_CAP elements."""
    if order > RING_ORDER_CAP:
        raise CapacityError(f"group of order {order} exceeds ring cap {RING_ORDER_CAP}")


class GroupRing:
    """Z[G] for a finite abelian G, with cached index arithmetic."""

    def __init__(self, group: FinAbGroup):
        check_ring_order(group.order)
        self.group = group
        self.n = group.order
        self._ids = tuple(range(self.n))
        self._shifts = [None] * self.n

    def index_of(self, elem: GroupElement) -> int:
        return self.group.index_of(elem)

    def shift(self, j: int) -> tuple:
        """shift(j)[i] is the index of the sum of elements i and j."""
        perm = self._shifts[j]
        if perm is None:
            # add the radix digits of j one coordinate at a time
            perm, stride = [0], 1
            for d in self.group.factors:
                c = j // stride % d
                perm = [stride * ((c + t) % d) + p for t in range(d) for p in perm]
                stride *= d
            # store the shared index ints of _ids, not n fresh ones per shift
            ids = self._ids
            perm = self._shifts[j] = tuple([ids[k] for k in perm])
        return perm

    def _translated(self, coeffs, j: int) -> list:
        """Coefficients of (coeffs) * delta_{element j}."""
        out = [0] * self.n
        for k, c in zip(self.shift(j), coeffs):
            out[k] = c
        return out

    # -- element constructors ------------------------------------------------

    def from_coeffs(self, coeffs) -> "GroupRingElem":
        coeffs = tuple(coeffs)
        if len(coeffs) != self.n:
            raise ValueError(f"need {self.n} coefficients")
        return GroupRingElem(self, coeffs)


@lru_cache(maxsize=1)
def group_ring(group: FinAbGroup) -> GroupRing:
    """The shared GroupRing of group, memoised for the last group: one
    verify command's kernel and ext sweeps share one ring of G, and
    GroupRingElem._check compares rings by identity."""
    return GroupRing(group)


@dataclass(frozen=True)
class GroupRingElem:
    ring: GroupRing
    coeffs: tuple

    def _check(self, other):
        if self.ring is not other.ring:
            raise ParentMismatchError("elements of different rings")

    def __add__(self, other):
        self._check(other)
        return GroupRingElem(self.ring, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        return GroupRingElem(self.ring, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def scale(self, c):
        return GroupRingElem(self.ring, tuple(c * a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        ring = self.ring
        b = other.coeffs
        out = [0] * ring.n
        for i, ai in enumerate(self.coeffs):
            if ai:
                for k, bj in zip(ring.shift(i), b):
                    if bj:
                        out[k] += ai * bj
        return GroupRingElem(ring, tuple(out))

    __rmul__ = __mul__


class IdealLattice:
    """A full-rank lattice rowspan(basis) inside Z[G]; basis is a canonical
    int row-HNF, so equal lattices have identical bases."""

    __slots__ = ("ring", "basis")

    def __init__(self, ring: GroupRing, rows):
        h = im.hnf(rows, ring.n)
        if len(h) != ring.n:
            raise NotFullRankError(
                f"lattice rank {len(h)} < ring rank {ring.n}"
            )
        self.ring = ring
        self.basis = im.frozen(h)

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_elements(cls, ring: GroupRing, elems) -> "IdealLattice":
        """The ideal generated by elems, spanned by their full G-orbit;
        a coefficient that is not an int is refused before any HNF."""
        xs = list(elems)
        if any(x.ring.group != ring.group for x in xs):
            raise ParentMismatchError("element of a different group")
        if not all(isinstance(c, int) for x in xs for c in x.coeffs):
            raise TypeError("ideal lattices need int coefficients")
        return cls(ring, [ring._translated(x.coeffs, j) for x in xs for j in range(ring.n)])

    # -- structure -----------------------------------------------------------

    def integral_index(self) -> int:
        """[Z^n : L], the product of the pivots of the HNF basis."""
        return im.hnf_index(self.basis)


def coordinate_orbit(monos, start):
    """The coordinates that the permutations of monos, (perm, units)
    pairs, reach from start, in increasing order."""
    seen = {start}
    todo = [start]
    for t in todo:
        for perm, _ in monos:
            if perm[t] not in seen:
                seen.add(perm[t])
                todo.append(perm[t])
    return sorted(seen)


def mono_mul(a, b, m):
    """The monomial of x -> x A B, for the monomials a of A and b of B,
    its units reduced mod m."""
    (pa, ua), (pb, ub) = a, b
    return tuple([pb[t] for t in pa]), tuple([u * ub[t] % m for u, t in zip(ua, pa)])


def mono_pow(a, k, m):
    """The monomial of x -> x A^k, k >= 0, taken by squaring."""
    n = len(a[0])
    out = (tuple(range(n)), (1,) * n)
    while k:
        if k & 1:
            out = mono_mul(out, a, m)
        k >>= 1
        if k:
            a = mono_mul(a, a, m)
    return out


@dataclass(frozen=True)
class FiniteModule:
    """The module (Z/m)^rank, m = modulus, with an abelian group action
    in monomial form: gens[i] = (perm, units) says that the i-th group
    generator sends e_t to units[t] e_perm[t], units reduced mod m."""

    group: FinAbGroup
    modulus: int
    rank: int
    gens: tuple

    @cached_property
    def transitive(self) -> bool:
        """Whether the generators' permutations join every coordinate to 0."""
        return not self.rank or len(coordinate_orbit(self.gens, 0)) == self.rank

    def act(self, elem: GroupElement) -> tuple:
        """(perm, units) of elem: the product of its generators' powers."""
        m, out = self.modulus, (tuple(range(self.rank)), (1,) * self.rank)
        for c, a in zip(elem.coords, self.gens):
            if c:
                out = mono_mul(out, mono_pow(a, c, m), m)
        return out

    def validate(self):
        """Each generator has order dividing its group factor, and the
        generators commute.  Past a check of lengths and perm entries, a
        perm that is not a bijection or a unit not invertible mod m has no
        power equal to the identity, so the order test refuses both."""
        n, m, gens = self.rank, self.modulus, self.gens
        one = (tuple(range(n)), (1 % m,) * n)
        for gi, (a, order) in enumerate(zip(gens, self.group.factors)):
            if len(a[0]) != n or len(a[1]) != n or not all(0 <= t < n for t in a[0]):
                raise ContainmentError(f"generator {gi} is not a monomial map of (Z/{m})^{n}")
            if mono_pow(a, order, m) != one:
                raise ContainmentError(f"generator {gi} does not have order dividing {order} on the module")
        for i, a in enumerate(gens):
            for b in gens[i + 1 :]:
                if mono_mul(a, b, m) != mono_mul(b, a, m):
                    raise ContainmentError("generator actions do not commute on the module")


def inertia_module(inertia: Subgroup, frob: GroupElement) -> FiniteModule:
    """M = Z[G/I] / (a - fbar^-1), a = 1 + #I, for (I, frob), G acting through
    G/I.  With D = I + <frob>, f = [D : I] and m = a^f - 1, M is induced from
    Z/m along <fbar> (Brown, Cohomology of Groups, GTM 87, III.5): N =
    (Z/m)^[G:D], one e_t per canonical lift t of G/D, g sending e_t to
    a^-j e_t' for t + g = t' + j frob mod I.  The witness, checked exactly
    (else IdentityCheckError), is that e_0 is killed by A_(-frob) - a and
    by A_i - 1 for the generators i of I.  So x -> e_0 x maps M onto N (t
    sends e_0 to a unit times e_t), and |M| = |det(a - fbar^-1)| =
    prod_chi (a - chi(fbar)^-1) = m^[G:D] = |N|.  M = N = 0 when m = 1.
    N is stored as it is written, in monomial form, and validated."""
    dec = decomposition_subgroup(inertia, frob)
    a = 1 + inertia.order
    m = a ** (dec.order // inertia.order) - 1
    rank = inertia.group.order // dec.order if m > 1 else 0
    mod = FiniteModule(inertia.group, m, rank, _induced_actions(inertia, dec, frob, pow(a, -1, m), m))
    for elem, scale in [(-frob, a), *((i, 1) for i in inertia.generators())] if rank else []:
        # e_0 A = units[0] e_perm[0]
        perm, units = mod.act(elem)
        if perm[0] != 0 or units[0] != scale % m:
            raise IdentityCheckError(f"e_0 is not killed by a - fbar^-1 and by I at {frob!r}")
    mod.validate()
    return mod


def _induced_actions(inertia: Subgroup, dec: Subgroup, frob: GroupElement, unit: int, m: int):
    """The (perm, units) of each group generator on inertia_module's N,
    fbar acting as unit."""
    lifts = [GroupElement(inertia.group, t) for t in im.hnf_residues(dec.basis)] if m > 1 else []
    index = {t: k for k, t in enumerate(lifts)}
    # the lift of j frob mod I -> unit^j
    twists, u = {}, 1
    for j in range(dec.order // inertia.order):
        twists[canonical_lift(inertia, frob.scale(j))] = u
        u = u * unit % m
    gens = []
    for g in inertia.group.generators():
        perm, units = [], []
        for t in lifts:
            moved = canonical_lift(dec, t + g)
            perm.append(index[moved])
            units.append(twists[canonical_lift(inertia, t + g - moved)])
        gens.append((tuple(perm), tuple(units)))
    return tuple(gens)
