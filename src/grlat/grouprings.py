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

A finite module is stored in Smith coordinates: as an abelian group it
is (+) Z/d_i with d_i > 1 and d_i | d_(i+1), its relations are diag(d),
and each group generator acts by an integer matrix on row vectors from
the right, column j reduced mod d_j.  FiniteModule.build takes any
full-rank presentation Z^n / L and moves it there with
intmat.smith_coordinates, so every later step works at rank len(d),
not n, and validates the action.  No module is derived from another
by a second Smith step: a p-part keeps the coordinates with p | d_i in
closed form, and a Tate group or chi-component is read off a lattice
pair in the module's own coordinates (see cohomology).  An inertia
module is written down in closed form, already in Smith coordinates,
and validated with no Smith step (inertia_module).  It and its p-parts
are monomial: each generator sends every e_t to a unit times one e_t',
and FiniteModule.monomial reads that (permutation, units) form off the
matrices once per module, for cohomology to compose instead of
multiplying matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

from . import intmat as im
from .abelian import FinAbGroup, GroupElement, Subgroup, canonical_lift, decomposition_subgroup
from .errors import (
    CapacityError,
    ContainmentError,
    IdentityCheckError,
    InfiniteModuleError,
    NotFullRankError,
    ParentMismatchError,
    ScopeError,
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


class Monomial(NamedTuple):
    """A module (Z/m)^r in monomial form: gens[i] = (perm, units) says
    that generator i sends e_t to units[t] e_perm[t], and transitive
    that the generators' permutations join every coordinate to 0."""

    modulus: int
    gens: tuple
    transitive: bool


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


def _mod_columns(rows, d):
    """rows with column j reduced mod d[j]: the same map into (+) Z/d_j."""
    return [[x % m for x, m in zip(row, d)] for row in rows]


@dataclass(frozen=True)
class FiniteModule:
    """Finite module (+) Z/d_i with an abelian group action, in Smith
    coordinates.

    relations is diag(d) with d_i > 1 and d_i | d_(i+1), so rank is the
    number of invariants, and the order and every membership test are
    read off the diagonal.  gen_actions[i] is the integer matrix of the
    i-th group generator, acting on row vectors from the right.
    """

    group: FinAbGroup
    rank: int
    relations: tuple
    gen_actions: tuple

    @classmethod
    def build(cls, group: FinAbGroup, relations, gen_actions) -> "FiniteModule":
        """The module Z^n / L, L the span of relations, where generator i
        acts by gen_actions[i], moved to Smith coordinates and validated.
        L must be full rank and stable under every action."""
        n = len(gen_actions[0]) if gen_actions else (len(relations[0]) if relations else 0)
        mod = cls._in_smith_coordinates(group, n, relations, gen_actions)
        mod.validate()
        return mod

    @classmethod
    def _in_smith_coordinates(cls, group, n, relations, gen_actions) -> "FiniteModule":
        """Z^n / L in intmat.smith_coordinates (d, P, Q); L A <= L, A -> Q A P."""
        coords = im.smith_coordinates(relations, n)
        if coords is None:
            raise InfiniteModuleError(f"relation lattice has rank < {n}; module is infinite")
        d, p, q = coords
        actions = []
        for gi, a in enumerate(gen_actions):
            ap = im.mat_mul(a, p)
            # x lies in L exactly when x P = 0 mod d
            if any(map(any, _mod_columns([im.vec_mat(r, ap) for r in relations], d))):
                raise ContainmentError(f"relations not stable under generator {gi}")
            actions.append(im.frozen(_mod_columns(im.mat_mul(q, ap), d)))
        return cls(group, len(d), im.frozen(im.diagonal(d)), tuple(actions))

    @property
    def order(self) -> int:
        return im.hnf_index(self.relations)

    def invariants(self) -> tuple:
        return tuple(r[i] for i, r in enumerate(self.relations))

    def exponent(self) -> int:
        inv = self.invariants()
        return inv[-1] if inv else 1

    @cached_property
    def monomial(self) -> Monomial:
        """The monomial form of the action, read once off gen_actions.

        A module is monomial when it is (Z/m)^r and each generator sends
        every e_t to a unit times one e_t': its matrix has one entry
        nonzero mod m in each row, in a column that no other row uses.
        Inertia modules and their p-parts are monomial; any other module
        raises ScopeError."""
        m = self.exponent()
        if any(d != m for d in self.invariants()):
            raise ScopeError(f"invariants {self.invariants()} are not all equal")
        gens = []
        for gi, a in enumerate(self.gen_actions):
            perm, units = [], []
            for row in a:
                cols = [j for j, x in enumerate(row) if x % m]
                if len(cols) != 1:
                    raise ScopeError(f"generator {gi} is not monomial on the module")
                perm.append(cols[0])
                units.append(row[cols[0]] % m)
            if len(set(perm)) != self.rank:
                raise ScopeError(f"generator {gi} does not permute the coordinates")
            gens.append((tuple(perm), tuple(units)))
        transitive = not self.rank or len(coordinate_orbit(gens, 0)) == self.rank
        return Monomial(m, tuple(gens), transitive)

    def validate(self):
        """Each generator has order dividing its group factor on the
        module, and the generators commute: matrix identities that
        hold column j mod d_j."""
        d = self.invariants()

        def vanishes(a, b):
            return not any((x - y) % m for ra, rb in zip(a, b) for x, y, m in zip(ra, rb, d))

        eye = im.identity(self.rank)
        gens = self.gen_actions
        for gi, (a, order) in enumerate(zip(gens, self.group.factors)):
            if not vanishes(im.mat_pow(a, order), eye):
                raise ContainmentError(
                    f"generator {gi} does not have order dividing {order} on the module"
                )
        for i, a in enumerate(gens):
            for b in gens[i + 1 :]:
                if not vanishes(im.mat_mul(a, b), im.mat_mul(b, a)):
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
    N is stored as it is written: diag(m)^[G:D] is its own Smith form and
    every action entry is reduced mod m, so it is validated with no Smith
    step (FiniteModule.build of the same data gives the same module)."""
    dec = decomposition_subgroup(inertia, frob)
    a = 1 + inertia.order
    m = a ** (dec.order // inertia.order) - 1
    actions = _induced_actions(inertia, dec, frob, pow(a, -1, m), m)
    rank = inertia.group.order // dec.order if m > 1 else 0
    e0 = [1] + [0] * (rank - 1)
    for elem, scale in [(-frob, a), *((i, 1) for i in inertia.generators())] if rank else []:
        v = e0  # e_0 times the matrix of elem, one generator at a time
        for c, mat in zip(elem.coords, actions):
            for _ in range(c):
                v = [x % m for x in im.vec_mat(v, mat)]
        if v != [scale % m] + e0[1:]:
            raise IdentityCheckError(f"e_0 is not killed by a - fbar^-1 and by I at {frob!r}")
    relations = im.frozen(im.diagonal([m] * rank))
    mod = FiniteModule(inertia.group, rank, relations, tuple(map(im.frozen, actions)))
    mod.validate()
    return mod


def _induced_actions(inertia: Subgroup, dec: Subgroup, frob: GroupElement, unit: int, m: int):
    """The generator matrices of inertia_module's N, fbar acting as unit."""
    lifts = [GroupElement(inertia.group, t) for t in im.hnf_residues(dec.basis)] if m > 1 else []
    index = {t: k for k, t in enumerate(lifts)}
    steps = {canonical_lift(inertia, frob.scale(j)): j for j in range(dec.order // inertia.order)}
    actions = []
    for g in inertia.group.generators():
        mat = im.zeros(len(lifts), len(lifts))
        for row, t in zip(mat, lifts):
            moved = canonical_lift(dec, t + g)
            row[index[moved]] = pow(unit, steps[canonical_lift(inertia, t + g - moved)], m)
        actions.append(mat)
    return actions
