"""Lattice representatives of module classes and their verification.

Attached to a pair (I, phi) of an inertia subgroup and a Frobenius coset
are two group-ring lattices.  The forward representative lives over a
cyclic group and is the integral ideal generated by the inertia norm
N_I and the element 1 - lift(phi)^{-1} + #I; it depends on the chosen
coset lift.  The backward representative exists over any finite abelian
group: with nu = N_I / #I it is the lattice (nu, 1 - nu phi^{-1})
inside (1/#I) Z[G].  That lattice holds nu phi^{-1}, a translate of nu,
hence 1, so it is Z[G] + nu Z[G] whatever phi is, and depends on I
alone.  It is stored scaled by #I, as the integral ideal (N_I, #I).

The verification routines certify, with exact integer arithmetic, the
structural facts the representatives rest on: the kernel of
(a, b) |-> a (tau - 1) + b (1 - phi^{-1} + #I) has the expected two
generators over the group ring; the backward representative sits in an
extension of the full group ring by the norm line (below); and two
pairs with the same inertia and
decomposition data are related by an explicit unit u of Z_p[G/I] with
u (1 - phi_a^{-1}) = 1 - phi_b^{-1}.  The same D gives phi_b = k phi_a
mod I with p not dividing k, and the witness is the geometric sum
u = sum_{t<k} phi_a^{-t}, which telescopes to the identity; its
augmentation k is prime to p, so u is a unit of the local ring
Z_p[G/I].  The identity is checked exactly in Z[G/I] on canonical lifts
mod I (abelian.canonical_lift): one walk v |-> lift(v - phi_a) from 0
lists the terms phi_a^{-t} of u and the step that multiplication by
phi_a^{-1} takes, and k is the walk position of lift(-phi_b).  G is a
p-group, so D_a / I is cyclic of p-power order and D_b = D_a exactly
when the walk meets lift(-phi_b) at a k prime to p; the walk is the
decomposition guard.  A unit row computes nothing else: it builds no
quotient group and no ring.  Comparing the backward lattice L with L w,
for w = 1 + nu (u~ - 1) and u~ a lift of u to Z[G], modulo a power of p
cannot fail once p does not divide k, so that comparison lives in the
tests as an oracle: L is a ring holding w, so L w is in L, and
[L : L w] = |det M_w| is the norm of u over Q[G/I] (w acts as 1 off
nu Q[G]), which is k^|G/I| mod p as F_p[G/I] is local with residue
field F_p.

The extension check reads two facts off the cosets of I, each listed
with its canonical lift x0 first.  The projection pi of Q[G] killing
nu Q[G], the vectors constant on cosets, is v |-> (v_x - v_x0) for
x != x0, and maps Z[G] onto Z^(n - [G:I]); so (a) pi(#I L) =
#I pi(Z[G]) is one HNF of those differences of #I L's basis against
#I times the identity.  (b) N_I Z[G] is primitive in #I L, so the
nu-part of L is nu Z[G]: N_I Z[G] is spanned by the coset indicators
and holds every integer vector constant on cosets, so it is saturated
in Z^n, and primitive in #I L exactly when it lies there.  A vector
killed by pi is a sum of indicators, so both hold exactly when #I L is
(N_I, #I): ext cannot fail on the lattice backward_rep builds, the HNF
of the indicators and #I Z^n.

The kernel check is an index identity, not a kernel computation.  With
g = 1 - lift^{-1} + #I, every character chi has
Re chi(g) = 1 - Re chi(lift)^{-1} + #I >= #I >= 2, so det M_g != 0 and
g is not a zero divisor.  The first projection is then injective on the
kernel K, its image is {a : a (tau - 1) in g Z[G]}, of index
|det M_g| / [Z[G] : (tau - 1, g)], and Z[G]/(tau - 1, g) is
Z[G/I]/(gbar).  Once the claimed generators lie in K, K equals their
span exactly when [Z[G] : (N_I, g)] * [Z[G/I] : (gbar)] = |det M_g|.
The last two are indices of principal ideals of cyclic group rings, as
G and G/I are cyclic and g = a - sigma^{-l} with a = 1 + #I and l the
lift: [Z[C_m] : (a - sigma^{-l})] is the product of a - zeta^{-l} over
the m-th roots of unity, (a^{m/e} - 1)^e with e = gcd(l, m)
(_principal_index), taken at m = |G| and m = |G/I|.  The first index
is read in Z[G]/(g) with e = gcd(l, n) and M = a^{n/e} - 1: writing
j = c - t l with 0 <= c < e, the map e_j |-> a^t f_c onto (Z/M)^e is
well defined (a^{n/e} = 1 mod M), Z[G]-linear for sigma acting as the
shift f_c |-> f_{c+1} with f_{e-1} |-> a^{t_e} f_0 (e = 0 - t_e l), and
kills g, as e_{-l} |-> a f_0; it is onto, and its target has order
M^e = |det M_g|, so it is an isomorphism (Washington, Introduction to
Cyclotomic Fields, GTM 83, ch. 1).  When g is one of the claimed first
coordinates xs, [Z[G] : (xs)] is then the index in Z^e of the images of
x sigma^s for s < e (sigma^e acts as a scalar) together with M Z^e: one
elimination of width e mod M, where the forward representative's orbit
HNF had 2n rows of width n (_projection_index).  sigma acts invertibly,
so an image that repeats an emitted row ends its orbit, and zero rows
are dropped; M Z^e is not stacked but kept as the modulus of every
column (intmat.index_mod), so with phi in I (e = n) the elimination
gets the n/#I images of N_I's rotations, not 3n rows.  The kernel path
builds no lattice and no ring element: N_I, g and the
claims are term maps {j: c}, c != 0, of Z[X]/(X^n - 1), sigma -> X,
multiplied mod n; forward_rep densifies N_I and g once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from . import intmat as im
from .abelian import (
    FinAbGroup,
    GroupElement,
    Subgroup,
    canonical_lift,
    prime_factors,
)
from .errors import (
    ContainmentError,
    ParentMismatchError,
    ScopeError,
    UnitNotFoundError,
)
from .grouprings import GroupRing, IdealLattice


def _forward_generators(
    ring: GroupRing, inertia: Subgroup, frob: GroupElement, lift: GroupElement | None
) -> tuple[GroupElement, dict, dict]:
    """The generators of the forward representative: the lift used, and
    N_I and g = 1 - lift^{-1} + #I as term maps.  Default lift: the
    canonical (lex-least) coset representative."""
    if not ring.group.is_cyclic:
        raise ScopeError("forward representative needs a cyclic group")
    if lift is None:
        lift = canonical_lift(inertia, frob)
    elif not inertia.contains(lift - frob):
        raise ContainmentError("lift is not in the coset of frob")
    n, j, order = ring.n, -ring.group.index_of(lift) % ring.n, inertia.order
    # I = <sigma^h> with h = n/#I, and lift^{-1} is X^j
    g = {0: 1 + order}
    g[j] = g.get(j, 0) - 1
    return lift, dict.fromkeys(range(0, n, n // order), 1), g


def forward_rep(
    ring: GroupRing,
    inertia: Subgroup,
    frob: GroupElement,
    lift: GroupElement | None = None,
) -> tuple[GroupElement, IdealLattice]:
    """Forward representative: the ideal (N_I, 1 - lift^{-1} + #I).

    Only defined over cyclic groups; the lattice genuinely depends on
    the chosen lift of the coset frob + I, so (lift used, lattice) is
    returned.
    """
    lift, *gens = _forward_generators(ring, inertia, frob, lift)
    dense = [ring.from_coeffs(x.get(j, 0) for j in range(ring.n)) for x in gens]
    return lift, IdealLattice.from_elements(ring, dense)


def _cosets(ring: GroupRing, inertia: Subgroup):
    """The cosets of I as element indices, each led by its canonical lift
    (the residues of I's basis, abelian.canonical_lift), and their 0/1
    indicator rows."""
    group, elems = ring.group, inertia.elements()  # zero first
    cosets = [
        [ring.index_of(GroupElement(group, x) + i) for i in elems]
        for x in im.hnf_residues(inertia.basis)
    ]
    rows = [[0] * ring.n for _ in cosets]
    for row, coset in zip(rows, cosets):
        for j in coset:
            row[j] = 1
    return cosets, rows


def backward_rep(ring: GroupRing, inertia: Subgroup) -> IdealLattice:
    """Backward representative of every pair with inertia I: the lattice
    Z[G] + nu Z[G] with nu = N_I / #I, stored scaled by #I as the ideal
    (N_I, #I) of Z[G], the HNF of the [G:I] coset indicators (the
    translates of N_I) and #I Z^n.  Inertia must be nontrivial."""
    if inertia.is_trivial:
        raise ScopeError("backward representative needs nontrivial inertia")
    _, rows = _cosets(ring, inertia)
    return IdealLattice(ring, rows + im.diagonal([inertia.order] * ring.n))


@dataclass(frozen=True)
class KernelReport:
    kernel_matches: bool
    projection_matches: bool

    @property
    def ok(self) -> bool:
        return self.kernel_matches and self.projection_matches


def verify_kernel_presentation(
    ring: GroupRing,
    inertia: Subgroup,
    frob: GroupElement,
    lift: GroupElement | None = None,
) -> KernelReport:
    """Certify the two-generator presentation of the relation kernel.

    For tau = sigma^h, h = n/#I, the generator of (cyclic, nontrivial)
    inertia, and g = 1 - lift^{-1} + #I, the kernel of
    (a, b) |-> a (tau - 1) + b g inside Z[G]^2 is claimed to be
    generated over the group ring by (N_I, 0) and (g, 1 - tau), and its
    first projection to be the ideal (N_I, g), which is the forward
    representative.  Both are certified by the index identity of the
    module docstring: the forward representative's index is one HNF of
    width gcd(l, n) in Z[G]/(g), and the two principal indices are
    closed forms; no lattice is built.
    """
    # a noncyclic I lies in a noncyclic G, which _forward_generators refuses
    if inertia.is_trivial:
        raise ScopeError("inertia must be nontrivial")
    lift, n_i, g = _forward_generators(ring, inertia, frob, lift)
    claimed = [(n_i, {}), (g, {0: 1, ring.n // inertia.order: -1})]
    return _kernel_identity(ring, inertia, lift, g, claimed)


def _principal_index(a: int, ell: int, m: int) -> int:
    """[Z[C_m] : (a - sigma^{-ell})] = |det M| for an integer a >= 2.

    The determinant is the product of a - zeta^{-ell} over the m-th roots
    of unity zeta.  With e = gcd(ell, m), zeta^{-ell} runs e times over
    the (m/e)-th roots of unity eta, and the product of a - eta over
    them is a^{m/e} - 1; so the index is (a^{m/e} - 1)^e, which is
    positive because a >= 2 (the kernel check has a = 1 + #I >= 3).
    """
    e = gcd(ell, m)
    return (a ** (m // e) - 1) ** e


def _projection_index(xs, a: int, ell: int, n: int) -> int:
    """[Z[C_n] : (xs)] for term maps xs of Z[C_n] one of which is
    g = a - sigma^{-ell}, a >= 2: the index of their image in
    Z[C_n]/(g) = (Z/M)^e, e = gcd(ell, n), M = a^{n/e} - 1 (module
    docstring).  e_j maps to a^t f_c with c = j mod e and
    t = -(j // e) (ell/e)^{-1} mod n/e, so each x is mapped through its
    terms; sigma shifts f_c to f_{c+1} and f_{e-1} to a^{t_e} f_0, and
    the images of x sigma^s for s < e with M Z^e span the image, as
    sigma^e acts as the scalar a^{t_e}.  Each row is emitted once, and
    a repeat ends the orbit of x (module docstring); the index is read
    mod M, with M Z^e as the moduli, not as stacked rows."""
    e = gcd(ell, n)
    f = n // e
    m = a**f - 1
    step = pow(ell // e, -1, f)
    twist = pow(a, -step % f, m)
    rows, seen = [], {(0,) * e}
    for x in xs:
        v = [0] * e
        for j, c in x.items():
            v[j % e] += c * pow(a, -(j // e) * step % f, m)
        v = tuple(c % m for c in v)
        for _ in range(e):
            if v in seen:
                break
            seen.add(v)
            rows.append(v)
            v = (twist * v[-1] % m, *v[:-1])
    return im.index_mod(rows, [m] * e)


def _vanishes(pairs, n: int) -> bool:
    """Whether sum u v over the pairs (u, v) of term maps is 0 in Z[C_n]."""
    out = {}
    for u, v in pairs:
        for i, c in u.items():
            for j, d in v.items():
                k = (i + j) % n
                out[k] = out.get(k, 0) + c * d
    return not any(out.values())


def _kernel_identity(
    ring: GroupRing,
    inertia: Subgroup,
    lift: GroupElement,
    g: dict,
    claimed,
) -> KernelReport:
    """The kernel check over a cyclic group G of order n for claimed
    generators (x, y) of the kernel of (a, b) |-> a (tau - 1) + b g,
    g = a - sigma^{-l} with a = 1 + #I and l the lift, as term maps.

    The claim holds when every x (tau - 1) + y g vanishes (phi is
    Z[G]-linear, so the translates follow) and
    [Z[G] : (xs)] * [Z[G/I] : (gbar)] = |det M_g| for the claimed first
    coordinates xs.  [Z[G] : (xs)] is read off the claimed xs in
    Z[G]/(g) (_projection_index), which is exact only when g is in (xs),
    so g must be one of them (else ContainmentError).  G/I is cyclic of
    order k = n/#I, generated by the image of sigma, so gbar is
    a - sigmabar^{-l} and both principal indices are _principal_index
    at m = k and m = n.
    """
    xs = [x for x, _ in claimed]
    if g not in xs:
        raise ContainmentError("g is not one of the claimed first coordinates")
    n, order = ring.n, inertia.order
    # G is cyclic, so I = <sigma^h> with h = n/#I and tau - 1 = X^h - 1
    t_minus_1 = {0: -1, n // order: 1}
    contained = all(_vanishes([(t_minus_1, x), (g, y)], n) for x, y in claimed)
    a, ell = 1 + order, ring.group.index_of(lift)
    det_g = _principal_index(a, ell, n)
    quotient_index = _principal_index(a, ell, n // order)
    projection_matches = _projection_index(xs, a, ell, n) * quotient_index == det_g
    return KernelReport(contained and projection_matches, projection_matches)


@dataclass(frozen=True)
class ExtensionReport:
    image_matches: bool
    embedding_primitive: bool

    @property
    def ok(self) -> bool:
        return self.image_matches and self.embedding_primitive


def verify_extension_sequence(ring: GroupRing, inertia: Subgroup) -> ExtensionReport:
    """Certify that the backward representative L of inertia I sits in
    the same extension as the full group ring: (a) pi(#I L) =
    #I pi(Z[G]) in the coset coordinates of pi, and (b) N_I Z[G] is
    primitive in #I L, which is containment as N_I Z[G] is saturated in
    Z^n (module docstring)."""
    basis = backward_rep(ring, inertia).basis
    cosets, indicators = _cosets(ring, inertia)
    width = ring.n - len(cosets)
    diffs = [[row[x] - row[c[0]] for c in cosets for x in c[1:]] for row in basis]
    image_matches = im.hnf(diffs, width) == im.diagonal([inertia.order] * width)
    embedding_primitive = all(im.in_span(basis, range(ring.n), v) for v in indicators)
    return ExtensionReport(image_matches, embedding_primitive)


@lru_cache(maxsize=1)
def _coset_walk(inertia: Subgroup, step: tuple) -> tuple[tuple, tuple, dict]:
    """The walk v |-> lift(v - step) from 0 on canonical lifts mod I
    (abelian.canonical_lift), stopped where it returns to 0: the lifts
    lift(-t step) in walk order, each one's successor, and the position
    of each.  A unit sweep checks the rows of one phi_a one after
    another, so the last walk serves them all."""
    basis, pivots = inertia.basis, range(len(inertia.basis))
    lifts, v = [], (0,) * len(step)
    while True:
        lifts.append(v)
        v = tuple(im.reduce_against(basis, pivots, [a - b for a, b in zip(v, step)])[1])
        if not any(v):
            break
    return tuple(lifts), (*lifts[1:], lifts[0]), {v: t for t, v in enumerate(lifts)}


def verify_unit_transport(
    group: FinAbGroup,
    inertia: Subgroup,
    frob_a: GroupElement,
    frob_b: GroupElement,
) -> bool:
    """Transport the backward representative of (I, phi_a) onto that of
    (I, phi_b) by an explicit unit multiplier, p-adically.

    Requires the group to be a p-group and the two pairs to share both
    inertia and decomposition subgroup.  Then phi_b = k phi_a mod I for
    the least such k >= 1, and k is prime to p, and the witness
    u = sum_{t<k} phi_a^{-t} telescopes to u (1 - phi_a^{-1}) =
    1 - phi_a^{-k} = 1 - phi_b^{-1} in Z[G/I].  Its augmentation k is
    prime to p, so u is a unit of the local ring Z_p[G/I].  Everything is
    read off the walk of phi_a^{-1} over the canonical lifts mod I
    (_coset_walk): k is the position of lift(-phi_b), and the identity
    is compared as term maps keyed by those lifts; no quotient group and
    no ring is built.  Returns True once it holds.  A lift(-phi_b) off
    the walk or at a k divisible by p (the pairs have different
    decomposition subgroups), or a witness that fails its identity,
    raises UnitNotFoundError.  The p-adic comparison of the backward
    lattice L with L w, w = 1 + nu (u~ - 1), is a test oracle only: with
    p not dividing k it cannot fail (module docstring).
    """
    ps = prime_factors(group.order)
    if len(ps) != 1:
        raise ScopeError("unit transport needs a nontrivial p-group")
    (p,) = ps
    if not group == inertia.group == frob_a.group == frob_b.group:
        raise ParentMismatchError("inputs from different groups")
    lifts, succ, position = _coset_walk(inertia, frob_a.coords)
    basis = inertia.basis
    target = tuple(im.reduce_against(basis, range(len(basis)), [-c for c in frob_b.coords])[1])
    t = position.get(target)
    # position 0 is phi_b in I, where the walk first meets it again after
    # a full period
    k = t or len(lifts)
    if t is None or k % p == 0:
        raise UnitNotFoundError("no unit carries one coset difference to the other")
    # u (1 - phi_a^{-1}) = 1 - phi_b^{-1}, as u + [lift(-phi_b)] =
    # u phi_a^{-1} + [0]: multiplying by phi_a^{-1} moves each term of u
    # one step along the walk, whose lifts are distinct (it stops at its
    # first return to 0), so every term of u has coefficient 1
    left, right = dict.fromkeys(lifts[:k], 1), dict.fromkeys(succ[:k], 1)
    left[target] = left.get(target, 0) + 1
    right[lifts[0]] = right.get(lifts[0], 0) + 1
    if left != right:
        raise UnitNotFoundError("the witness does not carry one coset difference to the other")
    return True
