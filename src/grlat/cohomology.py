"""Tate cohomology of finite modules, cohomological triviality, and
character components of p-parts.

For a finite module M = Z^g / L with commuting integer actions and a
subgroup H of the acting group, the two Tate groups in play are

    H^0  = (H-invariants of M) / (norm image + L)
    H^-1 = (kernel of the norm on M) / (augmentation image + L)

Every module is monomial (see grouprings): M = (Z/m)^g, L = diag(m),
and each generator sends every e_t to a unit times one e_t'.  So an
element's action is a (permutation, units) pair (FiniteModule.act), two
of them compose in O(g) (mono_mul), and the norm of H is a sum of #H
monomials with no matrix product.  H permutes the coordinates, every
matrix of the definition is block diagonal on the H-orbits, and each
Tate group is computed one orbit at a time
(tate_cohomology): the invariants and the norm kernel are kernels mod m
(intmat.kernel_mod), the images HNFs mod m, each on one block.  Each
Tate group is kept as the lattice pair (top, bottom) it is the quotient
of: two square canonical HNFs with L <= bottom <= top (HNF modulo D,
Cohen, GTM 138, 2.4.8), those of the whole module being the union of
the blocks'.  No quotient module is built: its order is the index ratio
[top : bottom], and every fact the triviality criterion needs of it is
a membership in bottom.

The tate sweep checks the Tate groups of an inertia module over H
against the closed form (Z/c)[G/B], B = D + H and c = #(H meet I), with
no lattice at all (prediction_verdict).  An inertia module is induced
from D (Brown, Cohomology of Groups, GTM 87, III.5): M = Ind_D^G Z/m(psi),
its coordinates G/D, D the stabiliser of coordinate 0 and psi the
character by which D acts on e_0.  G acts transitively on the
coordinates, and g in G maps the H-orbit of 0 onto that of g and
commutes with H, so the Tate groups over H are Z[G] (x)_Z[B] X, for X
those of the orbit of 0, whose stabiliser is B.  Restricted to B that is
[G:B] copies of X, and (Z/c)[G/B] is [G:B] copies of Z/c with B acting
trivially, so the two are isomorphic exactly when X is Z/c with B acting
trivially.  The orbit of 0 is Ind_K^H Z/m(psi), K = H meet D, so by
Shapiro's lemma for Tate cohomology (Brown, GTM 87, ch. VI) X is the Tate
group of K on the rank-1 module Z/m(psi).  With g = gcd(m, psi(k) - 1
over the generators k of K) and n = gcd(m, N), N the sum of psi over K,

    H^0  = (m/g) Z/m / n Z/m,    H^-1 = (m/n) Z/m / g Z/m,

both cyclic of order g n / m.  H acts trivially on its own cohomology
and d in D acts on both as psi(d), so the two verdicts are one, a few
gcds mod m, exact at every size: g n / m = c, and c divides psi(d) - 1
for each generator d of D.

The triviality criterion builds no component module either.  The
p-part M_p is M read mod p^v_p(m), under the same permutations
(p_part), and the chi-component M_p e_chi is a direct summand, so its
Tate groups are those of M_p times e_chi (Brown, GTM 87, VI): one
lattice pair of the whole p-part per Tate group over the p-Sylow
answers for every chi, by row memberships in bottom.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from . import intmat as im
from . import polys
from .abelian import (
    FinAbGroup,
    GroupElement,
    Subgroup,
    decomposition_subgroup,
    p_split,
    sylow,
    sylow_complement,
)
from .errors import IdentityCheckError, ParentMismatchError, PrecisionError, ScopeError
from .grouprings import FiniteModule, coordinate_orbit, mono_mul, mono_pow


# ---------------------------------------------------------------------------
# Tate cohomology, one orbit of coordinates at a time


@dataclass(frozen=True)
class TateResult:
    """H^0 and H^-1, each the pair (top, bottom) of square canonical
    HNFs it is the quotient of: (invariants, norm image) and (norm
    kernel, augmentation image), in the coordinates of the module."""

    h0: tuple
    hminus1: tuple


def _restrict(mono, coords):
    """A monomial on the stable coordinates coords, in their own indices."""
    perm, units = mono
    pos = {t: i for i, t in enumerate(coords)}
    return [pos[perm[t]] for t in coords], [units[t] for t in coords]


def _block_pairs(monos, steps, coords, m):
    """(H^0, H^-1) on the H-orbit coords of the module, in the orbit's
    own indices, for monos the monomials of H's generators and steps the
    (monomial, o_j) of the rows h_j of H's basis with o_j > 1.

    The elements sum_j k_j h_j, 0 <= k_j < o_j, are the elements of H,
    once each (see Subgroup), so the norm is the sum of their monomials,
    kept as distinct monomials with multiplicities: no matrix product,
    and one composition per distinct product e A_j^k."""
    s = len(coords)
    gens = [_restrict(a, coords) for a in monos]
    steps = [(_restrict(a, coords), o) for a, o in steps]
    mods = [m] * s
    # A_h - 1 for the generators h of H
    diffs = []
    for perm, units in gens:
        d = [[0] * s for _ in range(s)]
        for t, (j, u) in enumerate(zip(perm, units)):
            d[t][j] += u
            d[t][t] -= 1
        diffs.append(d)
    # invariants: x with x(A_h - 1) = 0 mod m for every h, one kernel with
    # the maps side by side
    side = [[x for d in diffs for x in d[i]] for i in range(s)]
    inv = im.kernel_mod(side, mods * len(diffs))
    one = (tuple(range(s)), (1,) * s)
    elems = {one: 1}
    for a, o in steps:
        # A^k for k < o, taken until A^k = 1: then A^k repeats with
        # period k, and each A^i, i < k, stands for every i + k j < o
        powers = [one]
        while len(powers) < o and (nxt := mono_mul(powers[-1], a, m)) != one:
            powers.append(nxt)
        full, rest = divmod(o, len(powers))
        grown = {}
        for e, w in elems.items():
            for i, power in enumerate(powers):
                key = mono_mul(e, power, m)
                grown[key] = grown.get(key, 0) + w * (full + (i < rest))
        elems = grown
    norm = [[0] * s for _ in range(s)]
    for (perm, units), w in elems.items():
        for row, j, u in zip(norm, perm, units):
            row[j] += w * u
    # L = diag(m) is taken as the moduli of both images; the
    # norm kernel is the x with x N = 0 mod m
    norm_image, ker = im.image_kernel_mod(norm, mods)
    aug = im.hnf([row for d in diffs for row in d], s, mods)
    return (inv, norm_image), (ker, aug)


def tate_cohomology(module: FiniteModule, sub: Subgroup) -> TateResult:
    """Both Tate groups of a monomial module over sub as lattice pairs.

    Each generator of sub maps every orbit onto itself, so every matrix
    of the definition (the A_h - 1 and the norm) is block diagonal on
    the orbits, and each kernel and image is the direct sum of its
    blocks'.  The canonical HNF of a direct sum over disjoint coordinates
    is the union of the blocks' canonical HNFs written back in the
    module's coordinates: the projection of a row of the sum's HNF onto
    the block of its pivot lies in the lattice and is in canonical form,
    so by uniqueness it is the row."""
    if sub.group != module.group:
        raise ParentMismatchError("subgroup of a different group")
    r, m = module.rank, module.modulus
    # the generators of sub are its nonzero basis rows, among them every
    # row h_j with o_j = factor_j / h_j[j] > 1
    monos, steps = [], []
    for j, (row, factor) in enumerate(zip(sub.basis, sub.group.factors)):
        elem = sub.group.element(row)
        if not elem.is_zero:
            monos.append(module.act(elem))
            if factor > row[j]:
                steps.append((monos[-1], factor // row[j]))
    wide = [([None] * r, [None] * r), ([None] * r, [None] * r)]
    for t in range(r):
        if wide[0][0][t] is not None:
            continue
        coords = coordinate_orbit(monos, t)
        for full, pair in zip(wide, _block_pairs(monos, steps, coords, m)):
            # row i of the orbit's HNF has its pivot at coords[i]
            for out, hnf in zip(full, pair):
                for u, row in zip(coords, hnf):
                    out[u] = [0] * r
                    for j, x in zip(coords, row):
                        out[u][j] = x
    return TateResult(*wide)


def p_part(module: FiniteModule, p: int) -> FiniteModule:
    """The p-primary part M / p^v M, p^v the p-part of m: (Z/p^v)^rank
    under the same permutations, units reduced mod p^v, or rank 0 when p
    does not divide m (p^v is invertible on every q-primary part, q != p,
    and annihilates the p-part)."""
    v = p_split(module.modulus, p)[0]
    if not v:
        return FiniteModule(module.group, 1, 0, tuple(((), ()) for _ in module.gens))
    q = p**v
    gens = tuple((perm, tuple([u % q for u in units])) for perm, units in module.gens)
    return FiniteModule(module.group, q, module.rank, gens)


# ---------------------------------------------------------------------------
# comparison with the predicted Tate module


def prediction_verdict(module: FiniteModule, dec: Subgroup, meet: Subgroup, c: int) -> tuple:
    """The verdicts, 'pass' or 'fail', of H^0 and of H^-1 of an induced
    module over H against (Z/c)[G/B], B = D + H, for dec = D the
    stabiliser of coordinate 0 and meet = K = H meet D, by the gcds of
    the module docstring.  D must be exactly that stabiliser and G must
    join every coordinate to 0: the module is transitive, rank #D = #G,
    and every generator of D (and of K) fixes coordinate 0.  Otherwise
    ScopeError.

    psi(d) is the unit by which d scales e_0.  The elements of K are the
    sum_j s_j k_j, s_j < o_j, over the rows k_j of its basis with o_j =
    factor_j / k_j[j] > 1, once each (see Subgroup), and psi is a
    character, so N = prod_j (1 + u_j + ... + u_j^(o_j - 1)), u_j =
    psi(k_j): (u^o - 1) / (u - 1) mod m, read off u^o mod m (u - 1)."""
    group = module.group
    if dec.group != group or meet.group != group:
        raise ParentMismatchError("subgroup of a different group")
    m = module.modulus
    ds = [module.act(d) for d in dec.generators()]
    ks = [
        (module.act(group.element(row)), factor // row[j])
        for j, (row, factor) in enumerate(zip(meet.basis, group.factors))
        if factor > row[j]
    ]
    if (
        not module.transitive
        or module.rank * dec.order != group.order
        or any(perm[0] for perm, _ in ds + [a for a, _ in ks])
    ):
        raise ScopeError("dec is not the stabiliser of coordinate 0, or G does not join the coordinates")
    g, norm = m, 1
    for (_, units), o in ks:
        u = units[0]
        g = gcd(g, u - 1)
        norm = norm * (o if u == 1 else (pow(u, o, m * (u - 1)) - 1) // (u - 1)) % m
    n = gcd(m, norm)
    # d fixes the generator m/g of H^0 = (m/g) Z/m / n Z/m when n divides
    # (psi(d) - 1) m/g, and the generator m/n of H^-1 when g divides
    # (psi(d) - 1) m/n: both say that g n / m divides psi(d) - 1
    ok = g * n == c * m and all((units[0] - 1) % c == 0 for _, units in ds)
    return ("pass", "pass") if ok else ("fail", "fail")


# ---------------------------------------------------------------------------
# characters of the prime-to-p part and their components


@dataclass(frozen=True)
class ChiClass:
    """A p-adic conjugacy class of characters of the prime-to-p part of
    the acting group.

    gen_orders are the orders of the canonical independent generators of
    that part (one per group factor, trivial ones dropped); values[i] is
    the exponent of the character at generator i, so the class is the
    orbit of the tuple under multiplication by p, recorded by its
    lex-least member.
    """

    p: int
    gen_orders: tuple
    values: tuple

    @property
    def order(self) -> int:
        out = 1
        for m, b in zip(self.gen_orders, self.values):
            o = m // gcd(m, b)
            out = out * o // gcd(out, o)
        return out


def complement_generators(group: FinAbGroup, p: int) -> tuple:
    """Canonical generators of the prime-to-p part of the group.

    The j-th standard generator e_j, of order p^a * m with m prime to p,
    contributes the generator p^a * e_j of order m, recorded as the
    triple (j, p^a, m); factors with m = 1 are skipped.
    """
    out = []
    for j, d in enumerate(group.factors):
        e, m = p_split(d, p)
        if m > 1:
            out.append((j, p**e, m))
    return tuple(out)


def _classes_from_orders(gen_orders, p: int) -> list[ChiClass]:
    tuples = [()]
    for m in gen_orders:
        tuples = [t + (b,) for t in tuples for b in range(m)]
    seen = set()
    out = []
    for t in tuples:
        if t in seen:
            continue
        orbit = set()
        cur = t
        while cur not in orbit:
            orbit.add(cur)
            cur = tuple((b * p) % m for b, m in zip(cur, gen_orders))
        canon = min(orbit)
        if canon not in seen:
            out.append(ChiClass(p, tuple(gen_orders), canon))
        seen |= orbit
    out.sort(key=lambda c: c.values)
    return out


def character_classes(group: FinAbGroup, p: int) -> list[ChiClass]:
    """Conjugacy classes of characters of the prime-to-p part of the
    group under exponent-multiplication by p, canonical order."""
    return _classes_from_orders(tuple(m for _, _, m in complement_generators(group, p)), p)


# (m, p, prec) -> the traces of _root_power_traces; (m, p) -> the
# idempotent e0 mod p they are lifted from
_LIFT_CACHE: dict = {}


def _cyclic_mul(a, b, q):
    """Product in (Z/q)[C_m] of two length-m coefficient lists."""
    m = len(a)
    out = [0] * m
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[(i + j) % m] += x * y
    return [c % q for c in out]


def _idempotent_mod_p(m: int, p: int) -> list:
    """The idempotent e0 of F_p[C_m] that _root_power_traces lifts."""
    h0 = (-1, 1) if m == 1 else polys.factor_cyclotomic_mod_p(m, p)[0]
    d = len(h0) - 1
    tr0 = [d % p]
    for k in range(1, m):
        s = k * h0[d - k] if k <= d else 0
        s += sum(h0[d - i] * tr0[k - i] for i in range(1, min(k, d + 1)))
        tr0.append(-s % p)
    inv_m = pow(m, -1, p)
    return [tr0[-k % m] * inv_m % p for k in range(m)]


def _root_power_traces(m: int, p: int, prec: int):
    """traces[k] = trace of zeta^k from Z_p[zeta] down to Z_p, mod
    p^prec, for zeta a root of the p-adic factor of the m-th cyclotomic
    polynomial that reduces to its lex-least irreducible factor h0 mod p
    (x - 1 for m = 1); k = 0..m-1.

    The traces mod p are the power sums of the roots of h0, read off its
    coefficients by Newton's identities.  They give the idempotent
    e = (1/m) sum_k Tr(x^-k) s^k of F_p[C_m], which e <- 3e^2 - 2e^3
    lifts to (Z/p^prec)[C_m], each step squaring the precision.  An
    idempotent lifts uniquely modulo the nilpotent ideal (p), so the
    lift is the p-adic idempotent of zeta's Frobenius orbit mod p^prec,
    and Tr(zeta^k) = m * e_(-k).
    """
    key = (m, p, prec)
    if key in _LIFT_CACHE:
        return _LIFT_CACHE[key]
    if prec < 1:
        raise PrecisionError("root power traces need precision at least p^1")
    # e0 does not depend on prec, so Phi_m is factored mod p once
    e0 = _LIFT_CACHE.get((m, p))
    if e0 is None:
        e0 = _LIFT_CACHE[(m, p)] = _idempotent_mod_p(m, p)
    q = p**prec
    e, exact = e0, 1
    while exact < prec:
        sq = _cyclic_mul(e, e, q)
        e = [(3 * a - 2 * b) % q for a, b in zip(sq, _cyclic_mul(sq, e, q))]
        exact *= 2
    if _cyclic_mul(e, e, q) != e or [c % p for c in e] != e0:
        raise IdentityCheckError(f"lifted idempotent of C_{m} is not idempotent mod {p}^{prec}")
    traces = [m * e[-k % m] % q for k in range(m)]
    _LIFT_CACHE[key] = traces
    return traces


def _complement_actions(module: FiniteModule, gens):
    """(coords, monomial) of every element of the prime-to-p part, first
    coordinate fastest, for gens = complement_generators(group, p), each
    monomial taken by one composition from an earlier one.  Digit i
    counts the steps s_i along the i-th triple (j, s_i, m_i) of gens, and
    an element whose digits below i are 0 has the monomial S_i = A_j^(s_i)
    times that of the element with digit i one less, kept in saved[i]."""
    m = module.modulus
    steps = [mono_pow(module.gens[j], s, m) for j, s, _ in gens]
    coords, digits = [0] * module.group.rank, [0] * len(gens)
    cur = (tuple(range(module.rank)), (1,) * module.rank)
    saved = [cur] * len(gens)
    yield tuple(coords), cur
    while True:
        i = 0
        while i < len(gens) and digits[i] == gens[i][2] - 1:
            digits[i] = coords[gens[i][0]] = 0
            i += 1
        if i == len(gens):
            return
        digits[i] += 1
        coords[gens[i][0]] += gens[i][1]
        cur = mono_mul(steps[i], saved[i], m)
        saved[: i + 1] = [cur] * (i + 1)
        yield tuple(coords), cur


def chi_idempotent_matrix(module: FiniteModule, chi: ChiClass, prec: int):
    """Action on the module of the conjugacy-class idempotent of chi,
    with entries reduced mod p^prec.

    The idempotent is (1/#D) * sum over elements d of the prime-to-p
    part D of the trace of chi(d^{-1}) times d; the trace over the
    p-adic coefficient field makes every coefficient p-integral, and all
    arithmetic is exact integer arithmetic mod p^prec.
    """
    p = chi.p
    q = p**prec
    group = module.group
    gens = complement_generators(group, p)
    if tuple(m for _, _, m in gens) != chi.gen_orders:
        raise ParentMismatchError("character domain does not match group")
    n = module.rank
    inv_size = pow(sylow_complement(group, p).order % q, -1, q) if q > 1 else 0
    m = chi.order
    traces = _root_power_traces(m, p, prec)
    out = im.zeros(n, n)
    for coords, (perm, units) in _complement_actions(module, gens):
        coeff = traces[-_chi_exponent_at(chi, gens, coords) % m] * inv_size % q
        if coeff:
            for row, j, u in zip(out, perm, units):
                row[j] += coeff * u
    out = [[x % q for x in row] for row in out]
    # a module map is only defined mod the modulus
    mod = gcd(q, module.modulus)
    sq = im.mat_mul(out, out)
    if any((x - y) % mod for srow, row in zip(sq, out) for x, y in zip(srow, row)):
        raise PrecisionError(f"chi idempotent is not idempotent mod {p}^{prec}")
    return out


# ---------------------------------------------------------------------------
# the triviality criterion


@dataclass(frozen=True)
class CriterionRow:
    chi: ChiClass
    component_ct: bool
    predicted_ct: bool

    @property
    def agree(self) -> bool:
        return self.component_ct == self.predicted_ct


@dataclass(frozen=True)
class CriterionReport:
    rows: tuple
    all_agree: bool


def _chi_exponent_at(chi: ChiClass, gens, coords):
    """Exponent k with chi(projection of the element to the prime-to-p
    part) = zeta_m^k, for an element given by its group coordinates and
    gens = complement_generators(group, chi.p).

    Coordinate x on a factor of order p^a * mi projects to y times the
    generator p^a * e_j of the prime-to-p part, where y * p^a = x mod mi;
    chi sends that generator to zeta_m^(b * m / mi)."""
    m = chi.order
    k = 0
    for b, (j, pe, mi) in zip(chi.values, gens):
        y = coords[j] * pow(pe, -1, mi) % mi
        k = (k + y * (b * m // mi)) % m
    return k


def _predicted_component_triviality(gens, inertia, dec, p, chi) -> bool:
    """The prediction for chi, with gens = complement_generators(group, p)
    and dec = I + <frob>, both taken once per triviality_criterion call."""
    if tuple(m for _, _, m in gens) != chi.gen_orders:
        raise ParentMismatchError("character domain does not match group")
    if inertia.order % p != 0:
        return True
    return any(_chi_exponent_at(chi, gens, g.coords) for g in dec.generators())


def _kills(ep, pair) -> bool:
    """Whether the idempotent matrix ep kills top / bottom: r ep lies in
    bottom for every row r of top."""
    top, bottom = pair
    pivots = range(len(bottom))
    return all(im.in_span(bottom, pivots, im.vec_mat(r, ep)) for r in top)


def triviality_criterion(
    module: FiniteModule,
    inertia: Subgroup,
    frob: GroupElement,
    p: int,
) -> CriterionReport:
    """Check, for every character class of the prime-to-p part, that the
    chi-component of the p-part of the inertia module is
    trivial-or-cohomologically-trivial exactly when the p-part of
    inertia is trivial or chi is nontrivial on the decomposition
    subgroup.

    M_p = M_p e (+) M_p (1 - e) for e = e_chi, which commutes with the
    action, and Tate cohomology is additive, so H^i(P, M_p e) =
    H^i(P, M_p) e for the p-Sylow P: the component is cohomologically
    trivial exactly when e kills both Tate groups of M_p over P, taken
    once for every chi.  Over a q-Sylow Q, q != p, both #Q and the
    exponent p^k of M_p kill the Tate groups, so they vanish.

    module is inertia_module(inertia, frob) and its group is the acting
    group; the caller builds it once and may pass it for every p."""
    group = module.group
    if inertia.group != group or frob.group != group:
        raise ParentMismatchError("inputs from a different group")
    mp = p_part(module, p)
    k = p_split(mp.modulus, p)[0]
    if k:
        t = tate_cohomology(mp, sylow(group, p))
    gens, dec = complement_generators(group, p), decomposition_subgroup(inertia, frob)
    rows = []
    for chi in character_classes(group, p):
        if k:
            ep = chi_idempotent_matrix(mp, chi, k)
            lhs = _kills(ep, t.h0) and _kills(ep, t.hminus1)
        else:
            lhs = True
        rhs = _predicted_component_triviality(gens, inertia, dec, p, chi)
        rows.append(CriterionRow(chi, lhs, rhs))
    return CriterionReport(tuple(rows), all(r.agree for r in rows))
