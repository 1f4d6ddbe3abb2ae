"""Tate cohomology of finite modules, cohomological triviality, and
character components of p-parts.

For a finite module M = Z^g / L with commuting integer actions and a
subgroup H of the acting group, the two Tate groups in play are

    H^0  = (H-invariants of M) / (norm image + L)
    H^-1 = (kernel of the norm on M) / (augmentation image + L)

Every module comes in Smith coordinates (see grouprings): L = diag(d)
and g is the number of invariants d_i of M = (+) Z/d_i (an inertia
module is (Z/(a^f - 1))^[G:D]).  So both kernels are kernels mod d
(intmat.kernel_mod): the invariants are the x that the k maps A_h - 1
of H's generators, side by side, send to 0 mod d in each of the k
blocks, and the norm kernel the x with x N = 0 mod d.  Each Tate group
is kept as the lattice pair (top, bottom) it is the quotient of: two
square canonical HNFs in M's own coordinates with L <= bottom <= top
(Cohen, GTM 138, 2.4.8).  No quotient module is built: its order is
the index ratio [top : bottom], and every fact the verdict needs is a
membership in bottom or an HNF of a span inside top.  A whole module
is the pair (identity, L).

The Tate groups of an inertia module over H depend on H only through
tate_key(I, H), and are checked against the closed form (Z/c)[G/B] =
Z[G]/J, J = (c, b - 1 : b in B), which is never built.  Z[G] is
commutative, so every generator of a cyclic module has the module's
annihilator, and top / bottom is isomorphic to Z[G]/J exactly when its
order is c^[G:B], J annihilates it, and it is cyclic: an index
comparison, row memberships in bottom, and a generator sought among the
rows of top first, whatever the group's size; an exhaustive walk over
the cosets of a small group proves it is not cyclic, and a large group
with no generator among the rows of top is reported undecided rather
than guessed.

The triviality criterion builds no component module either.  The
p-part M_p is M's coordinates with p | d_i, read mod p^v_p(d_i)
(p_part), and the chi-component M_p e_chi is a direct summand, so its
Tate groups are those of M_p times e_chi (Brown, GTM 87, VI): one
lattice pair per Tate group of M_p over the p-Sylow answers for every
chi, by row memberships in bottom.
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
from .errors import IdentityCheckError, ParentMismatchError, PrecisionError
from .grouprings import FiniteModule


# ---------------------------------------------------------------------------
# Tate cohomology


@dataclass(frozen=True)
class TateResult:
    """H^0 and H^-1, each the pair (top, bottom) of square canonical
    HNFs it is the quotient of: (invariants, norm image) and (norm
    kernel, augmentation image)."""

    h0: tuple
    hminus1: tuple


def _actions(module: FiniteModule, elems, mats: dict) -> list:
    """The matrices of elems on module, read from mats (group element ->
    matrix) and stored there when missing."""
    out = []
    for h in elems:
        a = mats.get(h)
        if a is None:
            a = mats[h] = module.action_matrix(h)
        out.append(a)
    return out


def norm_matrix(module: FiniteModule, sub: Subgroup, mats: dict):
    """Matrix of the sum of the actions of all elements of sub.

    sub.basis is a square HNF, so its rows h_j, h_(j+1), ... span S_j,
    the elements of sub whose first j coordinates vanish, and the t h_j
    with t < o_j = factor_j / basis[j][j] represent S_j / S_(j+1).
    So the norm of sub = S_0 is the product over j of 1 + A + ... +
    A^(o_j - 1), A = A_(h_j), read from mats, which maps each of
    sub.generators() to its matrix (the basis rows with o_j > 1 are
    among them)."""
    out = im.identity(module.rank)
    for j, (row, factor) in enumerate(zip(sub.basis, sub.group.factors)):
        if factor == row[j]:
            continue
        a = mats[sub.group.element(row)]
        # out <- sum_t A^t out, the sparse A on the left of every product
        term = out
        for _ in range(factor // row[j] - 1):
            term = im.mat_mul(a, term)
            out = [[x + y for x, y in zip(r, s)] for r, s in zip(out, term)]
    return out


def tate_cohomology(module: FiniteModule, sub: Subgroup, mats: dict | None = None) -> TateResult:
    """Both Tate groups of module over sub as lattice pairs.  mats, when
    given, caches the matrix of each group element and is shared with
    other calls on the same module."""
    if sub.group != module.group:
        raise ParentMismatchError("subgroup of a different group")
    if mats is None:
        mats = {}
    n = module.rank
    # A_h - 1 for the generators h of sub
    diffs = [
        [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(a)]
        for a in _actions(module, sub.generators(), mats)
    ]
    mods = module.invariants()
    # invariants: x with x(A_h - 1) = 0 mod d for every h, one kernel with
    # the maps side by side
    side = [[x for d in diffs for x in d[i]] for i in range(n)]
    inv = im.kernel_mod(side, mods * len(diffs))
    nm = norm_matrix(module, sub, mats)
    # the relations are diag(d), taken as the moduli of both images
    norm_image = im.hnf(nm, n, mods)
    # norm kernel: x with x N = 0 mod d
    ker = im.kernel_mod(nm, mods)
    aug = im.hnf([row for d in diffs for row in d], n, mods)
    return TateResult((inv, norm_image), (ker, aug))


def tate_order(pair) -> int:
    """#(top / bottom) for square full-rank HNFs bottom <= top: the
    ratio of their indices in Z^g."""
    top, bottom = pair
    return im.hnf_index(bottom) // im.hnf_index(top)


def p_part(module: FiniteModule, p: int) -> FiniteModule:
    """The p-primary part M / p^e M, p^e the p-part of the exponent, in
    closed form.

    M = (+) Z/d_i, so M / p^e M = (+) Z/d_i' with d_i' = p^v_p(d_i): p^e
    is invertible on every q-primary part, q != p, and annihilates the
    p-part.  The coordinates with p | d_i are kept, already in Smith
    coordinates as d_i | d_(i+1), and each generator acts by the same
    matrix restricted to them, column j reduced mod d_j'."""
    keep = [(i, p ** p_split(d, p)[0]) for i, d in enumerate(module.invariants()) if d % p == 0]
    actions = tuple(
        im.frozen([[a[i][j] % d for j, d in keep] for i, _ in keep]) for a in module.gen_actions
    )
    return FiniteModule(module.group, len(keep), im.frozen(im.diagonal([d for _, d in keep])), actions)


# ---------------------------------------------------------------------------
# comparison with the predicted Tate module


# Past this order a Tate group is not walked coset by coset: without a
# generator among the rows of top its comparison is reported undecided.
GENERATOR_SEARCH_CAP = 30_000


def coset_representatives(pair):
    """An iterator over representatives of the cosets of top / bottom,
    or None past GENERATOR_SEARCH_CAP.

    In the basis top, bottom has a triangular basis with diagonal
    m_i = bottom[i][i] / top[i][i], so the sums of k_i top_i with
    0 <= k_i < m_i, first coordinate fastest, are one per coset: for
    (identity, diag(d)) the residues of diag(d)."""
    if tate_order(pair) > GENERATOR_SEARCH_CAP:
        return None
    top, bottom = pair
    steps = im.diagonal([b[i] // t[i] for i, (t, b) in enumerate(zip(top, bottom))])
    return (tuple(im.vec_mat(k, top)) for k in im.hnf_residues(steps))


def find_cyclic_generator(module: FiniteModule, pair):
    """(generator, searched_all): a vector x of top whose image generates
    top / bottom over the group ring, or None.

    x generates when the span of x and bottom, grown by its images under
    the generator matrices until it stops growing, is top.  The rows of
    top are tried first, whatever the order of top / bottom.  Only a
    group of order at most GENERATOR_SEARCH_CAP is then walked coset by
    coset, which proves it is not cyclic; searched_all=False means no
    generator was found and the group was too large to walk."""
    top, bottom = pair
    n = module.rank
    if tate_order(pair) == 1:
        return [0] * n, True
    # relations <= bottom: every span is taken mod d
    mods = module.invariants()
    target = im.hnf_index(top)

    def generates(x):
        span = im.hnf([x, *bottom], n, mods)
        while im.hnf_index(span) > target:
            grown = im.hnf(span + [im.vec_mat(r, a) for a in module.gen_actions for r in span], n, mods)
            if grown == span:
                return False
            span = grown
        return True

    x = next(filter(generates, top), None)
    if x is not None:
        return x, True
    reps = coset_representatives(pair)
    if reps is None:
        return None, False
    return next(filter(generates, reps), None), True


def tate_key(inertia: Subgroup, sub: Subgroup) -> tuple[Subgroup, int]:
    """(H + I, c), c = #(H meet I) = #I #H / #(H + I).  I acts trivially on
    the inertia module M, so M^H = M^(H + I), I_H M = I_(H + I) M and N_H =
    c N_(H mod I) (Brown, GTM 87, III): one key, equal Tate groups (canonical
    HNFs) and one prediction, so verify computes one row per key of a pair."""
    joined = sub.join(inertia)
    return joined, inertia.order * sub.order // joined.order


def prediction_data(dec: Subgroup, key: tuple[Subgroup, int]) -> tuple[Subgroup, int]:
    """(B, c) of the predicted Tate module (Z/c)[G/B] of the inertia module of
    (I, frob), dec = D = I + <frob>, over every H with tate_key(I, H) = key:
    B = D + H = D + (H + I) and c the key's."""
    return dec.join(key[0]), key[1]


def prediction_verdict(
    module: FiniteModule, pair, big: Subgroup, c: int, mats: dict | None = None
) -> str:
    """'pass' if top / bottom, for a lattice pair of module, is isomorphic
    to (Z/c)[G/B] = Z[G]/J with J = (c, b - 1 : b in B), 'fail' if it is
    not, and 'undecided' for a group too large to walk that has no
    generator among the rows of top.  mats is as in tate_cohomology.

    top / bottom is isomorphic to Z[G]/J exactly when it has order
    c^[G:B], J annihilates it, and it is cyclic: a generator x gives
    Z[G]/Ann(x), Ann(x) = Ann(top / bottom) contains J, and the orders
    force equality.  J annihilates it when c r and r (A_b - 1) lie in
    bottom for every row r of top and every generator b of B."""
    group = module.group
    if big.group != group:
        raise ParentMismatchError("subgroup of a different group")
    if tate_order(pair) != c ** (group.order // big.order):
        return "fail"
    top, bottom = pair
    pivots = range(module.rank)
    if not all(im.in_span(bottom, pivots, [c * x for x in r]) for r in top):
        return "fail"
    for a in _actions(module, big.generators(), {} if mats is None else mats):
        for r in top:
            if not im.in_span(bottom, pivots, [x - y for x, y in zip(im.vec_mat(r, a), r)]):
                return "fail"
    x, searched_all = find_cyclic_generator(module, pair)
    if x is not None:
        return "pass"
    return "fail" if searched_all else "undecided"


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
    """(coords, matrix) of every element of the prime-to-p part, first
    coordinate fastest, for gens = complement_generators(group, p): the
    matrix is action_matrix's unreduced product A_1^(c_1) ... A_r^(c_r),
    each taken by one product from an earlier one.  Digit i counts the
    steps s_i along the i-th triple (j, s_i, m_i) of gens, and an element
    whose digits below i are 0 has the matrix S_i = A_j^(s_i) times that
    of the element with digit i one less, kept in saved[i]."""
    steps = [im.mat_pow(module.gen_actions[j], s) for j, s, _ in gens]
    coords, digits = [0] * module.group.rank, [0] * len(gens)
    cur = im.identity(module.rank)
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
        cur = im.mat_mul(steps[i], saved[i])
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
    for coords, a in _complement_actions(module, gens):
        coeff = traces[-_chi_exponent_at(chi, gens, coords) % m] * inv_size % q
        if coeff:
            for row, arow in zip(out, a):
                for j, x in enumerate(arow):
                    row[j] += coeff * x
    out = [[x % q for x in row] for row in out]
    # column j of a module map is only defined mod d_j
    mods = [gcd(q, d) for d in module.invariants()]
    sq = im.mat_mul(out, out)
    if any((x - y) % m for srow, row in zip(sq, out) for x, y, m in zip(srow, row, mods)):
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
    k = p_split(mp.exponent(), p)[0]
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
