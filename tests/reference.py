"""Reference routines the library no longer carries, kept as test oracles.

ref_det is the Bareiss determinant and ref_resultant_monic the
multiplication-matrix resultant that spectrum's character valuations
used before they were read off the Eisenstein expansion; both are
checked against sympy in the tests that use them.

ref_root_power_traces is the Hensel route to the traces of a p-adic
cyclotomic root that cohomology used before it lifted the idempotent
instead: the lex-least factor of Phi_m mod p is lifted to mod p^prec by
the linear Hensel iteration, and the traces of the powers of X are read
off Z[X]/(h).  The polynomial helpers it needs come with it, including
the multiplication matrix and the product and reduction mod a modulus
that cohomology used to read its traces mod p before Newton's
identities.  The routines are verbatim apart from their names and the
two memo dicts.

ref_preimage_is_standard is the fact the extension check dropped as a
restatement of its embedding test: the preimage under multiplication by
nu of the nu-part of a lattice is exactly Z[G/I].

ref_verify_extension_sequence is the extension check as it ran before
it read its two facts off the cosets of I: pi as the left kernel of the
multiplication matrix of N_I, fact (a) as a lattice comparison of a
matrix product, and fact (b) as the Smith form of the coordinates of
the coset indicators in the lattice.  It takes the lattice as an
argument; ref_backward_ideal is backward_rep as it was then, the HNF of
the 2n-row orbit of N_I and #I.

ref_hnf_with_transform, ref_left_kernel, ref_preimage_lattice and
ref_lattice_eq are the transform-carrying elimination intmat kept until
the Tate sweep read both of its kernels mod d off one HNF
(intmat.kernel_mod): an HNF of [A | I] that keeps the whole unimodular
transform, the left kernel as its last rows, the preimage of a lattice
as the domain half of the left kernel of F stacked over -target, put in
HNF again, and equality of two lattices as equality of their HNFs.

ref_mult_matrix, ref_norm_element, ref_translate, ref_delta and ref_one
are the group-ring helpers GroupRing.mult_matrix, GroupRing.norm_element,
GroupRingElem.translate, GroupRing.delta and GroupRing.one, which no
command reached any more: the multiplication matrix of x (row i is x
translated by element i), the sum of a subgroup's elements,
multiplication by one element, the basis element at one element, and
the unit.

ref_lattice_quotient_coords is the exact solve X @ big = small by an
HNF with transform that unit transport used to find its unit modulo
p^M before it exhibited the geometric-sum witness; the references
above and several test helpers solve with it.

RefLattice, ref_backward_rep and ref_verify_unit_transport are the
per-pair rational route the integral backward lattice replaced: the
lattice (nu, 1 - nu phi^{-1}) over Fraction for every Frobenius, and
unit transport between two such lattices by a unit solved for modulo
p^M, with the augmentation repaired by a kernel row.

ref_unit_comparison is the last step unit transport took after its
witness identity, before the identity alone decided a unit row: the
backward lattice, stored as #I L, times W = #I + N_I (u~ - 1) equals
#I (#I L) modulo p^(2 n v_p(#I) + 1), with #I L W spanned by the
basis rows of #I L times M_W.  It cannot fail when aug(u~) is
prime to p, as L is a ring holding w = W / #I and det M_w is then prime
to p.  ref_unit_witness builds the u~ = sum_{t<k} delta(-t phi_a) that
unit transport exhibits for a pair, or None when no k prime to p exists.

ref_verify_unit_on_norm_copy is unit transport as it ran before it
worked in Z[G/I]: k found by a Subgroup.contains search in G, and the
witness identity u~ (1 - phi_a^{-1}) = 1 - phi_b^{-1} checked on
N_I Z[G], a faithful copy of Z[G/I] (x mod I |-> N_I x), by three dense
products in Z[G].  Its k search and u~ are ref_unit_witness.
ref_unit_transport_in_quotient is unit transport as it ran before it
walked the canonical lifts mod I: the two decomposition subgroups
compared by two HNFs (ScopeError when they differ), G/I in Smith
coordinates (abelian.quotient_data), k found on the shift table of a
GroupRing of G/I, and the witness identity checked by one dense product
in Z[G/I].  Its decomposition guard is a ScopeError where the walk
raises UnitNotFoundError; with the guard bypassed its k search refuses
the same pairs.
Both ref_verify_unit_transport and ref_verify_unit_on_norm_copy take G,
as verify_unit_transport does, and build Z[G] themselves.
unit_route_outcome maps a route's answer to True or the name of the
error it raised, so routes can be compared pair by pair.

RefDenseModule is a finite module as the package stored one before it
kept only the monomial form: (+) Z/d_i, relations diag(d), d_i | d_(i+1),
and one integer matrix per group generator, column j reduced mod d_j.
The dense routes below take one, and the subquotients, p-parts and
chi-components they build need not be monomial.  ref_build_module is
FiniteModule.build: Z^n / L moved to Smith coordinates (ref_smith_module)
and validated by matrix identities, with intmat's old mat_pow.
ref_dense views a monomial module of the package densely.

ref_inertia_presentation and ref_inertia_module are the route
inertia_module took before it wrote its module down in closed form: the
HNF of the ideal (a - fbar^-1), a = 1 + #I, in the group ring of the
quotient G/I, with G acting by translation through the quotient, at
rank |G/I|; ref_build_module then moves it to Smith coordinates.

ref_action_matrix is FiniteModule.action_matrix as it was before the
module cached a table of every element's matrix (intmat spelled out):
the product of the generator matrices' powers, unreduced.
ref_chi_idempotent_matrix is chi_idempotent_matrix on a dense module:
an odometer over the powers of the prime-to-p generators, each trace
coefficient, read off chi's values there, times the element's matrix.
The package dropped action_matrix once its Tate route composed
monomials instead.
ref_tate_order is the order of top / bottom for a lattice pair, the
ratio of the two indices, which no route of the package reads.
ref_norm_matrix is the element sum that the dense norm was before it
took the product of geometric sums over the rows of the subgroup's HNF
(ref_geometric_norm_matrix), and ref_find_cyclic_generator the
generator search that tested x by its images under every element of
the group, one HNF of |G| rows each, before it grew the span of x by
the generator matrices alone (ref_pair_cyclic_generator).

ref_dense_tate_cohomology, ref_pair_verdict, ref_pair_cyclic_generator,
ref_pair_coset_representatives, GENERATOR_SEARCH_CAP,
ref_geometric_norm_matrix, ref_actions and ref_kernel_mod are the Tate
route as it ran before cohomology took each module in monomial form and
computed its Tate groups one orbit of coordinates at a time: the lattice
pairs of the whole module from the dense matrices of H's generators
(cached per group element in mats), the norm as a product of geometric
sums of dense matrices, both kernels by kernel_mod with its identity
block unreduced, and the verdict on the whole pair, its cyclicity
decided by a generator sought among the rows of top and then by a walk
over the cosets of a group of order at most GENERATOR_SEARCH_CAP,
larger groups with no generator among the rows of top reported
undecided.  The dense route takes any module, monomial or not.

ref_kernel_identity is the kernel check's index identity as it was
computed before the two principal indices were read off their closed
form: |det M_g| as the HNF index of the n-row orbit of g, and
[Z[G/I] : (gbar)] as the HNF index of the orbit of gbar in a second
ring Z[C_k], k = n/#I, with gbar folded from the coefficients of g.
ref_projection_index is the index [Z[C_n] : (xs)] read in
Z[C_n]/(g) = (Z/M)^e as the kernel check took it on dense group-ring
elements, before it worked on term maps: every x mapped through all n
coefficients and all e of its rotations handed to the HNF, repeated
and zero rows included.

ref_smith_valuations_mod is the elimination smith_valuations ran on
lists of residues, one Python step per entry of every row update,
before it packed each row into one int.

ref_meet is Subgroup.meet, the intersection of two subgroups'
preimage lattices, which the package dropped once monoid took Sylow
p-parts as m S, m the prime-to-p part of #G, instead of S meet G_p.
preimage_lattice has no domain rows any more, so the intersection is
the preimage of b's lattice under a's basis, mapped back by that basis.

ref_subgroup_p_part and ref_is_subset_of are the lattice routes monoid
took to a subgroup's Sylow p-part and to D <= H before it read both off
the subgroups' element bitmasks: the p-part as the HNF of m S, m the
prime-to-p part of #G, and containment as Subgroup.is_subset_of did it,
every row of one stored basis reduced against the other.

ref_factor_cyclotomic_mod_p is the route factor_cyclotomic_mod_p took
before it split Phi_m mod p by its cyclotomic cosets: sympy's
factorization over GF(p), its factors sorted by coefficient tuple.
ref_lifted_cyclotomic_factor starts from it, so the Hensel route to the
root power traces shares no code with the library's factorization.

ref_tate_rows is the tate sweep as the verify command ran it before it
computed each pair's rows once per key (H + I, #(H meet I)): one
inertia module per pair, and for every subgroup H its own Tate groups,
(B, c) and two verdicts, all on the dense route above.  Its (B, c)
comes from ref_prediction_data, the per-row route prediction_data took
before it was keyed: B = I + <frob> + H and c = #I #H / #(I + H), from
the pair and H alone.

ref_tate_modules, ref_module_verdict, ref_module_cyclic_generator and
ref_coset_representatives are the Tate route as it ran before each
Tate group was kept as the lattice pair (top, bottom) it is the
quotient of: tate_cohomology took both groups as
FiniteModule.subquotient of the module (a Smith step per group, in the
group's own coordinates), and prediction_verdict read the order, the
memberships of c e_i and the rows of A_b - 1 in the relation lattice,
and a generator among e_1..e_g, then the residues of diag(d), of that
subquotient.  RefTateModules holds the two subquotients.

ref_pair_sets is the (I, D) route build_pair_sets took before it built
each D once per subgroup: one D = I + <phi> by an HNF for every (I, phi)
pair, a fresh Subgroup each, the distinct pairs found by hashing them
all, and the projection read off that hash.

ref_span_coefficients, ref_snf_diagonal, ref_invariant_factors,
ref_quotient_structure, ref_subgroup_structure,
ref_noncyclic_sylow_primes and ref_is_elementary are the Smith-form
route to a subgroup's invariants that the package took before it read
its predicates off element orders: the invariant factors of S/T as the
Smith form of T's rows in the coordinates of S's basis, those of S as
its quotient by the trivial subgroup, and "elementary" (at most one
noncyclic Sylow) off the invariant factors, the noncyclic Sylow primes
being those of the second largest.

RefMonoidMembership is the membership search of the image monoid as it
ran before it tried only the generators holding the target's lowest
bit: every generator is tried against every target.

ref_subquotient, ref_with_extra_relations, ref_p_part,
ref_chi_component, ref_is_cohomologically_trivial and
ref_triviality_criterion are the triviality route as it ran before
each chi-component was read off one lattice pair of M_p: the p-part
and every chi-component were built as modules, the quotient by p^e
and by (1 - e_chi) taken by a Smith step (FiniteModule.subquotient
and FiniteModule.with_extra_relations), and each component's Tate
groups were taken over every Sylow subgroup of G.
"""

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from math import gcd, lcm, prod

import grlat.intmat as im
from grlat import polys
from grlat.abelian import (
    FinAbGroup,
    GroupElement,
    Subgroup,
    decomposition_subgroup,
    make_group,
    p_split,
    prime_factors,
    quotient_data,
    sylow,
)
from grlat.cli import fmt_elem, fmt_sub
from grlat.cohomology import (
    CriterionReport,
    CriterionRow,
    _block_pairs,
    _predicted_component_triviality,
    _restrict,
    _root_power_traces,
    character_classes,
    complement_generators,
)
from grlat.errors import (
    ContainmentError,
    IdentityCheckError,
    InfiniteModuleError,
    NotFullRankError,
    ParentMismatchError,
    ScopeError,
    UnitNotFoundError,
)
from grlat.grouprings import GroupRingElem, IdealLattice, coordinate_orbit, group_ring, inertia_module
from grlat.lattices import ExtensionReport, KernelReport, backward_rep
from grlat.monoid import DecompositionPair, InertiaPair
from grlat.polys import poly_divmod_monic, trim


def mat_transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def poly_mul(f, g):
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    out[i + j] += a * b
    return trim(out)


def poly_reduce_mod(f, modulus):
    return trim([c % modulus for c in f])


def mult_matrix_mod(f_monic, g):
    """Matrix (rows) of multiplication by g on Z[X]/(f_monic), basis 1..X^{d-1}."""
    d = len(f_monic) - 1
    _, gr = poly_divmod_monic(g, f_monic)
    rows = []
    cur = gr
    for i in range(d):
        rows.append([cur[j] if j < len(cur) else 0 for j in range(d)])
        # multiply by X and reduce
        cur = poly_divmod_monic(trim([0] + list(cur)), f_monic)[1]
    return rows


def ref_det(rows):
    """Bareiss fraction-free determinant."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[i], a[k] = a[k], a[i]
                    sign = -sign
                    break
            else:
                return 0
        akk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            ai, ak = a[i], a[k]
            for j in range(k + 1, n):
                ai[j] = (ai[j] * akk - aik * ak[j]) // prev
            ai[k] = 0
        prev = akk
    return sign * a[n - 1][n - 1]


def ref_resultant_monic(f_monic, g):
    """prod g(alpha) over the roots of monic f, as an exact integer.

    Computed as the determinant of multiplication by g on Z[X]/(f).
    Agrees with the Sylvester resultant up to sign; callers only ever
    use the absolute value or its p-adic valuation.
    """
    if len(f_monic) - 1 == 0:
        return 1
    return ref_det(mult_matrix_mod(f_monic, g))


# -- the Hensel route to root power traces ----------------------------------


def deg(f):
    return len(f) - 1


def poly_add(f, g):
    n = max(len(f), len(g))
    return trim([(f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n)])


def poly_sub(f, g):
    n = max(len(f), len(g))
    return trim([(f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0) for i in range(n)])


def poly_scale(f, c):
    if c == 0:
        return ()
    return trim([c * x for x in f])


def ref_poly_divmod_fp(f, g, p):
    g = poly_reduce_mod(g, p)
    if not g:
        raise ZeroDivisionError("division by zero polynomial")
    inv_lead = pow(g[-1], -1, p)
    r = [c % p for c in f]
    dg = len(g) - 1
    q = [0] * max(0, len(r) - dg)
    for i in range(len(r) - 1, dg - 1, -1):
        c = (r[i] * inv_lead) % p
        if c:
            q[i - dg] = c
            for j in range(dg + 1):
                r[i - dg + j] = (r[i - dg + j] - c * g[j]) % p
    return trim(q), trim(r)


def ref_poly_bezout_fp(f, g, p):
    """(s, t) with s*f + t*g = 1 mod p; requires gcd(f, g) = 1 mod p."""
    a = poly_reduce_mod(f, p)
    b = poly_reduce_mod(g, p)
    s0, s1 = (1,), ()
    t0, t1 = (), (1,)
    while b:
        q, r = ref_poly_divmod_fp(a, b, p)
        a, b = b, r
        s0, s1 = s1, poly_reduce_mod(poly_sub(s0, poly_mul(q, s1)), p)
        t0, t1 = t1, poly_reduce_mod(poly_sub(t0, poly_mul(q, t1)), p)
    if len(a) != 1:
        raise ValueError("polynomials are not coprime mod p")
    inv = pow(a[0], -1, p)
    s = trim([(c * inv) % p for c in s0])
    t = trim([(c * inv) % p for c in t0])
    chk = poly_reduce_mod(poly_add(poly_mul(s, f), poly_mul(t, g)), p)
    if chk != (1,):
        raise IdentityCheckError(f"Bezout coefficients do not combine to 1 mod {p}")
    return s, t


def ref_hensel_lift(f, h0, g0, p, prec):
    """Lift f = h0*g0 (mod p), h0 monic, to f = h*g (mod p^prec).

    Returns (h, g) with h monic of the same degree as h0, h = h0 mod p.
    Uses the linear iteration; every step checks its congruence.
    """
    h0 = poly_reduce_mod(h0, p)
    g0 = poly_reduce_mod(g0, p)
    if not h0 or h0[-1] != 1:
        raise ValueError("h0 must be monic mod p")
    diff = poly_reduce_mod(poly_sub(f, poly_mul(h0, g0)), p)
    if diff:
        raise ValueError("f != h0*g0 mod p")
    s, t = ref_poly_bezout_fp(h0, g0, p)
    h, g = h0, g0
    pk = p
    while pk < p ** prec:
        modulus = pk * p
        # e = (f - h*g) / pk, valid mod p
        fullerr = poly_sub(f, poly_mul(h, g))
        e = trim([(c // pk) % p for c in poly_reduce_mod(fullerr, modulus)])
        # u = t*e mod h0 (keeps h monic, same degree); w = s*e + q*g0
        te = poly_mul(t, e)
        q, u = ref_poly_divmod_fp(te, h0, p)
        w = poly_reduce_mod(poly_add(poly_mul(s, e), poly_mul(q, g0)), p)
        h = poly_reduce_mod(poly_add(h, poly_scale(u, pk)), modulus)
        g = poly_reduce_mod(poly_add(g, poly_scale(w, pk)), modulus)
        pk = modulus
        if len(h) != len(h0) or h[-1] != 1:
            raise IdentityCheckError(f"lifted factor is not monic of degree {deg(h0)} mod {pk}")
        if poly_reduce_mod(poly_sub(f, poly_mul(h, g)), pk):
            raise IdentityCheckError(f"f != h*g mod {pk} after a Hensel step")
    return h, g


def ref_factor_cyclotomic_mod_p(m, p):
    """Monic irreducible factors of the m-th cyclotomic polynomial mod p,
    gcd(m, p) = 1, by sympy, sorted by coefficient tuple."""
    import sympy

    if gcd(m, p) != 1:
        raise ValueError("m must be prime to p")
    x = sympy.symbols("x")
    phi = polys.cyclotomic(m)
    poly = sympy.Poly([int(c) for c in reversed(phi)], x, modulus=p)
    _, factors = poly.factor_list()
    out = []
    for fac, mult in factors:
        if mult != 1:
            raise IdentityCheckError(f"cyclotomic({m}) is not squarefree mod {p}")
        coeffs = [int(c) % p for c in reversed(fac.all_coeffs())]
        out.append(trim(coeffs))
    out.sort()
    if len({len(f) - 1 for f in out}) != 1:
        raise IdentityCheckError(f"factors of cyclotomic({m}) mod {p} differ in degree")
    return out


def ref_lifted_cyclotomic_factor(m, p, prec):
    """A canonical monic factor of the m-th cyclotomic polynomial over
    the p-adics, truncated mod p^prec: the Hensel lift of the lex-least
    irreducible factor mod p.  Exact for m = 1."""
    if m == 1:
        out = (-1, 1)
    else:
        factors = ref_factor_cyclotomic_mod_p(m, p)
        h0 = factors[0]
        if len(factors) == 1:
            out = polys.cyclotomic(m)
        else:
            g0 = (1,)
            for f in factors[1:]:
                g0 = poly_reduce_mod(poly_mul(g0, f), p)
            h, _ = ref_hensel_lift(polys.cyclotomic(m), h0, g0, p, prec)
            out = h
    return out


def ref_root_power_traces(m, p, prec):
    """traces[k] = trace of zeta^k from Z_p[zeta] down to Z_p, mod
    p^prec, for zeta a root of the canonical lifted factor of the m-th
    cyclotomic polynomial; k = 0..m-1."""
    h = ref_lifted_cyclotomic_factor(m, p, prec)
    q = p**prec
    traces = []
    xk = (1,)
    for _ in range(m):
        mat = mult_matrix_mod(h, xk)
        tr = sum(mat[i][i] for i in range(len(mat))) % q
        traces.append(tr)
        xk = poly_mul(xk, (0, 1))
        _, xk = poly_divmod_monic(xk, h)
        xk = poly_reduce_mod(xk, q)
    return traces


# -- the transform-carrying elimination --------------------------------------


def ref_hnf_with_transform(rows, width=None):
    """Return (H, U, pivots) with U unimodular, U @ A = [H; 0].

    U is square of size len(rows); its last rows (beyond len(H)) span the
    left kernel of A.
    """
    rows = [list(r) for r in rows]
    m = len(rows)
    if width is None:
        width = len(rows[0]) if m else 0
    aug = [rows[i] + [1 if j == i else 0 for j in range(m)] for i in range(m)]
    pivots = im._echelon(aug, width)
    h = [aug[i][:width] for i in range(len(pivots))]
    u = [aug[i][width:] for i in range(m)]
    return h, u, pivots


def ref_left_kernel(rows, width=None):
    """Basis (list of rows) of {x : x @ A = 0}."""
    m = len(rows)
    if m == 0:
        return []
    h, u, pivots = ref_hnf_with_transform(rows, width)
    return u[len(pivots) :]


def ref_lattice_eq(a_rows, b_rows):
    return im.hnf(a_rows) == im.hnf(b_rows)


def ref_preimage_lattice(f_matrix, target_rows):
    """Basis of {x in Z^a : x @ F in row span(target)}, for F with a rows:
    the domain half of the left kernel of F stacked over -target."""
    a = len(f_matrix)
    width_target = len(f_matrix[0]) if f_matrix else 0
    stacked = [list(r) for r in f_matrix] + [[-x for x in r] for r in target_rows]
    if not stacked:
        return []
    ker = ref_left_kernel(stacked, width_target)
    out = [k[:a] for k in ker]
    return im.hnf(out, a) if out else []


# -- group-ring matrices, norms and translates --------------------------------


def ref_delta(ring, elem):
    """The basis element of Z[G] at elem."""
    if elem.group != ring.group:
        raise ParentMismatchError("element from a different group")
    c = [0] * ring.n
    c[ring.index_of(elem)] = 1
    return GroupRingElem(ring, tuple(c))


def ref_one(ring):
    """The unit of Z[G], the basis element at 0."""
    return ref_delta(ring, ring.group.zero())


def ref_mult_matrix(ring, x):
    """Rows M with (coeffs of y) @ M = coeffs of y*x."""
    if x.ring is not ring:
        raise ParentMismatchError("element of a different ring")
    # row i is x translated by element i
    return [ring._translated(x.coeffs, i) for i in range(ring.n)]


def ref_norm_element(ring, sub):
    """Sum of the delta elements over a subgroup."""
    if sub.group != ring.group:
        raise ParentMismatchError("subgroup of a different group")
    c = [0] * ring.n
    for e in sub.elements():
        c[ring.index_of(e)] = 1
    return GroupRingElem(ring, tuple(c))


def ref_translate(x, elem):
    """Multiply by delta_elem (a coefficient permutation)."""
    ring = x.ring
    if elem.group != ring.group:
        raise ParentMismatchError("element from a different group")
    return GroupRingElem(ring, tuple(ring._translated(x.coeffs, ring.index_of(elem))))


# -- the exact solve X @ big = small ----------------------------------------


def ref_lattice_quotient_coords(big_rows, small_rows):
    """Coordinates X with X @ big = small, exact; raises ContainmentError."""
    h, u, piv = ref_hnf_with_transform(big_rows)
    coords = []
    for r in small_rows:
        c = ref_span_coefficients(h, piv, r)
        if c is None:
            raise ContainmentError("sublattice not contained in the big lattice")
        coords.append(im.vec_mat(c, u))
    return coords


# -- the meet, p-parts and containment of subgroups -------------------------


def ref_meet(a, b):
    if a.group != b.group:
        raise ParentMismatchError("subgroups of different groups")
    coeffs = ref_preimage_lattice(a.basis, b.basis)
    rows = [im.vec_mat(c, a.basis) for c in coeffs]
    return Subgroup(a.group, im.hnf(rows, a.group.rank))


def ref_join(a, b):
    if a.group != b.group:
        raise ParentMismatchError("subgroups of different groups")
    return Subgroup(a.group, im.hnf([*map(list, a.basis), *map(list, b.basis)]))


def ref_subgroup_p_part(sub, p):
    m = p_split(sub.group.order, p)[1]
    rows = [[m * x for x in b] for b in sub.basis]
    return Subgroup(sub.group, im.hnf(rows, sub.group.rank, sub.group.factors))


def ref_is_subset_of(inner, outer):
    if inner.group != outer.group:
        raise ParentMismatchError("subgroups of different groups")
    return all(im.in_span(outer.basis, range(len(outer.basis)), r) for r in inner.basis)


# -- the preimage fact of the extension check -------------------------------


def ref_preimage_is_standard(ring, inertia, lat):
    """For a lattice lat (stored as #I L), whether the preimage of
    L meet nu Q[G] under multiplication by nu is exactly Z[G/I]: the
    coordinates over the coset indicators of the vectors of lat killed
    by the projection pi of Q[G] with kernel nu Q[G] span Z^[G:I]."""
    basis = [list(r) for r in lat.basis]
    n_i = ref_norm_element(ring, inertia)
    mn = ref_mult_matrix(ring, n_i)
    ker_rows = ref_left_kernel(mat_transpose(mn))
    kcols = mat_transpose(ker_rows)
    bk = im.mat_mul(basis, kcols)
    # a row per coset of I, in any order
    fnum = [
        list(ref_translate(n_i, GroupElement(ring.group, x)).coeffs)
        for x in im.hnf_residues(inertia.basis)
    ]
    nbar = len(fnum)
    coeff_rows = ref_left_kernel(bk)
    w_rows = [im.vec_mat(c, basis) for c in coeff_rows]
    # the rows of fnum are disjoint 0/1 indicators of the cosets of I,
    # covering G, so every rational preimage is already integral
    try:
        pre = ref_lattice_quotient_coords(fnum, w_rows)
    except ContainmentError:
        return False
    return ref_lattice_eq(pre, im.identity(nbar))


def ref_backward_ideal(ring, inertia):
    """The ideal (N_I, #I), spanned by the full orbit of both generators."""
    return IdealLattice.from_elements(
        ring, [ref_norm_element(ring, inertia), ref_one(ring).scale(inertia.order)]
    )


def ref_verify_extension_sequence(ring, inertia, lat):
    """ExtensionReport of the extension check on lat, stored as #I L."""
    n = ring.n
    basis = [list(r) for r in lat.basis]
    n_i = ref_norm_element(ring, inertia)
    # M_{N_I} is symmetric (N_I is I-invariant and I = -I), so its left
    # kernel is the kernel of pi as columns
    kcols = mat_transpose(ref_left_kernel(ref_mult_matrix(ring, n_i)))
    # (a) pi of the stored lattice #I L agrees with #I pi(Z[G])
    bk = im.mat_mul(basis, kcols)
    order = inertia.order
    full_rows = [[order * v for v in row] for row in kcols]
    image_matches = ref_lattice_eq(bk, full_rows)
    # (b) the rows of N_I Z[G], one 0/1 indicator per coset of I in any
    # order, have coordinates in #I L with all Smith invariants 1
    fnum = [
        list(ref_translate(n_i, GroupElement(ring.group, x)).coeffs)
        for x in im.hnf_residues(inertia.basis)
    ]
    coords = [ref_span_coefficients(basis, range(n), row) for row in fnum]
    embedding_primitive = None not in coords and all(
        d == 1 for d in ref_snf_diagonal(coords, n)
    )
    return ExtensionReport(image_matches, embedding_primitive)


# -- the rational route the integral backward lattice replaced ---------------


class RefLattice:
    """The lattice (1/den) * rowspan(basis) inside Q[G]: basis a canonical
    integer row-HNF and gcd(den, content(basis)) = 1, so equal lattices
    have identical (den, basis)."""

    def __init__(self, ring, den, rows):
        h = im.hnf([list(r) for r in rows], ring.n)
        if len(h) != ring.n:
            raise NotFullRankError(f"lattice rank {len(h)} < ring rank {ring.n}")
        g = den
        for r in h:
            for x in r:
                if x:
                    g = gcd(g, x)
        if g > 1:
            den //= g
            h = [[x // g for x in r] for r in h]
        self.ring = ring
        self.den = den
        self.basis = im.frozen(h)

    @classmethod
    def from_elements(cls, ring, elems):
        den, rows = ref_coeffs_to_int_rows(elems)
        return cls(ring, den, [ring._translated(r, j) for r in rows for j in range(ring.n)])

    def multiply_element(self, x):
        den, rows = ref_coeffs_to_int_rows([x])
        m = ref_mult_matrix(self.ring, self.ring.from_coeffs(tuple(rows[0])))
        return RefLattice(self.ring, self.den * den, [im.vec_mat(list(r), m) for r in self.basis])


def ref_coeffs_to_int_rows(elems):
    den = lcm(*(Fraction(c).denominator for e in elems for c in e.coeffs))
    return den, [[int(c * den) for c in e.coeffs] for e in elems]


def ref_backward_rep(ring, inertia, frob):
    """(nu, 1 - nu phi^{-1}) with nu = N_I / #I, over Fraction."""
    nu = ref_norm_element(ring, inertia).scale(Fraction(1, inertia.order))
    w2 = ref_one(ring) - nu * ref_delta(ring, -frob)
    return RefLattice.from_elements(ring, [nu, w2])


def ref_verify_unit_transport(group, inertia, frob_a, frob_b):
    """Unit transport on the rational lattices, compared inside
    (1/common) Z[G] at precision n * v_p(common) + 1."""
    ring = group_ring(group)
    (p,) = prime_factors(group.order)
    if decomposition_subgroup(inertia, frob_a) != decomposition_subgroup(inertia, frob_b):
        raise ScopeError("pairs have different decomposition subgroups")
    lat_a = ref_backward_rep(ring, inertia, frob_a)
    lat_b = ref_backward_rep(ring, inertia, frob_b)
    n = ring.n
    common = lat_a.den * inertia.order
    common = common * lat_b.den // gcd(common, lat_b.den)
    prec = n * p_split(common, p)[0] + 1
    q = p**prec
    qd = quotient_data(group, inertia)
    qring = group_ring(qd.group)
    nbar = qring.n
    tmat = ref_mult_matrix(qring, ref_one(qring) - ref_delta(qring, -qd.proj(frob_a)))
    target = list((ref_one(qring) - ref_delta(qring, -qd.proj(frob_b))).coeffs)
    stacked = [list(r) for r in tmat] + im.diagonal([q] * nbar)
    try:
        sol = ref_lattice_quotient_coords(stacked, [target])[0]
    except ContainmentError:
        raise UnitNotFoundError("no unit carries one coset difference to the other") from None
    u = [c % q for c in sol[:nbar]]
    aug = sum(u) % q
    if aug % p == 0:
        fixed = False
        for row in ref_left_kernel(stacked):
            k = [c % q for c in row[:nbar]]
            ka = sum(k) % q
            if ka % p:
                c = ((1 - aug) * pow(ka, -1, q)) % q
                u = [(a + c * b) % q for a, b in zip(u, k)]
                fixed = True
                break
        if not fixed:
            raise UnitNotFoundError("solution space contains no unit")
    ucoeffs = [0] * n
    for x in im.hnf_residues(inertia.basis):
        rep = GroupElement(group, x)
        ucoeffs[ring.index_of(rep)] = u[qring.index_of(qd.proj(rep))]
    utilde = ring.from_coeffs(tuple(ucoeffs))
    nu = ref_norm_element(ring, inertia).scale(Fraction(1, inertia.order))
    w = ref_one(ring) + nu * (utilde - ref_one(ring))
    transported = lat_a.multiply_element(w)
    rows_a = [[v * (common // transported.den) for v in row] for row in transported.basis]
    rows_b = [[v * (common // lat_b.den) for v in row] for row in lat_b.basis]
    mod_rows = im.diagonal([q] * n)
    return ref_lattice_eq(rows_a + mod_rows, rows_b + mod_rows)


# -- the comparison a unit row made after its witness -------------------------


def ref_unit_witness(ring, inertia, frob_a, frob_b):
    """u~ = sum_{t<k} delta(-t phi_a) for the least k >= 1 with
    k phi_a = phi_b mod I, or None when there is none or p | k."""
    (p,) = prime_factors(ring.n)
    k = next(
        (k for k in range(1, frob_a.order() + 1) if inertia.contains(frob_a.scale(k) - frob_b)),
        None,
    )
    if k is None or k % p == 0:
        return None
    ucoeffs = [0] * ring.n
    for t in range(k):
        ucoeffs[ring.index_of(frob_a.scale(-t))] += 1
    return ring.from_coeffs(ucoeffs)


def ref_verify_unit_on_norm_copy(group, inertia, frob_a, frob_b):
    """The witness identity on N_I Z[G], after the guards of unit transport."""
    ring = group_ring(group)
    ps = sorted(prime_factors(group.order))
    if len(ps) != 1:
        raise ScopeError("unit transport needs a nontrivial p-group")
    dec_a = decomposition_subgroup(inertia, frob_a)
    dec_b = decomposition_subgroup(inertia, frob_b)
    if dec_a != dec_b:
        raise ScopeError("pairs have different decomposition subgroups")
    utilde = ref_unit_witness(ring, inertia, frob_a, frob_b)
    if utilde is None:
        raise UnitNotFoundError("no unit carries one coset difference to the other")
    n_i = ref_norm_element(ring, inertia)
    one = ref_one(ring)
    if n_i * (utilde * (one - ref_delta(ring, -frob_a))) != n_i * (one - ref_delta(ring, -frob_b)):
        raise UnitNotFoundError("the witness does not carry one coset difference to the other")
    return True


def ref_unit_transport_in_quotient(group, inertia, frob_a, frob_b):
    """Unit transport with k read off the images of phi_a and phi_b in
    G/I and the witness identity checked by one dense product in
    Z[G/I], after comparing the two decomposition subgroups."""
    ps = sorted(prime_factors(group.order))
    if len(ps) != 1:
        raise ScopeError("unit transport needs a nontrivial p-group")
    p = ps[0]
    dec_a = decomposition_subgroup(inertia, frob_a)
    dec_b = decomposition_subgroup(inertia, frob_b)
    if dec_a != dec_b:
        raise ScopeError("pairs have different decomposition subgroups")
    quot = quotient_data(group, inertia)
    qring = group_ring(quot.group)
    bar_a, bar_b = quot.proj(frob_a), quot.proj(frob_b)
    # k bar_a runs through <bar_a> back to 0 (index 0), one addition per
    # step on element indices: shift(j)[i] is the index of i + j
    plus, minus = (qring.shift(qring.index_of(x)) for x in (bar_a, -bar_a))
    k, j, target = 1, plus[0], qring.index_of(bar_b)
    while j != target and j:
        k, j = k + 1, plus[j]
    if j != target or k % p == 0:
        raise UnitNotFoundError("no unit carries one coset difference to the other")
    ucoeffs, j = [0] * qring.n, 0
    for _ in range(k):
        ucoeffs[j], j = 1, minus[j]
    one = ref_one(qring)
    # the two-term factor on the left: __mul__ walks its left nonzeros
    if (one - ref_delta(qring, -bar_a)) * qring.from_coeffs(ucoeffs) != one - ref_delta(qring, -bar_b):
        raise UnitNotFoundError("the witness does not carry one coset difference to the other")
    return True


def unit_route_outcome(check, *args):
    try:
        return check(*args)
    except (ScopeError, UnitNotFoundError) as err:
        return type(err).__name__


def ref_unit_comparison(ring, inertia, utilde):
    """Whether the backward lattice L of I equals L w, w = 1 + nu (u~ - 1),
    modulo p^(2 n v_p(#I) + 1)."""
    (p,) = prime_factors(ring.n)
    one = ref_one(ring)
    n_i = ref_norm_element(ring, inertia)
    # the multiplier W = #I w = #I + N_I (u~ - 1); compare
    # #I^2 L w = (#I L) W with #I^2 L = #I (#I L), from the stored #I L
    lat = backward_rep(ring, inertia)
    n = ring.n
    q = p ** (2 * n * p_split(inertia.order, p)[0] + 1)
    order = inertia.order
    w = one.scale(order) + n_i * (utilde - one)
    m = ref_mult_matrix(ring, w)
    rows_a = [im.vec_mat(list(r), m) for r in lat.basis]
    rows_b = [[order * v for v in row] for row in lat.basis]
    mod_rows = im.diagonal([q] * n)
    return ref_lattice_eq(rows_a + mod_rows, rows_b + mod_rows)


# -- the orbit route to an inertia module ------------------------------------


def ref_inertia_presentation(inertia, frob):
    """(relations, actions) of Z[G/I] / (a - fbar^-1) at rank |G/I|: the
    HNF of the orbit of a - fbar^-1 and the translation matrices of the
    images of G's generators."""
    group = inertia.group
    qd = quotient_data(group, inertia)
    qring = group_ring(qd.group)
    tau = ref_one(qring).scale(1 + inertia.order) - ref_delta(qring, -qd.proj(frob))
    rel = IdealLattice.from_elements(qring, [tau])
    actions = [ref_mult_matrix(qring, ref_delta(qring, qd.proj(g))) for g in group.generators()]
    return [list(r) for r in rel.basis], actions


def ref_inertia_module(inertia, frob):
    return ref_build_module(inertia.group, *ref_inertia_presentation(inertia, frob))


# -- dense modules in Smith coordinates ------------------------------------------


def mat_pow(a, k):
    result = im.identity(len(a))
    while k:
        if k & 1:
            result = im.mat_mul(result, a)
        k >>= 1
        if k:
            a = im.mat_mul(a, a)
    return result


@dataclass(frozen=True)
class RefDenseModule:
    group: FinAbGroup
    rank: int
    relations: tuple
    gen_actions: tuple

    @property
    def order(self) -> int:
        return im.hnf_index(self.relations)

    def invariants(self) -> tuple:
        return tuple(r[i] for i, r in enumerate(self.relations))

    def exponent(self) -> int:
        return max(self.invariants(), default=1)


def ref_smith_module(group, n, relations, gen_actions):
    """Z^n / L in intmat.smith_coordinates (d, P, Q); L A <= L, A -> Q A P."""
    coords = im.smith_coordinates(relations, n)
    if coords is None:
        raise InfiniteModuleError(f"relation lattice has rank < {n}; module is infinite")
    d, p, q = coords
    actions = []
    for gi, a in enumerate(gen_actions):
        ap = im.mat_mul(a, p)
        # x lies in L exactly when x P = 0 mod d; column j is read mod d_j
        if any(x % m for r in relations for x, m in zip(im.vec_mat(r, ap), d)):
            raise ContainmentError(f"relations not stable under generator {gi}")
        actions.append(im.frozen([[x % m for x, m in zip(row, d)] for row in im.mat_mul(q, ap)]))
    return RefDenseModule(group, len(d), im.frozen(im.diagonal(d)), tuple(actions))


def ref_build_module(group, relations, gen_actions):
    """ref_smith_module of Z^n / L, validated: each generator has order
    dividing its group factor, and the generators commute, column j
    compared mod d_j."""
    n = len(gen_actions[0]) if gen_actions else (len(relations[0]) if relations else 0)
    mod = ref_smith_module(group, n, relations, gen_actions)
    d, gens = mod.invariants(), mod.gen_actions

    def vanishes(a, b):
        return not any((x - y) % m for ra, rb in zip(a, b) for x, y, m in zip(ra, rb, d))

    for gi, (a, order) in enumerate(zip(gens, group.factors)):
        if not vanishes(mat_pow(a, order), im.identity(mod.rank)):
            raise ContainmentError(f"generator {gi} does not have order dividing {order} on the module")
    if not all(vanishes(im.mat_mul(a, b), im.mat_mul(b, a)) for i, a in enumerate(gens) for b in gens[i + 1 :]):
        raise ContainmentError("generator actions do not commute on the module")
    return mod


def ref_dense(module):
    """A monomial module of the package as a RefDenseModule."""
    n, m = module.rank, module.modulus
    actions = tuple(
        im.frozen([[u * (k == j) for k in range(n)] for j, u in zip(perm, units)]) for perm, units in module.gens
    )
    return RefDenseModule(module.group, n, im.frozen(im.diagonal([m] * n)), actions)


# -- the tate sweep, one row at a time ----------------------------------------


def ref_prediction_data(group, inertia, frob, sub):
    if inertia.group != group or frob.group != group or sub.group != group:
        raise ParentMismatchError("inputs from a different group")
    big = ref_join(decomposition_subgroup(inertia, frob), sub)
    return big, inertia.order * sub.order // ref_join(inertia, sub).order


def ref_tate_rows(fam):
    group = fam.group
    rows = []
    for pair in fam.stilde:
        mod = ref_dense(inertia_module(pair.inertia, pair.frob))
        for h in fam.subgroups:
            t = ref_dense_tate_cohomology(mod, h)
            big, c = ref_prediction_data(group, pair.inertia, pair.frob, h)
            statuses = [ref_pair_verdict(mod, side, big, c) for side in (t.h0, t.hminus1)]
            status = "pass" if statuses == ["pass", "pass"] else ";".join(statuses)
            rows.append(
                ["tate", fmt_sub(pair.inertia), fmt_elem(pair.frob), fmt_sub(h), status]
            )
    return rows


# -- the tate verdict read off the lattice pairs of the orbit of 0 -------------


def ref_block_verdict(pair, gens, c, m):
    """'pass' if X = top / bottom is Z/c with trivial action of the
    generators whose monomials on the pair's coordinates are gens: it
    has order c, each r (A_b - 1) lies in bottom, and X / qX has order q
    for each prime q | c, so every Sylow subgroup of X is cyclic."""
    top, bottom = pair
    index = im.hnf_index(top)
    if im.hnf_index(bottom) != c * index:
        return "fail"
    pivots = range(len(top))
    for perm, units in gens:
        for row in top:
            # row (A_b - 1)
            moved = [-x for x in row]
            for x, j, u in zip(row, perm, units):
                moved[j] += x * u
            if not im.in_span(bottom, pivots, moved):
                return "fail"
    mods = [m] * len(top)
    for q in prime_factors(c):
        if im.index_mod([*bottom, *([q * x for x in row] for row in top)], mods) != q * index:
            return "fail"
    return "pass"


def ref_orbit_verdict(module, sub, big, c):
    """The verdicts of H^0 and H^-1 of a monomial module over sub = H
    against (Z/c)[G/B], big = B, read off the lattice pairs of the
    H-orbit of coordinate 0 alone by three exact tests: order c, B
    acting trivially, and X / qX of order q for each prime q | c.  They
    decide the whole Tate groups when G joins every coordinate to 0 and
    B is the stabiliser of the orbit, as B = D + H is for an inertia
    module; otherwise ScopeError."""
    group, m = module.group, module.modulus
    if sub.group != group or big.group != group:
        raise ParentMismatchError("subgroup of a different group")
    monos, steps = [], []
    for j, (row, factor) in enumerate(zip(sub.basis, group.factors)):
        elem = group.element(row)
        if not elem.is_zero:
            monos.append(module.act(elem))
            if factor > row[j]:
                steps.append((monos[-1], factor // row[j]))
    coords = coordinate_orbit(monos, 0) if module.rank else []
    bs = [module.act(b) for b in big.generators()]
    if (
        not module.transitive
        or len(coords) * (group.order // big.order) != module.rank
        or any(perm[t] not in coords for perm, _ in bs for t in coords[:1])
    ):
        raise ScopeError("the orbit's stabiliser is not B, or G does not join the coordinates")
    gens = [_restrict(b, coords) for b in bs]
    pairs = _block_pairs(monos, steps, coords, m)
    return tuple(ref_block_verdict(pair, gens, c, m) for pair in pairs)


# -- Tate groups of the whole module by dense matrices -------------------------


def ref_kernel_mod(rows, mods):
    """Canonical HNF of {x in Z^a : x F = 0 mod mods[j] in column j}, for
    F = rows, a rows of len(mods) entries, every mod >= 1.

    One HNF of [F | I_a] taken mod mods in the F block, the span of
    [F | I_a ; diag(mods) | 0]: its rows whose F part is zero span
    exactly the (0, x) in that span, so their trailing blocks are the
    kernel's canonical HNF (Cohen, GTM 138, 2.4)."""
    b = len(mods)
    mat = [list(r) + e for r, e in zip(rows, im.identity(len(rows)))]
    return [r[b:] for r in im.hnf(mat, b + len(rows), mods) if not any(r[:b])]


RefTatePairs = namedtuple("RefTatePairs", "h0 hminus1")


def ref_actions(module, elems, mats):
    """The matrices of elems on module, read from mats (group element ->
    matrix) and stored there when missing."""
    out = []
    for h in elems:
        a = mats.get(h)
        if a is None:
            a = mats[h] = ref_action_matrix(module, h)
        out.append(a)
    return out


def ref_geometric_norm_matrix(module, sub, mats):
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


def ref_dense_tate_cohomology(module, sub, mats=None):
    """Both Tate groups of any module over sub as lattice pairs of the
    whole module, from the dense matrices of sub's generators and the
    product form of the norm; mats, when given, caches the matrix of
    each group element and is shared with other calls on the module."""
    if sub.group != module.group:
        raise ParentMismatchError("subgroup of a different group")
    if mats is None:
        mats = {}
    n = module.rank
    # A_h - 1 for the generators h of sub
    diffs = [
        [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(a)]
        for a in ref_actions(module, sub.generators(), mats)
    ]
    mods = module.invariants()
    # invariants: x with x(A_h - 1) = 0 mod d for every h, one kernel with
    # the maps side by side
    side = [[x for d in diffs for x in d[i]] for i in range(n)]
    inv = ref_kernel_mod(side, mods * len(diffs))
    nm = ref_geometric_norm_matrix(module, sub, mats)
    # the relations are diag(d), taken as the moduli of both images
    norm_image = im.hnf(nm, n, mods)
    # norm kernel: x with x N = 0 mod d
    ker = ref_kernel_mod(nm, mods)
    aug = im.hnf([row for d in diffs for row in d], n, mods)
    return RefTatePairs((inv, norm_image), (ker, aug))


# Past this order a Tate group is not walked coset by coset: without a
# generator among the rows of top its comparison is reported undecided.
GENERATOR_SEARCH_CAP = 30_000


def ref_pair_coset_representatives(pair):
    """An iterator over representatives of the cosets of top / bottom,
    or None past GENERATOR_SEARCH_CAP.

    In the basis top, bottom has a triangular basis with diagonal
    m_i = bottom[i][i] / top[i][i], so the sums of k_i top_i with
    0 <= k_i < m_i, first coordinate fastest, are one per coset: for
    (identity, diag(d)) the residues of diag(d)."""
    if ref_tate_order(pair) > GENERATOR_SEARCH_CAP:
        return None
    top, bottom = pair
    steps = im.diagonal([b[i] // t[i] for i, (t, b) in enumerate(zip(top, bottom))])
    return (tuple(im.vec_mat(k, top)) for k in im.hnf_residues(steps))


def ref_pair_cyclic_generator(module, pair):
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
    if ref_tate_order(pair) == 1:
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
    reps = ref_pair_coset_representatives(pair)
    if reps is None:
        return None, False
    return next(filter(generates, reps), None), True


def ref_pair_verdict(module, pair, big, c, mats=None):
    """'pass' if top / bottom, for a lattice pair of the whole module, is
    isomorphic to (Z/c)[G/B] = Z[G]/J with J = (c, b - 1 : b in B), 'fail'
    if it is not, and 'undecided' for a group too large to walk that has
    no generator among the rows of top.  mats is as in
    ref_dense_tate_cohomology.

    top / bottom is isomorphic to Z[G]/J exactly when it has order
    c^[G:B], J annihilates it, and it is cyclic: a generator x gives
    Z[G]/Ann(x), Ann(x) = Ann(top / bottom) contains J, and the orders
    force equality.  J annihilates it when c r and r (A_b - 1) lie in
    bottom for every row r of top and every generator b of B."""
    group = module.group
    if big.group != group:
        raise ParentMismatchError("subgroup of a different group")
    if ref_tate_order(pair) != c ** (group.order // big.order):
        return "fail"
    top, bottom = pair
    pivots = range(module.rank)
    if not all(im.in_span(bottom, pivots, [c * x for x in r]) for r in top):
        return "fail"
    for a in ref_actions(module, big.generators(), {} if mats is None else mats):
        for r in top:
            if not im.in_span(bottom, pivots, [x - y for x, y in zip(im.vec_mat(r, a), r)]):
                return "fail"
    x, searched_all = ref_pair_cyclic_generator(module, pair)
    if x is not None:
        return "pass"
    return "fail" if searched_all else "undecided"


# -- element matrices, norms and generators over the whole group --------------


def ref_tate_order(pair):
    """#(top / bottom) for square full-rank HNFs bottom <= top: the
    ratio of their indices in Z^g."""
    top, bottom = pair
    return im.hnf_index(bottom) // im.hnf_index(top)


def ref_action_matrix(self, elem):
    if elem.group != self.group:
        raise ParentMismatchError("element of a different group")
    out = im.identity(self.rank)
    for c, a in zip(elem.coords, self.gen_actions):
        if c:
            out = im.mat_mul(out, mat_pow([list(r) for r in a], c))
    return out


def ref_norm_matrix(module, sub):
    """Matrix of the sum of the actions of all elements of sub."""
    mats = [ref_action_matrix(module, e) for e in sub.elements()]
    return [[sum(col) for col in zip(*rows)] for rows in zip(*mats)]


def ref_find_cyclic_generator(module):
    n = module.rank
    if module.order == 1:
        return [0] * n, True
    rel = [list(r) for r in module.relations]
    reps = ref_coset_representatives(module)
    actions = [ref_action_matrix(module, e) for e in module.group.elements()]
    for x in chain(im.identity(n), reps or ()):
        h = im.hnf([im.vec_mat(x, a) for a in actions] + rel, n)
        if len(h) == n and all(h[i][i] == 1 for i in range(n)):
            return x, True
    return None, reps is not None


# -- Tate groups as modules ------------------------------------------------------


RefTateModules = namedtuple("RefTateModules", "h0 hminus1")


def ref_tate_modules(module, sub):
    if sub.group != module.group:
        raise ParentMismatchError("subgroup of a different group")
    n = module.rank
    # A_h for the generators h of sub, each built once for both Tate groups
    mats = {h: ref_action_matrix(module, h) for h in sub.generators()}
    # A_h - 1
    diffs = [
        [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(a)]
        for a in mats.values()
    ]
    mods = module.invariants()
    # invariants: x with x(A_h - 1) = 0 mod d for every h, one kernel with
    # the maps side by side
    side = [[x for d in diffs for x in d[i]] for i in range(n)]
    inv = ref_kernel_mod(side, mods * len(diffs))
    nm = ref_geometric_norm_matrix(module, sub, mats)
    # the relations are diag(d), taken as the moduli of both images
    norm_image = im.hnf(nm, n, mods)
    h0 = ref_subquotient(module, inv, norm_image)

    # norm kernel: x with x N = 0 mod d
    ker = ref_kernel_mod(nm, mods)
    aug = im.hnf([row for d in diffs for row in d], n, mods)
    hm1 = ref_subquotient(module, ker, aug)
    return RefTateModules(h0, hm1)


def ref_coset_representatives(module):
    if module.order > GENERATOR_SEARCH_CAP:
        return None
    return im.hnf_residues(module.relations)


def ref_module_cyclic_generator(module):
    n = module.rank
    if module.order == 1:
        return [0] * n, True
    # the relations are diag(d): every span is taken mod d
    mods = module.invariants()
    reps = ref_coset_representatives(module)
    for x in chain(im.identity(n), reps or ()):
        span, last = im.hnf([x], n, mods), None
        while span != last and im.hnf_index(span) > 1:
            last = span
            span = im.hnf(span + [im.vec_mat(r, a) for a in module.gen_actions for r in span], n, mods)
        if im.hnf_index(span) == 1:
            return x, True
    return None, reps is not None


def ref_module_verdict(module, big, c):
    group = module.group
    if big.group != group:
        raise ParentMismatchError("subgroup of a different group")
    if module.order != c ** (group.order // big.order):
        return "fail"
    n = module.rank
    # J annihilates M: the rows of c and of A_b - 1 lie in the relations
    j_rows = im.diagonal([c] * n)
    for b in big.generators():
        a = ref_action_matrix(module, b)
        j_rows += [[a[i][j] - (i == j) for j in range(n)] for i in range(n)]
    if not all(im.in_span(module.relations, range(n), r) for r in j_rows):
        return "fail"
    x, searched_all = ref_module_cyclic_generator(module)
    if x is not None:
        return "pass"
    return "fail" if searched_all else "undecided"


# -- chi-components as modules -------------------------------------------------


def ref_subquotient(module, big, small):
    """big / small for stable lattices relations <= small <= big of
    Z^rank, big a full-rank square HNF: coordinates by reduction
    against big, then the Smith step.  Not validated again: the
    induced action keeps the identities this module's action has."""
    k = len(big)

    def coords(v):
        c = ref_span_coefficients(big, range(k), v)
        if c is None:
            raise ContainmentError("sublattice not contained in the big lattice")
        return c
    actions = [[coords(im.vec_mat(r, a)) for r in big] for a in module.gen_actions]
    return ref_smith_module(module.group, k, [coords(r) for r in small], actions)


def ref_with_extra_relations(module, extra_rows):
    rows = [list(r) for r in module.relations] + [list(r) for r in extra_rows]
    return ref_subquotient(module, im.identity(module.rank), rows)


def ref_is_cohomologically_trivial(module):
    """Nakayama test: both Tate groups vanish for every Sylow subgroup."""
    if module.order == 1:
        return True
    for q in prime_factors(module.group.order):
        t = ref_dense_tate_cohomology(module, sylow(module.group, q))
        if ref_tate_order(t.h0) != 1 or ref_tate_order(t.hminus1) != 1:
            return False
    return True


def ref_p_part(module, p):
    """The p-primary part, presented as a quotient of the same Z^g.

    Quotienting by p^e M (p^e the p-part of the exponent) kills every
    q-primary part for q != p, where p^e is invertible, and fixes the
    p-part, which p^e annihilates.
    """
    e, rest = p_split(module.exponent(), p)
    if rest == 1:
        return module
    return ref_with_extra_relations(module, im.diagonal([p**e] * module.rank))


def ref_chi_component(module, chi):
    """The direct summand of a p-primary module cut out by the
    conjugacy-class idempotent of chi, presented as the quotient of the
    module by (1 - e_chi).

    Exact, as the idempotent is taken mod the module exponent p^e."""
    p = chi.p
    e, rest = p_split(module.exponent(), p)
    if rest != 1:
        raise ScopeError("module is not p-primary; take its p-part first")
    if e == 0:
        return module
    ep = ref_chi_idempotent_matrix(module, chi, e)
    extra = [[(i == j) - x for j, x in enumerate(row)] for i, row in enumerate(ep)]
    return ref_with_extra_relations(module, extra)


def ref_chi_idempotent_matrix(module, chi, prec):
    p, q, m, group = chi.p, chi.p**prec, chi.order, module.group
    gens = complement_generators(group, p)
    orders = tuple(mj for _, _, mj in gens)
    if orders != chi.gen_orders:
        raise ParentMismatchError("character domain does not match group")
    inv_size = pow(prod(orders) % q, -1, q) if q > 1 else 0
    traces = _root_power_traces(m, p, prec)
    cexp = [b * m // mj % m for b, mj in zip(chi.values, orders)]  # chi(gens[i]) = zeta_m ^ cexp[i]
    out = im.zeros(module.rank, module.rank)
    for ys in product(*map(range, orders)):
        coords = [0] * group.rank
        for (j, s, _), y in zip(gens, ys):
            coords[j] = s * y
        coeff = traces[-sum(y * c for y, c in zip(ys, cexp)) % m] * inv_size % q
        act = ref_action_matrix(module, group.element(tuple(coords)))
        out = [[(x + coeff * a) % q for x, a in zip(row, arow)] for row, arow in zip(out, act)]
    return out


def ref_triviality_criterion(module, inertia, frob, p):
    group = module.group
    if inertia.group != group or frob.group != group:
        raise ParentMismatchError("inputs from a different group")
    mp = ref_p_part(module, p)
    gens, dec = complement_generators(group, p), decomposition_subgroup(inertia, frob)
    rows = []
    for chi in character_classes(group, p):
        comp = ref_chi_component(mp, chi)
        lhs = ref_is_cohomologically_trivial(comp)
        rhs = _predicted_component_triviality(gens, inertia, dec, p, chi)
        rows.append(CriterionRow(chi, lhs, rhs))
    return CriterionReport(tuple(rows), all(r.agree for r in rows))


# -- the kernel identity by three HNF indices ----------------------------------


def ref_kernel_identity(ring, inertia, g, claimed, projection):
    t_minus_1 = ref_delta(ring, ring.group.element(inertia.basis[0])) - ref_one(ring)
    contained = all(not any((x * t_minus_1 + y * g).coeffs) for x, y in claimed)
    det_g = IdealLattice.from_elements(ring, [g]).integral_index()
    # I is the subgroup of the indices divisible by k = n/#I, so G -> G/I
    # is reduction mod k and gbar folds the coefficients of g
    k = ring.n // inertia.order
    qring = group_ring(make_group([k]))
    gbar = qring.from_coeffs(sum(g.coeffs[c::k]) for c in range(k))
    quotient_index = IdealLattice.from_elements(qring, [gbar]).integral_index()
    projection_matches = projection.integral_index() * quotient_index == det_g
    return KernelReport(contained and projection_matches, projection_matches)


def ref_projection_index(xs, a: int, ell: int, n: int) -> int:
    """[Z[C_n] : (xs)] for elements xs of Z[C_n] one of which is
    g = a - sigma^{-ell}, a >= 2: the index of their image in
    Z[C_n]/(g) = (Z/M)^e, e = gcd(ell, n), M = a^{n/e} - 1 (module
    docstring).  e_j maps to a^t f_c with c = j mod e and
    t = -(j // e) (ell/e)^{-1} mod n/e, so each x is mapped through its
    nonzero coefficients; sigma shifts f_c to f_{c+1} and f_{e-1} to
    a^{t_e} f_0, and the images of x sigma^s for s < e with M Z^e span
    the image, as sigma^e acts as the scalar a^{t_e}."""
    e = gcd(ell, n)
    f = n // e
    m = a**f - 1
    step = pow(ell // e, -1, f)
    twist = pow(a, -step % f, m)
    rows = []
    for x in xs:
        v = [0] * e
        for j, c in enumerate(x.coeffs):
            if c:
                v[j % e] += c * pow(a, -(j // e) * step % f, m)
        v = [c % m for c in v]
        rows.append(v)
        for _ in range(e - 1):
            v = [twist * v[-1] % m, *v[:-1]]
            rows.append(v)
    return im.hnf_index(im.hnf(rows + im.diagonal([m] * e), e))


# -- Smith valuations by elimination on lists of residues ----------------------


def ref_smith_valuations_mod(rows, width, p, k):
    """The e_i of smith_valuations when all are < k, else None.

    The working rows hold the remaining block divided by p^shift, where
    p^shift is its least valuation, so they live mod p^(k - shift) and a
    pivot is any entry prime to p.  Clearing the pivot's column by row
    moves leaves the pivot row as the only one touched by the column
    moves that would clear it, so that row and column are dropped."""
    q = p**k
    a = [[x % q for x in r] for r in rows]
    vals = []
    shift = 0
    while len(vals) < width:
        piv = next(((i, j) for i, r in enumerate(a) for j, x in enumerate(r) if x % p), None)
        if piv is None:
            shift += 1
            if shift == k:
                return None
            q //= p
            a = [[x // p for x in r] for r in a]
            continue
        i, j = piv
        prow = a.pop(i)
        inv = pow(prow[j], -1, q)
        prow = [x * inv % q for x in prow]
        rest = []
        for r in a:
            f = r[j]
            if f:
                r = [(x - f * y) % q for x, y in zip(r, prow)]
            del r[j]
            if any(r):
                rest.append(r)
        a = rest
        vals.append(shift)
    return vals


# -- (I, D) pairs, one decomposition subgroup per (I, phi) ---------------------


def ref_pair_sets(group, inertias):
    """(stilde, s_pairs, projection) of a group whose nontrivial
    elementary subgroups are inertias.

    Every D with D/I cyclic is I + <phi> for a phi whose image generates
    D/I, so the (I, D) pairs are the images of the (I, phi) pairs: each
    D is built once, from its (I, phi), and no pair is tested."""
    # the residues of I's basis are the canonical lifts of G/I
    stilde = sorted(
        (
            InertiaPair(inertia, GroupElement(group, x))
            for inertia in inertias
            for x in im.hnf_residues(inertia.basis)
        ),
        key=lambda pr: (pr.inertia.basis, pr.frob.coords),
    )
    images = [
        DecompositionPair(pr.inertia, decomposition_subgroup(pr.inertia, pr.frob))
        for pr in stilde
    ]
    s_pairs = tuple(sorted(set(images), key=DecompositionPair.sort_key))
    s_index = {pr: i for i, pr in enumerate(s_pairs)}
    return tuple(stilde), s_pairs, tuple(s_index[pr] for pr in images)


# -- subgroup invariants by Smith forms ----------------------------------------


def ref_span_coefficients(hrows, pivots, v):
    coeffs, rem = im.reduce_against(hrows, pivots, v)
    if any(rem):
        return None
    return coeffs


def ref_snf_diagonal(rows, width=None):
    diag, _, _ = im.snf_with_transform(rows, width)
    return diag


def ref_invariant_factors(rows, width=None):
    """Positive Smith invariants > 1 of coker (Z^width / row span)."""
    return tuple(d for d in ref_snf_diagonal(rows, width) if d > 1)


def ref_quotient_structure(big, small):
    """Invariant factors of big/small: the Smith form of small's rows in
    the coordinates of big's basis, or None when small is not inside
    big."""
    if big.group != small.group:
        raise ParentMismatchError("subgroups of different groups")
    k = big.group.rank
    coords = [ref_span_coefficients(big.basis, range(k), r) for r in small.basis]
    if None in coords:
        return None
    return ref_invariant_factors(coords, k)


def ref_subgroup_structure(sub):
    """Invariant factors of sub as an abstract group: its quotient by the
    trivial subgroup, whose rows d_i e_i it must contain."""
    out = ref_quotient_structure(sub, Subgroup.trivial(sub.group))
    if out is None:
        raise ContainmentError(f"basis of {sub!r} does not contain the relations")
    return out


def ref_noncyclic_sylow_primes(factors):
    """Primes p whose p-Sylow is noncyclic: those dividing d_{k-1}."""
    if len(factors) < 2:
        return frozenset()
    return frozenset(prime_factors(factors[-2]))


def ref_is_elementary(factors):
    """True when at most one Sylow subgroup is noncyclic (trivial group: True)."""
    if not factors:
        return True
    return len(ref_noncyclic_sylow_primes(factors)) <= 1


# -- the membership search over every generator ---------------------------------


class RefMonoidMembership:
    """Decides membership in the monoid generated by 0/1 generator
    vectors, by depth-first search over dominated generator subtractions
    with a shared memo.

    Vectors are bitmasks, as _beta_values builds them: g <= v is
    g & v == g, and v - g is v ^ g.  A dominated 0/1 vector subtracted
    from a 0/1 vector leaves a 0/1 vector, so the search never leaves
    bitmasks.  Whether a vector is a sum of generators does not depend
    on the order they are tried in.
    """

    def __init__(self, generators):
        self.gens = sorted(set(generators) - {0}, reverse=True)
        self.memo = {}

    def _contains(self, v: int) -> bool:
        if not v:
            return True
        if v in self.memo:
            return self.memo[v]
        self.memo[v] = False  # cuts cycles; sums only shrink, so safe
        out = False
        for g in self.gens:
            if g & v == g and self._contains(v ^ g):
                out = True
                break
        self.memo[v] = out
        return out

    def decomposable(self, v: int) -> bool:
        """v = a + b with both parts nonzero members."""
        for g in self.gens:
            if g & v == g:
                rest = v ^ g
                if rest and self._contains(rest):
                    return True
        return False
