"""Group ring arithmetic, ideal lattices, finite module presentations.

The ideal-index test uses the classical character-product oracle: over
a cyclic group of order n the index of the principal ideal (x) equals
|Res(X^n - 1, f_x)|, computed independently by sympy.

The differential tests check the index arithmetic (shift permutations)
against a reference built from GroupElement addition and subtraction:
the difference table sub[k][i] = index of elems[k] - elems[i].
"""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import Poly, resultant
from sympy.abc import X

from grlat import intmat
from grlat.abelian import Subgroup, decomposition_subgroup, make_group, prime_factors
from grlat.cohomology import p_part
from grlat.errors import (
    CapacityError,
    ContainmentError,
    InfiniteModuleError,
    NotFullRankError,
    ParentMismatchError,
)
from grlat.grouprings import (
    RING_ORDER_CAP,
    FiniteModule,
    GroupRing,
    IdealLattice,
    check_ring_order,
    _induced_actions,
    group_ring,
    inertia_module,
)
from grlat.monoid import build_pair_sets, build_sets
from reference import (
    ref_action_matrix,
    ref_build_module,
    ref_delta,
    ref_dense,
    ref_det,
    ref_mult_matrix,
    ref_norm_element,
    ref_one,
    ref_subquotient,
    ref_translate,
)


def ring_of(factors):
    return GroupRing(make_group(factors))


def test_delta_multiplication_is_translation():
    # Z/2 x Z/3 is Z/6; (1, 2) and (1, 1) are 5 and 1 by CRT
    r = ring_of([2, 3])
    g = r.group.element((5,))
    h = r.group.element((1,))
    assert ref_delta(r, g) * ref_delta(r, h) == ref_delta(r, g + h)


def test_norm_element_identities():
    r = ring_of([12])
    sub = Subgroup.from_generators(r.group, [r.group.element((4,))])
    n = ref_norm_element(r, sub)
    assert sum(n.coeffs) == sub.order
    for tau in sub.elements():
        # N_I * (1 - tau) = 0
        assert not any((n * (ref_one(r) - ref_delta(r, tau))).coeffs)
    # N_I^2 = #I * N_I
    assert n * n == n.scale(sub.order)


@given(st.lists(st.integers(-6, 6), min_size=6, max_size=6))
@settings(max_examples=80, deadline=None)
def test_principal_ideal_index_matches_resultant(coeffs):
    r = ring_of([6])
    x = r.from_coeffs(coeffs)
    f = Poly(list(reversed(coeffs)) or [0], X)
    res = resultant(Poly([1] + [0] * 5 + [-1], X), f)
    assume(res != 0)
    lat = IdealLattice.from_elements(r, [x])
    assert lat.integral_index() == abs(res)


def test_ideal_invariant_under_unit_multiples():
    r = ring_of([9])
    x = r.from_coeffs([2, 1, 0, 0, 1, 0, 0, 0, 0])
    base = IdealLattice.from_elements(r, [x])
    for g in r.group.elements():
        for sign in (1, -1):
            other = IdealLattice.from_elements(r, [(x * ref_delta(r, g)).scale(sign)])
            assert base.basis == other.basis


def test_ideal_lattice_gamma_stable():
    r = ring_of([3, 3])
    x = ref_one(r) - ref_delta(r, r.group.element((1, 2))) + ref_one(r).scale(3)
    lat = IdealLattice.from_elements(r, [x])
    for g in r.group.generators():
        moved = [intmat.vec_mat(row, ref_mult_matrix(r, ref_delta(r, g))) for row in lat.basis]
        assert all(intmat.in_span(lat.basis, range(r.n), row) for row in moved)


def test_regular_quotient_invariants_anchor():
    r = ring_of([3])
    three = IdealLattice.from_elements(r, [ref_one(r).scale(3)])
    mod = ref_build_module(r.group, three.basis, [ref_mult_matrix(r, ref_delta(r, g)) for g in r.group.generators()])
    # 3 Z[Z/3] inside Z[Z/3]: quotient is (Z/3)^3
    assert mod.invariants() == (3, 3, 3)
    assert mod.order == 27


def test_inertia_module_anchors():
    # full inertia over Z/3 with trivial frobenius: Z[G/G]/(1 - 1 + 3) = Z/3
    r3 = ring_of([3])
    m = inertia_module(Subgroup.full(r3.group), r3.group.zero())
    assert (m.modulus, m.rank) == (3, 1)
    # order-3 inertia inside Z/9 with frobenius generating the quotient
    r9 = ring_of([9])
    inertia = Subgroup.from_generators(r9.group, [r9.group.element((3,))])
    m = inertia_module(inertia, r9.group.element((1,)))
    assert (m.modulus, m.rank) == (63, 1)


def test_inertia_module_cardinality_lift_independent():
    r9 = ring_of([9])
    inertia = Subgroup.from_generators(r9.group, [r9.group.element((3,))])
    orders = {
        inertia_module(inertia, r9.group.element((k,))).modulus for k in (1, 4, 7)
    }
    assert orders == {63}


# the criterion-4/5 catalogue, then larger and mixed-prime groups
MODULE_GROUPS = ([9], [27], [3, 3], [15], [3, 9], [2, 2, 8], [4, 16], [3, 27], [12], [21], [28])


@pytest.mark.parametrize("factors", MODULE_GROUPS, ids=str)
def test_inertia_module_is_the_built_module_of_its_presentation(factors, monkeypatch):
    # inertia_module writes (Z/m)^[G:D] and the induced monomials down
    # with no Smith form, and viewed densely it is the module that the
    # reference builds, Smith step and dense validation included, from
    # diag(m)^[G:D] and the matrices of the same monomials
    g = make_group(factors)
    pairs = build_pair_sets(g).stilde
    built = []
    for pair in pairs:
        dec = decomposition_subgroup(pair.inertia, pair.frob)
        a = 1 + pair.inertia.order
        m = a ** (dec.order // pair.inertia.order) - 1
        gens = _induced_actions(pair.inertia, dec, pair.frob, pow(a, -1, m), m)
        written = ref_dense(FiniteModule(g, m, g.order // dec.order if m > 1 else 0, gens))
        built.append(ref_build_module(g, written.relations, written.gen_actions))
    calls = []
    real_snf = intmat.snf_with_transform

    def snf(*args, **kwargs):
        calls.append(args)
        return real_snf(*args, **kwargs)

    monkeypatch.setattr(intmat, "snf_with_transform", snf)
    direct = [inertia_module(pair.inertia, pair.frob) for pair in pairs]
    assert calls == []
    assert [ref_dense(mod) for mod in direct] == built


def test_finite_module_rejects_infinite():
    g = make_group([2])
    with pytest.raises(InfiniteModuleError):
        ref_build_module(g, [[0, 0], [0, 0]], [[[0, 1], [1, 0]]])


def test_finite_module_validates_action_stability():
    g = make_group([2])
    # relations 2Z x 4Z are not stable under the swap action
    with pytest.raises(ContainmentError):
        ref_build_module(g, [[2, 0], [0, 4]], [[[0, 1], [1, 0]]])


def test_finite_module_validates_generator_order():
    g = make_group([2])
    # multiplication by 2 on Z/5 has order 4, not dividing 2; the power
    # is taken as a monomial, as the element 2 e_0 of C2 is the identity
    mod = FiniteModule(g, 5, 1, (((0,), (2,)),))
    with pytest.raises(ContainmentError, match="order dividing 2"):
        mod.validate()
    FiniteModule(g, 5, 1, (((0,), (4,)),)).validate()


def test_finite_module_validates_commutation():
    g = make_group([2, 2])
    # the swap and diag(1, -1) are involutions on (Z/3)^2 that do not commute
    mod = FiniteModule(g, 3, 2, (((1, 0), (1, 1)), ((0, 1), (1, 2))))
    with pytest.raises(ContainmentError, match="do not commute"):
        mod.validate()


def test_finite_module_validate_refuses_a_perm_that_is_not_a_bijection():
    # e_0 and e_1 both sent to e_0: no power of the map is the identity
    g = make_group([2])
    mod = FiniteModule(g, 3, 2, (((0, 0), (1, 1)),))
    with pytest.raises(ContainmentError, match="order dividing 2"):
        mod.validate()
    # entries past the rank or below 0, and units of the wrong length,
    # are refused before any composition reads them
    for gen in (((0, 5), (1, 1)), ((-1, 0), (1, 1)), ((1, 0), (1,))):
        with pytest.raises(ContainmentError, match="not a monomial map"):
            FiniteModule(g, 3, 2, (gen,)).validate()


def test_subquotient_matches_index():
    r = ring_of([4])
    actions = [ref_mult_matrix(r, ref_delta(r, g)) for g in r.group.generators()]
    parent = ref_build_module(r.group, intmat.diagonal([8] * r.n), actions)
    small = IdealLattice.from_elements(r, [ref_one(r).scale(2)])
    mod = ref_subquotient(parent, intmat.identity(r.n), small.basis)
    assert mod.invariants() == (2, 2, 2, 2)
    assert mod.order == small.integral_index()
    assert ref_subquotient(parent, small.basis, parent.relations).invariants() == (4, 4, 4, 4)
    with pytest.raises(ContainmentError):
        ref_subquotient(parent, small.basis, intmat.identity(r.n))


def test_parent_mismatch_rejected():
    r1 = ring_of([4])
    r2 = ring_of([2, 2])
    with pytest.raises(ParentMismatchError):
        ref_one(r1) + ref_one(r2)


def test_augmentation_multiplicative():
    r = ring_of([2, 4])
    x = r.from_coeffs(list(range(1, 9)))
    y = ref_one(r) - ref_delta(r, r.group.element((1, 3)))
    assert sum((x * y).coeffs) == sum(x.coeffs) * sum(y.coeffs)


# -- differential tests against GroupElement arithmetic -----------------------

DIFF_GROUPS = ([8], [2, 4], [3, 3], [2, 2, 2], [3, 9])


def ref_sub(ring):
    elems = list(ring.group.elements())
    return [[ring.index_of(ek - ei) for ei in elems] for ek in elems]


def ref_mul(ring, a, b):
    sub = ref_sub(ring)
    out = [0] * ring.n
    for i, ai in enumerate(a):
        if ai:
            for k in range(ring.n):
                bj = b[sub[k][i]]
                if bj:
                    out[k] += ai * bj
    return tuple(out)


def table_mult_matrix(ring, xc):
    sub = ref_sub(ring)
    return [[xc[sub[k][i]] for k in range(ring.n)] for i in range(ring.n)]


def ref_orbit_rows(ring, xs):
    """The translates of xs, by GroupElement arithmetic."""
    return [list(ref_mul(ring, x.coeffs, ref_delta(ring, g).coeffs)) for x in xs for g in ring.group.elements()]


def coefficient(kind):
    ints = st.integers(-7, 7)
    if kind == "int":
        return ints
    return st.one_of(ints, st.fractions(min_value=-4, max_value=4, max_denominator=6))


@st.composite
def ring_elements(draw, count, kinds=("int", "fraction")):
    ring = group_ring(make_group(draw(st.sampled_from(DIFF_GROUPS))))
    coeff = coefficient(draw(st.sampled_from(kinds)))
    elems = [ring.from_coeffs(draw(st.lists(coeff, min_size=ring.n, max_size=ring.n))) for _ in range(count)]
    return ring, elems


@given(ring_elements(2))
@settings(max_examples=60, deadline=None)
def test_mul_matches_reference(data):
    ring, (x, y) = data
    assert (x * y).coeffs == ref_mul(ring, x.coeffs, y.coeffs)


@given(ring_elements(1), st.data())
@settings(max_examples=60, deadline=None)
def test_translate_matches_reference(data, draw):
    ring, (x,) = data
    g = list(ring.group.elements())[draw.draw(st.integers(0, ring.n - 1))]
    assert ref_translate(x, g).coeffs == ref_mul(ring, x.coeffs, ref_delta(ring, g).coeffs)


@given(ring_elements(1))
@settings(max_examples=40, deadline=None)
def test_mult_matrix_matches_reference(data):
    ring, (x,) = data
    assert ref_mult_matrix(ring, x) == table_mult_matrix(ring, x.coeffs)


@given(ring_elements(2, kinds=("int",)))
@settings(max_examples=40, deadline=None)
def test_orbit_lattice_matches_reference(data):
    ring, xs = data
    rows = ref_orbit_rows(ring, xs)
    try:
        ref = IdealLattice(ring, rows)
    except NotFullRankError:
        with pytest.raises(NotFullRankError):
            IdealLattice.from_elements(ring, xs)
        return
    # the HNF sees the reference rows, in the reference order
    with mock.patch.object(intmat, "hnf", wraps=intmat.hnf) as spy:
        lat = IdealLattice.from_elements(ring, xs)
    assert spy.call_args_list[0].args[0] == rows
    assert lat.basis == ref.basis


def test_ideal_lattice_refuses_fraction_coefficients():
    ring = ring_of([4])
    x = ring.from_coeffs([Fraction(1, 2), 0, 0, 0])
    with mock.patch.object(intmat, "hnf", wraps=intmat.hnf) as spy:
        with pytest.raises(TypeError):
            IdealLattice.from_elements(ring, [ref_one(ring), x])
    # refused before any row reaches the HNF
    assert not spy.called


@given(ring_elements(2, kinds=("int",)))
@settings(max_examples=60, deadline=None)
def test_integral_index_is_pivot_product(data):
    ring, xs = data
    try:
        lat = IdealLattice.from_elements(ring, xs)
    except NotFullRankError:
        assume(False)
    assert lat.integral_index() == abs(ref_det(lat.basis))


@pytest.mark.parametrize("factors", DIFF_GROUPS)
def test_shift_is_group_addition(factors):
    ring = GroupRing(make_group(factors))
    elems = list(ring.group.elements())
    for j, ej in enumerate(elems):
        assert ring.shift(j) == tuple(ring.index_of(ei + ej) for ei in elems)


def test_cyclic_shift_is_rotation():
    ring = GroupRing(make_group([8]))
    assert ring.shift(3) == (3, 4, 5, 6, 7, 0, 1, 2)


def test_group_ring_memo_shares_one_ring():
    assert group_ring(make_group([2, 4])) is group_ring(make_group([4, 2]))
    assert group_ring(make_group([8])) is not group_ring(make_group([2, 4]))


def test_group_ring_respects_order_cap():
    big = make_group([RING_ORDER_CAP + 1])
    for _ in range(2):  # a refused group is not memoised
        with pytest.raises(CapacityError):
            group_ring(big)
    # the check verify runs before its sweeps admits the cap itself
    check_ring_order(RING_ORDER_CAP)
    with pytest.raises(CapacityError, match=f"group of order {RING_ORDER_CAP + 1} exceeds ring cap"):
        check_ring_order(RING_ORDER_CAP + 1)


def test_translate_rejects_foreign_element():
    r8 = ring_of([8])
    with pytest.raises(ParentMismatchError):
        ref_translate(ref_one(r8), make_group([2, 4]).zero())


# -- element monomials against per-element mat_pow products -----------------


# the earlier groups of this test, then the rest of MODULE_GROUPS
@pytest.mark.parametrize(
    "factors",
    [[8], [2, 4], [3, 3], [2, 6], [12], [15], [2, 2, 2], [9], [27], [3, 9], [2, 2, 8], [4, 16], [3, 27], [21], [28]],
)
def test_element_monomials_match_mat_pow_products(factors):
    # every inertia module and each of its p-parts is transitive, and
    # the monomial of every element, composed from the generators' by
    # squaring, is its dense matrix, a product of mat_pow powers of the
    # generator matrices, reduced mod m
    g = make_group(factors)
    elems = list(g.elements())
    for pair in build_sets(g).stilde:
        mod = inertia_module(pair.inertia, pair.frob)
        for m in [mod, *(p_part(mod, p) for p in prime_factors(g.order))]:
            assert m.transitive
            dense_m = ref_dense(m)
            for e in elems:
                perm, units = m.act(e)
                dense = [[0] * m.rank for _ in range(m.rank)]
                for t, (j, u) in enumerate(zip(perm, units)):
                    dense[t][j] = u
                want = [[x % m.modulus for x in row] for row in ref_action_matrix(dense_m, e)]
                assert dense == want, (factors, pair, e)
