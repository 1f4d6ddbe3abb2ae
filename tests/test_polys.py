"""Polynomial helpers: cyclotomics, factors mod p, resultants, and the
reference Hensel lift.

sympy provides the oracle for cyclotomic coefficients, resultants and
the factors of Phi_m mod p (ref_factor_cyclotomic_mod_p, the route the
library took before it split Phi_m by its cyclotomic cosets).
The resultant under test is the reference ref_resultant_monic, against
which spectrum's character valuations are checked; the Hensel lift is
the reference route against which cohomology's root power traces are
checked.  Resultant signs are compared by absolute value only; it
computes a multiplication-matrix determinant whose sign convention
differs from the Sylvester matrix for odd degree pairs.
"""

from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Poly, cyclotomic_poly, n_order, resultant, totient
from sympy.abc import x

import grlat.polys as pl
from reference import (
    deg,
    mult_matrix_mod,
    poly_add,
    poly_mul,
    poly_reduce_mod,
    poly_sub,
    ref_factor_cyclotomic_mod_p,
    ref_hensel_lift,
    ref_lifted_cyclotomic_factor,
    ref_poly_divmod_fp,
    ref_resultant_monic,
)


def as_sympy(coeffs):
    return Poly(list(reversed(coeffs)), x)


def test_cyclotomic_anchors():
    assert pl.cyclotomic(1) == (-1, 1)
    assert pl.cyclotomic(2) == (1, 1)
    assert pl.cyclotomic(3) == (1, 1, 1)
    assert pl.cyclotomic(9) == (1, 0, 0, 1, 0, 0, 1)
    assert pl.cyclotomic(12) == (1, 0, -1, 0, 1)


@given(st.integers(min_value=1, max_value=60))
@settings(max_examples=60, deadline=None)
def test_cyclotomic_matches_sympy(m):
    ours = as_sympy(pl.cyclotomic(m))
    assert ours == Poly(cyclotomic_poly(m, x), x)


coeffs = st.lists(st.integers(-9, 9), min_size=1, max_size=6)


@given(coeffs, coeffs)
@settings(max_examples=100, deadline=None)
def test_poly_mul_matches_sympy(f, g):
    ours = poly_mul(f, g)
    theirs = as_sympy(f) * as_sympy(g)
    assert as_sympy(ours) == theirs


@given(coeffs)
@settings(max_examples=80, deadline=None)
def test_divmod_monic_roundtrip(f):
    g = [2, 0, 1]  # X^2 + 2, monic
    q, r = pl.poly_divmod_monic(f, g)
    recomposed = poly_add(poly_mul(q, g), r)
    assert pl.trim(recomposed) == pl.trim(f)
    assert deg(r) < 2


@given(st.integers(2, 40), coeffs)
@settings(max_examples=80, deadline=None)
def test_resultant_abs_matches_sympy(m, g):
    f = pl.cyclotomic(m)
    ours = ref_resultant_monic(f, g)
    theirs = resultant(as_sympy(f), as_sympy(g))
    assert abs(ours) == abs(theirs)


def test_resultant_constant_and_valuation_anchors():
    # Res(Phi_3, c) = c^2 for constants
    assert ref_resultant_monic(pl.cyclotomic(3), [9]) == 81
    # Res(Phi_9, 9) = 9^6
    assert ref_resultant_monic(pl.cyclotomic(9), [9]) == 9**6
    # Phi_m(1) = p for prime powers m = p^k
    assert abs(ref_resultant_monic(pl.cyclotomic(3), [-1, 1])) == 3
    assert abs(ref_resultant_monic(pl.cyclotomic(27), [-1, 1])) == 3
    assert ref_resultant_monic(pl.cyclotomic(5), []) == 0


def test_factor_cyclotomic_mod_p():
    # Phi_4 = X^2+1 splits mod 5 (5 = 1 mod 4) into two linears
    fs = pl.factor_cyclotomic_mod_p(4, 5)
    assert len(fs) == 2 and all(deg(h) == 1 for h in fs)
    # mod 3, the class of 3 has order 2 in (Z/4)*: irreducible of degree 2
    fs = pl.factor_cyclotomic_mod_p(4, 3)
    assert len(fs) == 1 and deg(fs[0]) == 2
    # factor degree = multiplicative order of p mod m; ord_7(2) = 3
    fs = pl.factor_cyclotomic_mod_p(7, 2)
    assert len(fs) == 2 and all(deg(h) == 3 for h in fs)
    assert fs == sorted(fs)


def test_factor_cyclotomic_mod_p_needs_m_prime_to_p():
    with pytest.raises(ValueError):
        pl.factor_cyclotomic_mod_p(12, 3)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 31, 97, 101])
def test_factor_cyclotomic_mod_p_matches_sympy(p):
    for m in range(1, 121):
        if gcd(m, p) == 1:
            assert pl.factor_cyclotomic_mod_p(m, p) == ref_factor_cyclotomic_mod_p(m, p), m


@pytest.mark.parametrize("m, p", [(255, 2), (2039, 2), (1000, 3), (100, 101)])
def test_factors_mod_p_have_the_order_of_p_as_degree(m, p):
    # phi(m)/d monic factors of degree d = ord_m(p) whose product is
    # Phi_m mod p; a factor of Phi_m of degree d is irreducible, so this
    # is the factorization.  sympy needs minutes on (2039, 2).
    fs = pl.factor_cyclotomic_mod_p(m, p)
    d = n_order(p, m)
    assert len(fs) == totient(m) // d
    assert all(len(h) - 1 == d and h[-1] == 1 for h in fs)
    product = (1,)
    for h in fs:
        product = poly_reduce_mod(poly_mul(product, h), p)
    assert product == poly_reduce_mod(pl.cyclotomic(m), p)


def test_hensel_lift_factor():
    # lift the mod-3 factor of Phi_4 to mod 3^4 and check divisibility
    p, prec = 3, 4
    f = pl.cyclotomic(4)
    h0 = pl.factor_cyclotomic_mod_p(4, p)[0]
    g0 = ref_poly_divmod_fp(f, h0, p)[0]
    h, g = ref_hensel_lift(f, h0, g0, p, prec)
    q = p**prec
    diff = poly_sub(f, poly_mul(h, g))
    assert all(c % q == 0 for c in diff)
    assert h[-1] == 1 and deg(h) == deg(h0)


def test_lifted_factor_root_is_primitive():
    # h | Phi_8 mod 3^5; multiplication by X on Z[X]/(h) has order 8 mod 3^5
    h = ref_lifted_cyclotomic_factor(8, 3, 5)
    q = 3**5
    mat = mult_matrix_mod(h, [0, 1])
    power = [row[:] for row in mat]

    def matmul_mod(a, b):
        n = len(a)
        return [
            [sum(a[i][k] * b[k][j] for k in range(n)) % q for j in range(n)]
            for i in range(n)
        ]

    seen = 1
    while True:
        if all(
            power[i][j] % q == (1 if i == j else 0) for i in range(len(power)) for j in range(len(power))
        ):
            break
        power = matmul_mod(power, mat)
        seen += 1
        assert seen <= 8
    assert seen == 8
