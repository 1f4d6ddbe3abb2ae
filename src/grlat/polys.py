"""Polynomial helpers over Z: cyclotomic polynomials and their factors
mod p.

Polynomials are tuples of int coefficients, constant term first, no
trailing zeros (the zero polynomial is the empty tuple).  Nothing here
is asymptotically clever; degrees stay small (< 100) in every caller.

A factor mod p is all the p-adic input there is: cohomology lifts the
idempotent such a factor cuts out of F_p[C_m], not the factor itself.
Every identity check here raises IdentityCheckError, so it survives
python -O.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import IdentityCheckError


def trim(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_divmod_monic(f, g):
    """(q, r) over Z with f = q*g + r, deg r < deg g; g must be monic."""
    if not g or g[-1] != 1:
        raise ValueError("divisor must be monic")
    r = list(f)
    dg = len(g) - 1
    q = [0] * max(0, len(r) - dg)
    for i in range(len(r) - 1, dg - 1, -1):
        c = r[i]
        if c:
            q[i - dg] = c
            for j in range(dg + 1):
                r[i - dg + j] -= c * g[j]
    return trim(q), trim(r)


@lru_cache(maxsize=None)
def cyclotomic(m):
    """m-th cyclotomic polynomial, exact, via division of X^m - 1."""
    if m < 1:
        raise ValueError("m must be positive")
    num = tuple([-1] + [0] * (m - 1) + [1])
    for d in range(1, m):
        if m % d == 0:
            q, r = poly_divmod_monic(num, cyclotomic(d))
            if r:
                raise IdentityCheckError(f"cyclotomic({d}) does not divide the quotient for m={m}")
            num = q
    return num


def factor_cyclotomic_mod_p(m, p):
    """Monic irreducible factors of the m-th cyclotomic polynomial mod p.

    Requires gcd(m, p) = 1 so the factorization is squarefree; every
    factor then has degree = multiplicative order of p mod m.  Factors
    come back sorted by coefficient tuple, which fixes a canonical
    "first" factor independent of sympy internals.
    """
    from math import gcd

    if gcd(m, p) != 1:
        raise ValueError("m must be prime to p")
    import sympy

    x = sympy.symbols("x")
    phi = cyclotomic(m)
    poly = sympy.Poly([int(c) for c in reversed(phi)], x, modulus=p)
    _, factors = poly.factor_list()
    out = []
    for fac, mult in factors:
        if mult != 1:
            raise IdentityCheckError(f"cyclotomic({m}) is not squarefree mod {p}")
        coeffs = [int(c) % p for c in reversed(fac.all_coeffs())]
        out.append(trim(coeffs))
    out.sort()
    # all factors share one degree: the order of p mod m
    if len({len(f) - 1 for f in out}) != 1:
        raise IdentityCheckError(f"factors of cyclotomic({m}) mod {p} differ in degree")
    return out
