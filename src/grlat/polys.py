"""Polynomial helpers over Z and Z/p^k.

Polynomials are tuples of int coefficients, constant term first, no
trailing zeros (the zero polynomial is the empty tuple).  Nothing here
is asymptotically clever; degrees stay small (< 100) in every caller.

The Hensel lift is the linear-convergence version and checks its own
congruences at every step, since downstream valuation computations are
only trustworthy if the lifted factor is exact to the stated precision.
Every such check raises IdentityCheckError, so it survives python -O.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import IdentityCheckError


def trim(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


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


def poly_reduce_mod(f, modulus):
    return trim([c % modulus for c in f])


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


# ---------------------------------------------------------------------------
# arithmetic mod a prime


def poly_divmod_fp(f, g, p):
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


def poly_bezout_fp(f, g, p):
    """(s, t) with s*f + t*g = 1 mod p; requires gcd(f, g) = 1 mod p."""
    a = poly_reduce_mod(f, p)
    b = poly_reduce_mod(g, p)
    s0, s1 = (1,), ()
    t0, t1 = (), (1,)
    while b:
        q, r = poly_divmod_fp(a, b, p)
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


def hensel_lift(f, h0, g0, p, prec):
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
    s, t = poly_bezout_fp(h0, g0, p)
    h, g = h0, g0
    pk = p
    while pk < p ** prec:
        modulus = pk * p
        # e = (f - h*g) / pk, valid mod p
        fullerr = poly_sub(f, poly_mul(h, g))
        e = trim([(c // pk) % p for c in poly_reduce_mod(fullerr, modulus)])
        # u = t*e mod h0 (keeps h monic, same degree); w = s*e + q*g0
        te = poly_mul(t, e)
        q, u = poly_divmod_fp(te, h0, p)
        w = poly_reduce_mod(poly_add(poly_mul(s, e), poly_mul(q, g0)), p)
        h = poly_reduce_mod(poly_add(h, poly_scale(u, pk)), modulus)
        g = poly_reduce_mod(poly_add(g, poly_scale(w, pk)), modulus)
        pk = modulus
        if len(h) != len(h0) or h[-1] != 1:
            raise IdentityCheckError(f"lifted factor is not monic of degree {deg(h0)} mod {pk}")
        if poly_reduce_mod(poly_sub(f, poly_mul(h, g)), pk):
            raise IdentityCheckError(f"f != h*g mod {pk} after a Hensel step")
    return h, g


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

