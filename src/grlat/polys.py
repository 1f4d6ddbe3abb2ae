"""Polynomial helpers over Z: cyclotomic polynomials and their factors
mod p.

Polynomials are tuples of int coefficients, constant term first, no
trailing zeros (the zero polynomial is the empty tuple); over F_p the
coefficients lie in [0, p).

Phi_m mod p is factored here, with no outside library.  The sums of X^j
over the cyclotomic cosets of p mod m span its Berlekamp algebra, so no
nullspace is solved, and the products that dominate at large p are each
one integer product (Kronecker substitution).  Degrees stay small in
every caller, but degrees in the thousands take seconds, not minutes.

A factor mod p is all the p-adic input there is: cohomology lifts the
idempotent such a factor cuts out of F_p[C_m], not the factor itself.
Every identity check here raises IdentityCheckError, so it survives
python -O.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .errors import IdentityCheckError


def trim(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_divmod_monic(f, g, p=None):
    """(q, r) with f = q*g + r, deg r < deg g, over Z, or over F_p when
    p is given; g must be monic."""
    if not g or g[-1] != 1:
        raise ValueError("divisor must be monic")
    r = list(f)
    dg = len(g) - 1
    head = g[:-1]
    q = [0] * max(0, len(r) - dg)
    for i in range(len(r) - 1, dg - 1, -1):
        c = r[i] % p if p else r[i]
        if c:
            q[i - dg] = c
            r[i - dg : i] = [a - c * b for a, b in zip(r[i - dg : i], head)]
    r = r[:dg]
    if p:
        r = [c % p for c in r]
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


def _mul(a, b):
    """a*b over Z for coefficients >= 0, as one integer product
    (Kronecker substitution)."""
    if not a or not b:
        return ()
    size = (max(a) * max(b) * min(len(a), len(b))).bit_length() // 8 + 1
    packed = [int.from_bytes(b"".join(c.to_bytes(size, "little") for c in f), "little") for f in (a, b)]
    raw = (packed[0] * packed[1]).to_bytes((len(a) + len(b) - 1) * size, "little")
    return [int.from_bytes(raw[i : i + size], "little") for i in range(0, len(raw), size)]


def _gcd_mod_p(a, b, p):
    """Monic gcd of a and b over F_p."""
    while b:
        inv = pow(b[-1], -1, p)
        b = tuple(c * inv % p for c in b)
        a, b = b, poly_divmod_monic(a, b, p)[1]
    return a


def _split_mod_p(h, r, c, p):
    """A factor of h over F_p that r, an element of h's Berlekamp algebra
    (r^p = r mod h), separates: gcd(h, r) for p = 2, else
    gcd(h, (r + c)^((p - 1) / 2) - 1)."""
    if p == 2:
        return _gcd_mod_p(h, r, p)
    base = trim([(r[0] + c) % p] + list(r[1:]))
    power = (1,)
    for bit in bin((p - 1) // 2)[2:]:
        power = poly_divmod_monic(_mul(power, power), h, p)[1]
        if bit == "1":
            power = poly_divmod_monic(_mul(power, base), h, p)[1]
    power = list(power) or [0]
    power[0] -= 1
    return _gcd_mod_p(h, trim([c % p for c in power]), p)


def factor_cyclotomic_mod_p(m, p):
    """Monic irreducible factors of the m-th cyclotomic polynomial mod p.

    Requires gcd(m, p) = 1 so the factorization is squarefree; every
    factor then has degree d = multiplicative order of p mod m.  Factors
    come back sorted by coefficient tuple, which fixes a canonical
    "first" factor.

    Frobenius sends X^j to X^(pj) mod X^m - 1, so the sum of X^j over a
    cyclotomic coset of p mod m is Frobenius-fixed, and these sums span
    the Berlekamp algebra of Phi_m mod p (Berlekamp 1967).  Each takes
    one value of F_p on each irreducible factor, and a factor h not yet
    of degree d is split where two of its factors take different values:
    by gcd(h, s) for p = 2, and for odd p by the quadratic character of
    s + c, c = 0, 1, ... (Cantor and Zassenhaus 1981).  The factorization
    is unique, so the order of the splits does not change the result.
    """
    if gcd(m, p) != 1:
        raise ValueError("m must be prime to p")
    d, power = 1, p % m
    while power != 1 % m:
        power, d = power * p % m, d + 1
    todo = [trim([c % p for c in cyclotomic(m)])]
    out = []
    seen = {0}
    for j in range(1, m):
        out += [h for h in todo if len(h) - 1 == d]
        todo = [h for h in todo if len(h) - 1 != d]
        if not todo:
            break
        if j in seen:
            continue
        coset = [j]
        while coset[-1] * p % m != j:
            coset.append(coset[-1] * p % m)
        seen.update(coset)
        s = [0] * m
        for k in coset:
            s[k] = 1
        # (factor, s mod factor) while s is not constant on it
        parts = [(h, poly_divmod_monic(s, h, p)[1]) for h in todo]
        todo = []
        c = idle = 0
        while parts:
            split = []
            idle += 1
            for h, r in parts:
                if len(r) <= 1 or len(h) - 1 == d:
                    todo.append(h)
                    continue
                g = _split_mod_p(h, r, c, p)
                if 0 < len(g) - 1 < len(h) - 1:
                    q = poly_divmod_monic(h, g, p)[0]
                    split += [(f, poly_divmod_monic(r, f, p)[1]) for f in (g, q)]
                    idle = 0
                else:
                    split.append((h, r))
            parts = split
            # every c in F_p leaves a factor unsplit only when s is not
            # in its Berlekamp algebra
            if parts and idle == p:
                raise IdentityCheckError(f"a coset sum does not split cyclotomic({m}) mod {p}")
            c = (c + 1) % p
    out = sorted(out + todo)
    # all factors share one degree: the order of p mod m
    if {len(f) - 1 for f in out} != {d}:
        raise IdentityCheckError(f"factors of cyclotomic({m}) mod {p} differ in degree")
    if len(set(out)) != len(out):
        raise IdentityCheckError(f"cyclotomic({m}) is not squarefree mod {p}")
    return out
