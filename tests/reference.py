"""Reference routines the library no longer carries, kept as test oracles.

ref_det is the Bareiss determinant and ref_resultant_monic the
multiplication-matrix resultant that spectrum's character valuations
used before they were read off the Eisenstein expansion; both are
checked against sympy in the tests that use them.
"""

from grlat.polys import mult_matrix_mod


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
