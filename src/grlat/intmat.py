"""Exact linear algebra over the integers.

Matrices are lists (or tuples) of rows of Python ints; a lattice is the
row span of such a matrix.  Everything here is exact: no floats, and
the one modular routine, smith_valuations, certifies its own precision.
Arbitrary precision is load-bearing, since several callers cross-check
valuations of large lattice indices.

Conventions:
  * vectors are rows, maps act on the right (x -> x @ A),
  * hnf() returns the canonical row Hermite form: echelon, positive
    pivots, entries above each pivot reduced into [0, pivot),
  * every HNF, index and kernel runs through one elimination, _echelon:
    rows filed under their leading column, the least entry of a column
    as pivot, and each reduction touching only the pivot row's nonzeros,
    which keeps the sparse orbit matrices of ideal lattices cheap,
  * moduli: hnf(rows, width, mods) is the canonical HNF of rows stacked
    over diag(mods), mods[j] >= 0 for column j and 0 meaning no
    modulus, but the diagonal rows are never stacked: the elimination
    keeps column j reduced mod mods[j] and takes mods[j] e_j in only
    when column j is reached (HNF modulo D, Cohen, GTM 138, 2.4.8), so
    a caller that knows its lattice holds diag(d) passes d instead,
  * index_mod(rows, mods) is [Z^b : L] for L the span of rows and
    diag(mods), every mod >= 1: the product of the pivots of that
    elimination, with no reduction above them,
  * kernel_mod(F, mods) is the canonical HNF of the x with x F = 0 mod
    mods[j] in column j, read off one HNF of F with an identity block
    beside it, taken mod mods in the F block and mod lcm(mods) in the
    identity block; image_kernel_mod reads the HNF of F's rows and
    diag(mods) off the same elimination,
  * a full-rank square HNF has its pivots on the diagonal, so callers
    that store one test membership with in_span(h, range(n), v),
    take its index with hnf_index(h), the order of v + L with
    hnf_order(h, v), and walk its cosets with hnf_residues(h), without
    a second HNF,
  * snf_with_transform() returns (diag, V, V^-1): U @ A @ V = diag(diag)
    for a unimodular U it does not keep, and diag[i] | diag[i+1],
  * smith_coordinates() keeps the invariants d_i > 1 of a full-rank A
    and the matching columns P of V and rows Q of V^-1: x -> x P mod d
    is an isomorphism Z^n / L -> (+) Z/d_i (Cohen, GTM 138, 2.4) with
    inverse y -> y Q, the coordinates quotient groups are stored in,
  * smith_valuations() gives only the p-parts of the Smith invariants
    of a full-rank lattice, by elimination mod p^k with no HNF, each
    working row packed into one int so that a row update is one
    multiply-add.
"""

from __future__ import annotations

from itertools import compress, product
from math import gcd, lcm, prod

from .errors import NotFullRankError


def zeros(m, n):
    return [[0] * n for _ in range(m)]


def diagonal(entries):
    """The square matrix with entries on its diagonal; a full-rank HNF
    when they are positive."""
    k = len(entries)
    return [[d if j == i else 0 for j in range(k)] for i, d in enumerate(entries)]


def identity(n):
    return diagonal([1] * n)


def mat_mul(a, b):
    nb = len(b)
    wb = len(b[0]) if nb else 0
    out = []
    for row in a:
        acc = [0] * wb
        for x, brow in zip(row, b):
            if x:
                for j, y in enumerate(brow):
                    if y:
                        acc[j] += x * y
        out.append(acc)
    return out


def vec_mat(v, b):
    wb = len(b[0]) if b else 0
    acc = [0] * wb
    for x, brow in zip(v, b):
        if x:
            for j, y in enumerate(brow):
                if y:
                    acc[j] += x * y
    return acc


def _leading(row, start, width):
    """The first column in [start, width) where row is nonzero, else width."""
    for j in range(start, width):
        if row[j]:
            return j
    return width


def _echelon(mat, width, mods=(), reduce_above=True):
    """In-place canonical row Hermite form on the first width columns of
    the span of mat and diag(mods), by least-entry elimination (Cohen,
    GTM 138, 2.4.2).  Returns the pivot columns; mat[:len(pivots)] is
    the HNF and every later row is zero in columns < width.

    Each row is filed once under its leading column, so column c works
    only on the rows that start there.  A round picks the entry of least
    |value| in the bucket (the first found; a unit stops the search) and
    subtracts floor multiples of its row from the others at the pivot
    row's nonzero positions only, leaving remainders below |pivot| in
    absolute value; a row whose entry at c becomes 0 moves to the bucket
    of its next nonzero column.  Entries stay small since the pivot is
    always least.  Finally each entry above a pivot is reduced into
    [0, pivot), unless reduce_above is false; then only the pivots are
    read, and a pivot row mods[j] e_j is cut after its entry j.

    mods[j] >= 0 is the modulus of column j < len(mods), 0 meaning none:
    the lattice holds mods[j] e_j, so the entries of column j are kept
    in [0, mods[j]) while an earlier column is worked (HNF modulo D:
    Cohen, GTM 138, 2.4.8; Domich, Kannan and Trotter, Math. Oper. Res.
    12, 1987).  The row mods[j] e_j joins column j's bucket only when
    that column is reached, and is its pivot row outright when the
    bucket is empty; a row that vanishes mod mods leaves the
    elimination.
    """
    modded = [j for j, d in enumerate(mods) if d]
    buckets = [[] for _ in range(width + 1)]
    for row in mat:
        if modded:
            for j in compress(range(len(mods)), row):
                if mods[j]:
                    row[j] %= mods[j]
        buckets[_leading(row, 0, width)].append(row)
    length = len(mat[0]) if mat else width
    dmod = [*mods, *[0] * (length - len(mods))]
    out = []
    pivots = []
    for col in range(width):
        bucket = buckets[col]
        d = dmod[col]
        while True:
            while len(bucket) > 1:
                prow = bucket[0]
                least = abs(prow[col])
                if least > 1:
                    for row in bucket:
                        a = abs(row[col])
                        if a < least:
                            prow, least = row, a
                            if a == 1:
                                break
                piv = prow[col]
                nz = [j for j in range(col, len(prow)) if prow[j]]
                red = ()
                if modded:
                    # nz[0] is col, whose remainders stay below |piv| unreduced
                    red = [j for j in nz[1:] if dmod[j]]
                    if red:
                        nz = [col] + [j for j in nz[1:] if not dmod[j]]
                keep = [prow]
                for row in bucket:
                    if row is prow:
                        continue
                    q = row[col] // piv
                    for j in nz:
                        row[j] -= q * prow[j]
                    for j in red:
                        row[j] = (row[j] - q * prow[j]) % dmod[j]
                    if row[col]:
                        keep.append(row)
                    else:
                        buckets[_leading(row, col + 1, width)].append(row)
                bucket = keep
            if not d:
                break
            if not bucket:
                # without reduce_above only the pivot is read, so the
                # zeros after it are not written
                prow = [0] * col + [d]
                bucket = [prow + [0] * (length - col - 1) if reduce_above else prow]
                break
            prow = bucket[0]
            if d % prow[col]:
                bucket.append([0] * col + [d] + [0] * (length - col - 1))
                d = 0
                continue
            # prow[col] divides d, so d e_col is replaced by d e_col - q prow,
            # q = d / prow[col], nonzero at most at prow's later nonzeros
            q, row = d // prow[col], None
            for j in compress(range(col + 1, length), prow[col + 1 :]):
                v = -q * prow[j]
                if dmod[j]:
                    v %= dmod[j]
                if v:
                    if row is None:
                        row, lead = [0] * length, min(j, width)
                    row[j] = v
            if row is not None:
                buckets[lead].append(row)
            break
        if bucket:
            prow = bucket[0]
            if prow[col] < 0:
                for j in range(col, len(prow)):
                    prow[j] = -prow[j]
                for j in modded:
                    if j > col:
                        prow[j] %= mods[j]
            out.append(prow)
            pivots.append(col)
    if reduce_above:
        # increasing order: step k only touches columns >= pivots[k], so
        # already-canonical earlier pivot columns stay put
        for k, col in enumerate(pivots):
            prow = out[k]
            piv = prow[col]
            nz = [j for j in range(col, len(prow)) if prow[j]]
            for row in out[:k]:
                q = row[col] // piv
                if q:
                    for j in nz:
                        row[j] -= q * prow[j]
    mat[:] = out + buckets[width]
    return pivots


def hnf(rows, width=None, mods=()):
    """Canonical row Hermite normal form of the span of rows and
    diag(mods) (zero rows dropped); mods as in _echelon, one modulus
    >= 0 per leading column, 0 meaning none."""
    rows = [list(r) for r in rows]
    if width is None:
        width = len(rows[0]) if rows else len(mods)
    pivots = _echelon(rows, width, mods)
    return rows[: len(pivots)]


def reduce_against(hrows, pivots, v):
    """Reduce v against an echelon basis.  Returns (coeffs, remainder)."""
    v = list(v)
    coeffs = [0] * len(hrows)
    for k, col in enumerate(pivots):
        piv = hrows[k][col]
        c = v[col] // piv
        if c:
            row = hrows[k]
            for j in range(col, len(v)):
                v[j] -= c * row[j]
        coeffs[k] = c
    return coeffs, v


def in_span(hrows, pivots, v):
    """Exact membership of v in the row span given canonical echelon basis."""
    _, rem = reduce_against(hrows, pivots, v)
    return not any(rem)


def snf_with_transform(rows, width=None):
    """Smith form.  Returns (diag, V, Vinv): U @ A @ V = diag(diag), chained.

    diag has length min(m, width), nonnegative entries, diag[i] | diag[i+1];
    trailing zeros indicate rank deficiency.  V is unimodular and Vinv is
    its inverse, kept by undoing each column operation on V as a row
    operation on Vinv.  U is not kept.

    At each position t the pivot is reduced until it divides every entry of
    the trailing block before moving on, so the chain holds by construction.
    """
    a = [list(r) for r in rows]
    m = len(a)
    n = width if width is not None else (len(a[0]) if m else 0)
    for r in a:
        if len(r) != n:
            raise ValueError("ragged matrix")
    v = identity(n)
    vinv = identity(n)
    limit = min(m, n)
    t = 0
    while t < limit:
        best = None
        for i in range(t, m):
            ai = a[i]
            for j in range(t, n):
                x = ai[j]
                if x and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            a[bi], a[t] = a[t], a[bi]
        if bj != t:
            for row in a:
                row[bj], row[t] = row[t], row[bj]
            for row in v:
                row[bj], row[t] = row[t], row[bj]
            vinv[bj], vinv[t] = vinv[t], vinv[bj]
        piv = a[t][t]
        # reduce column t below the pivot
        col_clean = True
        for i in range(t + 1, m):
            if a[i][t]:
                q = a[i][t] // piv
                if q:
                    ai, at = a[i], a[t]
                    for j in range(t, n):
                        ai[j] -= q * at[j]
                if a[i][t]:
                    col_clean = False
        if not col_clean:
            continue
        # reduce row t right of the pivot: column j -= q column t, so
        # row t of Vinv += q row j
        row_clean = True
        for j in range(t + 1, n):
            if a[t][j]:
                q = a[t][j] // piv
                if q:
                    for row in a:
                        row[j] -= q * row[t]
                    for row in v:
                        row[j] -= q * row[t]
                    vt, vj = vinv[t], vinv[j]
                    for c in range(n):
                        vt[c] += q * vj[c]
                if a[t][j]:
                    row_clean = False
        if not row_clean:
            continue
        # pivot must divide the whole trailing block for the chain
        offender = None
        for i in range(t + 1, m):
            ai = a[i]
            for j in range(t + 1, n):
                if ai[j] % piv:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            ai, at = a[offender], a[t]
            for j in range(t, n):
                at[j] += ai[j]
            continue
        if piv < 0:
            for j in range(t, n):
                a[t][j] = -a[t][j]
        t += 1
    diag = [a[i][i] for i in range(limit)]
    return diag, v, vinv


def smith_coordinates(rows, width):
    """(d, P, Q) for the lattice L spanned by rows in Z^width, or None
    when L is not full rank.

    d are the invariants d_i > 1 of Z^width / L, P the matching columns
    of V and Q the matching rows of V^-1 (see snf_with_transform):
    x -> x P mod d maps Z^width / L onto (+) Z/d_i, and y -> y Q maps
    back.  x lies in L exactly when x P = 0 mod d."""
    diag, v, vinv = snf_with_transform(rows, width)
    if len(diag) < width or 0 in diag:
        return None
    idx = [i for i, d in enumerate(diag) if d > 1]
    return tuple(diag[i] for i in idx), [[r[i] for i in idx] for r in v], [vinv[i] for i in idx]


def smith_valuations(rows, width, p, start):
    """Sorted exponents e_i of the p-parts p^e_i of the Smith invariants
    of the full-rank lattice L spanned by rows in Z^width, so that
    sum(e_i) = v_p([Z^width : L]); p must be prime.

    No HNF and no determinant: eliminate modulo p^k, always on an entry
    of least valuation (Storjohann, Algorithms for Matrix Canonical
    Forms, 2000).  Unimodular moves keep the Smith form mod p^k, which
    is diag(p^min(e_i, k)), so a pass that finds width pivots of
    valuation < k has found every e_i exactly.  Otherwise k doubles,
    from start.  A nonzero width x width minor, at most the Hadamard
    bound H of the rows in absolute value, is a multiple of the index;
    so once p^k > H a failed pass proves L rank-deficient and raises
    NotFullRankError.  H is computed at the first failed pass only."""
    if p < 2 or start < 1:
        raise ValueError("need a prime p and a start precision k >= 1")
    hadamard_sq = None
    k = start
    while True:
        vals = _smith_valuations_mod(rows, width, p, k)
        if vals is not None:
            return vals
        if hadamard_sq is None:
            hadamard_sq = prod(sorted((sum(x * x for x in r) for r in rows), reverse=True)[:width])
        if p ** (2 * k) > hadamard_sq:
            raise NotFullRankError(f"rows do not span a full-rank lattice in Z^{width}")
        k *= 2


def _smith_valuations_mod(rows, width, p, k):
    """The e_i of smith_valuations when all are < k, else None.

    The working rows hold the remaining block divided by p^shift, where
    p^shift is its least valuation, so they live mod q = p^(k - shift)
    and a pivot is any entry prime to p: the first one met in row
    order, then column order.  Clearing the pivot's column by row moves
    leaves the pivot row as the only one touched by the column moves
    that would clear it, so that row and column are dropped.

    Each working row is packed into one int, entry j in bits
    [j w, (j + 1) w) with w = ((width + 2) q^2).bit_length(), so that
    clearing a column from a row is one multiply-add, r + f * comp,
    where f is the row's entry in the column mod q and comp the pivot
    row times -1/pivot, reduced mod q and packed (Kronecker
    substitution; Harvey, Faster polynomial multiplication via
    multipoint Kronecker substitution, JSC 2009).  No carry crosses a
    slot: every entry starts in [0, q); each step adds f c with f, c in
    [0, q), which is less than q^2; a row takes at most width steps
    between repacks; so every entry stays nonnegative and below
    (width + 2) q^2 < 2^w.  Slots are read mod q only, so entries are
    never reduced in place.  The pivot's column leaves the list of live
    columns.  When no live entry is prime to p, every row is unpacked,
    reduced mod q, divided by p and repacked with the live columns
    only, rows that vanish are dropped, and q becomes q / p."""
    q = p**k
    block = [[x % q for x in r] for r in rows]
    vals = []
    shift = 0
    while True:
        w = ((width + 2) * q * q).bit_length()
        mask = (1 << w) - 1
        a = [_pack(r, w) for r in block if any(r)]
        live = list(range(width - len(vals)))
        while piv := next(((i, j) for i, r in enumerate(a) for j in live if ((r >> w * j) & mask) % p), None):
            i, j = piv
            prow = a.pop(i)
            live.remove(j)
            neg_inv = -pow(((prow >> w * j) & mask) % q, -1, q)
            comp = 0
            for c in live:
                comp |= (((prow >> w * c) & mask) * neg_inv % q) << w * c
            for t, r in enumerate(a):
                f = ((r >> w * j) & mask) % q
                if f:
                    a[t] = r + f * comp
            vals.append(shift)
        if not live:
            return vals
        shift += 1
        if shift == k:
            return None
        block = [[((r >> w * c) & mask) % q // p for c in live] for r in a]
        q //= p


def _pack(entries, w):
    """entries as one int, entry j in bits [j w, (j + 1) w)."""
    r = 0
    for x in reversed(entries):
        r = r << w | x
    return r


def hnf_index(h):
    """|Z^n / L| for the lattice L spanned by a full-rank square HNF h:
    the product of its pivots, which sit on the diagonal."""
    return prod(r[i] for i, r in enumerate(h))


def hnf_order(h, v):
    """The order of v + L in Z^n / L, for the lattice L spanned by a
    full-rank square HNF h: the least k > 0 with k v in L.  Column by
    column, what is left of k v is multiplied by the least factor that
    makes its entry a multiple of the pivot, and the pivot row then
    clears that entry, so the product of those factors is the order;
    O(n^2) integer steps."""
    k = 1
    left = list(v)
    for j, row in enumerate(h):
        piv = row[j]
        m = piv // gcd(left[j], piv)
        c = m * left[j] // piv
        k *= m
        left = [m * x - c * y for x, y in zip(left, row)]
    return k


def hnf_residues(h):
    """The vectors x with 0 <= x_i < h[i][i], first coordinate fastest,
    for a full-rank square HNF h: the remainders reduce_against leaves,
    so one per coset of Z^n / L (Cohen, GTM 138, 2.4.3)."""
    for x in product(*(range(h[i][i]) for i in reversed(range(len(h))))):
        yield x[::-1]


def image_kernel_mod(rows, mods):
    """(image, kernel) for F = rows, a rows of len(mods) entries, every
    mod >= 1: the canonical HNFs of the span of F's rows and diag(mods),
    and of {x in Z^a : x F = 0 mod mods[j] in column j}.

    One HNF of [F | I_a] taken mod mods in the F block, the span of
    [F | I_a ; diag(mods) | 0].  Its rows whose F part is zero span
    exactly the (0, x) in that span, so their trailing blocks are the
    kernel's canonical HNF (Cohen, GTM 138, 2.4); the F parts of the
    others are the image's.  That span holds (0 | e e_i) = e (F_i | e_i)
    - (e F_i | 0) for e = lcm(mods), so the identity block is taken mod
    e too: the same HNF, with no entry above e."""
    b = len(mods)
    e = lcm(*mods)
    mat = [list(r) + row for r, row in zip(rows, identity(len(rows)))]
    h = hnf(mat, b + len(rows), [*mods, *[e] * len(rows)])
    return [r[:b] for r in h[:b]], [r[b:] for r in h[b:]]


def kernel_mod(rows, mods):
    """The kernel of image_kernel_mod(rows, mods)."""
    return image_kernel_mod(rows, mods)[1]


def index_mod(rows, mods):
    """[Z^b : L] for L the span of rows and diag(mods), b = len(mods),
    every mod >= 1: the product of the forward pivots of one
    elimination mod mods, with no reduction above them."""
    mat = [list(r) for r in rows]
    pivots = _echelon(mat, len(mods), mods, reduce_above=False)
    return prod(r[c] for r, c in zip(mat, pivots))


def frozen(rows):
    return tuple(tuple(r) for r in rows)
