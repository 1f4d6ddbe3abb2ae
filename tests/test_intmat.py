"""Exact integer matrix routines cross-checked against sympy.

The HNF/SNF/kernel code underneath everything else is tested here both
on frozen anchors and on hypothesis-generated matrices, with sympy as
the independent oracle where one exists; determinants come from the
Bareiss reference ref_det, itself checked against sympy.  The
sparse HNF elimination is also compared entry for entry with the dense
elimination it replaced, kept here as ref_echelon, on tall sparse
matrices and group-ring orbit matrices, and the packed-row elimination
behind smith_valuations with the list elimination it replaced,
ref_smith_valuations_mod.  kernel_mod, one HNF of [F | I ; diag(mods) | 0],
is compared with the left-kernel route it replaced in the Tate sweep,
ref_preimage_lattice over ref_hnf_with_transform, and with
ref_kernel_mod, the same HNF with its identity block unreduced, which
it was before it took that block modulo lcm(mods); those references
are checked against their own contracts here too.
"""

import random
from math import lcm, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import hermite_normal_form, smith_normal_form

import grlat.intmat as im
from grlat.abelian import make_group
from grlat.errors import ContainmentError, NotFullRankError
from grlat.grouprings import group_ring
from reference import (
    ref_det,
    ref_hnf_with_transform,
    ref_lattice_eq,
    ref_lattice_quotient_coords,
    ref_left_kernel,
    ref_mult_matrix,
    ref_preimage_lattice,
    ref_invariant_factors,
    ref_kernel_mod,
    ref_smith_valuations_mod,
    ref_snf_diagonal,
    ref_span_coefficients,
)

small_entries = st.integers(min_value=-30, max_value=30)


def ref_echelon(mat, width, reduce_above=True):
    """In-place row echelon with gcd pivoting.  Returns pivot column list.

    Rows at index >= len(pivots) are zero in columns < width on exit.
    Entries stay small: the least |entry| is always the working pivot,
    and floor-division leaves remainders in [0, pivot).
    """
    m = len(mat)
    pivots = []
    top = 0
    for col in range(width):
        if top == m:
            break
        while True:
            nz = [i for i in range(top, m) if mat[i][col]]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(mat[i][col]))
            if i0 != top:
                mat[i0], mat[top] = mat[top], mat[i0]
            if len(nz) == 1:
                break
            piv = mat[top][col]
            prow = mat[top]
            for i in range(top + 1, m):
                row = mat[i]
                if row[col]:
                    q = row[col] // piv
                    if q:
                        for j in range(col, len(row)):
                            row[j] -= q * prow[j]
        if top < m and mat[top][col]:
            if mat[top][col] < 0:
                mat[top] = [-x for x in mat[top]]
            pivots.append(col)
            top += 1
    if reduce_above:
        # increasing order: step k only touches columns >= pivots[k], so
        # already-canonical earlier pivot columns stay put
        for k in range(len(pivots)):
            col = pivots[k]
            piv = mat[k][col]
            prow = mat[k]
            for i in range(k):
                q = mat[i][col] // piv
                if q:
                    row = mat[i]
                    for j in range(col, len(row)):
                        row[j] -= q * prow[j]
    return pivots


def ref_hnf(rows, width):
    """hnf() as it was computed by the dense elimination above."""
    rows = [list(r) for r in rows]
    pivots = ref_echelon(rows, width)
    return rows[: len(pivots)]


@st.composite
def sparse_tall(draw):
    """(rows, width): up to 2w + 2 rows of width w <= 8, mostly zero, with
    some all-zero columns, duplicate rows and zero rows."""
    width = draw(st.integers(min_value=1, max_value=8))
    m = draw(st.integers(min_value=1, max_value=2 * width + 2))
    dead = draw(st.sets(st.integers(0, width - 1), max_size=width // 2))

    def entry(j):
        if j in dead or draw(st.integers(0, 3)):
            return 0
        return draw(small_entries)

    rows = [[entry(j) for j in range(width)] for _ in range(m)]
    for i in draw(st.lists(st.integers(0, m - 1), max_size=3)):
        rows[i] = list(rows[draw(st.integers(0, m - 1))]) if draw(st.booleans()) else [0] * width
    return rows, width


ORBIT_GROUPS = ([8], [2, 4], [3, 3], [12])


@st.composite
def orbit_matrices(draw):
    """(rows, n): the stacked orbits in Z[G] of one or two random elements
    with one to three nonzero coefficients, as the ideal lattices are."""
    ring = group_ring(make_group(draw(st.sampled_from(ORBIT_GROUPS))))
    rows = []
    for _ in range(draw(st.integers(1, 2))):
        coeffs = [0] * ring.n
        for i in draw(st.lists(st.integers(0, ring.n - 1), min_size=1, max_size=3)):
            coeffs[i] = draw(st.integers(-6, 6))
        rows += ref_mult_matrix(ring, ring.from_coeffs(coeffs))
    return rows, ring.n


def square(n):
    return st.lists(st.lists(small_entries, min_size=n, max_size=n), min_size=n, max_size=n)


def test_hnf_anchor():
    h = im.hnf([[2, 4], [3, 5]], 2)
    # row lattice of [[2,4],[3,5]]: det 2*5-4*3 = -2, canonical form [[1,1],[0,2]]
    assert h == [[1, 1], [0, 2]]


def test_hnf_idempotent_known():
    rows = [[6, 0, 0], [0, 10, 0], [0, 0, 15], [1, 1, 1]]
    h = im.hnf(rows, 3)
    assert im.hnf(h, 3) == h
    assert im.hnf_index(h) == abs(ref_det(h)) == 30
    assert all(im.in_span(h, range(3), r) for r in rows)


@given(square(3))
@settings(max_examples=120, deadline=None)
def test_det_matches_sympy(rows):
    assert ref_det(rows) == Matrix(rows).det()


@given(square(3))
@settings(max_examples=80, deadline=None)
def test_snf_matches_sympy(rows):
    mine, _, _ = im.snf_with_transform([list(r) for r in rows], 3)
    while mine and mine[-1] == 0:
        mine.pop()
    s = smith_normal_form(Matrix(rows))
    theirs = [abs(s[i, i]) for i in range(3) if s[i, i] != 0]
    assert mine == theirs


@given(square(3))
@settings(max_examples=80, deadline=None)
def test_snf_transform_consistent(rows):
    rows = [list(r) for r in rows]
    diag, v, vinv = im.snf_with_transform(rows, 3)
    # Vinv is the inverse of V, and A V spans the lattice of diag(diag)
    assert im.mat_mul(v, vinv) == im.identity(3)
    assert im.hnf(im.mat_mul(rows, v), 3) == im.hnf(im.diagonal(diag), 3)
    # divisibility chain
    nz = [d for d in diag if d]
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0


@given(square(3), st.lists(small_entries, min_size=3, max_size=3))
@settings(max_examples=80, deadline=None)
def test_smith_coordinates_are_an_isomorphism(rows, x):
    coords = im.smith_coordinates(rows, 3)
    if ref_det(rows) == 0:
        assert coords is None
        return
    d, p, q = coords
    assert all(a > 1 for a in d) and all(b % a == 0 for a, b in zip(d, d[1:]))
    assert prod(d) == abs(ref_det(rows))
    # y -> y Q P is the identity on (+) Z/d_i
    qp = im.mat_mul(q, p)
    assert all((a - b) % m == 0 for r, s in zip(im.identity(len(d)), qp) for a, b, m in zip(r, s, d))
    # x P = 0 mod d exactly when x lies in the lattice
    in_lattice = im.in_span(im.hnf(rows, 3), range(3), x)
    assert in_lattice == all(a % m == 0 for a, m in zip(im.vec_mat(x, p), d))


@given(square(3))
@settings(max_examples=80, deadline=None)
def test_hnf_preserves_row_space(rows):
    h, _, piv = ref_hnf_with_transform([list(r) for r in rows], 3)
    for r in rows:
        assert im.in_span(h, piv, list(r))


@given(st.one_of(sparse_tall(), orbit_matrices()))
@settings(max_examples=200, deadline=None)
def test_hnf_matches_the_dense_reference(case):
    rows, width = case
    assert im.hnf(rows, width) == ref_hnf(rows, width)


@given(st.integers(min_value=1, max_value=5), st.data())
@settings(max_examples=80, deadline=None)
def test_hnf_spans_the_lattice_of_sympys_hnf(n, data):
    rows = data.draw(st.lists(st.lists(small_entries, min_size=n, max_size=n), min_size=n, max_size=n))
    assume(ref_det(rows) != 0)
    h = im.hnf(rows, n)
    # sympy's HNF is column-style: the columns of HNF(A^T) span the row
    # lattice of A, as a lower-triangular basis; reversed coordinates make
    # it an echelon basis in_span can reduce against
    t = hermite_normal_form(Matrix(rows).T)
    theirs = [[int(x) for x in t.col(j)] for j in range(n)]
    flipped = [r[::-1] for r in reversed(theirs)]
    assert im.hnf_index(h) == prod(theirs[i][i] for i in range(n)) == abs(ref_det(rows))
    assert all(im.in_span(h, range(n), r) for r in theirs)
    assert all(im.in_span(flipped, range(n), r[::-1]) for r in h)


@given(st.one_of(sparse_tall(), orbit_matrices()))
@settings(max_examples=120, deadline=None)
def test_hnf_with_transform_contract(case):
    rows, width = case
    m = len(rows)
    h, u, pivots = ref_hnf_with_transform(rows, width)
    assert h == im.hnf(rows, width) and len(pivots) == len(h)
    assert len(u) == m and all(len(r) == m for r in u)
    assert abs(ref_det(u)) == 1
    assert im.mat_mul(u, rows) == h + im.zeros(m - len(h), width)


dense_wide = st.lists(st.lists(small_entries, min_size=4, max_size=4), min_size=2, max_size=3)


@given(st.one_of(dense_wide.map(lambda rows: (rows, 4)), sparse_tall()))
@settings(max_examples=120, deadline=None)
def test_left_kernel_annihilates(case):
    rows, width = case
    ker = ref_left_kernel([list(r) for r in rows], width)
    for k in ker:
        out = im.vec_mat(k, rows)
        assert all(x == 0 for x in out)
    # kernel rank + row rank = number of rows
    rank = len(im.hnf([list(r) for r in rows], width))
    assert len(ker) == len(rows) - rank
    # saturated: Z^m / span(ker) is torsion-free, so every x with x A = 0
    # is an integer combination of the basis
    if ker:
        assert ref_snf_diagonal(ker, len(rows)) == [1] * len(ker)


def test_left_kernel_anchor():
    # x + y + z = 0 over Z: kernel rank 2
    ker = ref_left_kernel([[1], [1], [1]])
    assert len(ker) == 2
    for k in ker:
        assert sum(k) == 0


@given(square(3), st.lists(small_entries, min_size=3, max_size=3))
@settings(max_examples=100, deadline=None)
def test_solve_left_roundtrip(rows, x):
    v = im.vec_mat(x, rows)
    [sol] = ref_lattice_quotient_coords([list(r) for r in rows], [list(v)])
    assert im.vec_mat(sol, rows) == list(v)


def test_solve_left_no_solution():
    with pytest.raises(ContainmentError):
        ref_lattice_quotient_coords([[2, 0], [0, 2]], [[1, 0]])


@given(st.integers(min_value=1, max_value=4), st.data())
@settings(max_examples=100, deadline=None)
def test_lattice_quotient_coords_members_and_non_members(m, data):
    vec = st.lists(small_entries, min_size=3, max_size=3)
    big = data.draw(st.lists(vec, min_size=m, max_size=m))
    xs = data.draw(st.lists(st.lists(small_entries, min_size=m, max_size=m), max_size=3))
    members = [im.vec_mat(x, big) for x in xs]
    coords = ref_lattice_quotient_coords(big, members)
    assert [im.vec_mat(c, big) for c in coords] == members
    # v lies in the lattice exactly when adding it leaves the HNF unchanged
    v = data.draw(vec)
    if im.hnf(big + [v], 3) == im.hnf(big, 3):
        [c] = ref_lattice_quotient_coords(big, [v])
        assert im.vec_mat(c, big) == v
    else:
        with pytest.raises(ContainmentError):
            ref_lattice_quotient_coords(big, members + [v])


def test_lattice_index_and_eq():
    a = [[2, 0], [0, 3]]
    b = [[2, 3], [2, -3]]
    ha, hb = im.hnf(a, 2), im.hnf(b, 2)
    assert im.hnf_index(ha) == 6
    assert im.hnf_index(hb) == 12
    assert ref_lattice_eq(a, [[2, 0], [2, 3]])
    assert not ref_lattice_eq(a, b)
    assert all(im.in_span(ha, range(2), r) for r in b)
    assert not all(im.in_span(hb, range(2), r) for r in a)


@given(square(2), square(2))
@settings(max_examples=60, deadline=None)
def test_sum_contains_intersection(a, b):
    s = im.hnf([list(r) for r in (*a, *b)])
    i = [im.vec_mat(c, a) for c in ref_preimage_lattice(a, [list(r) for r in b])]
    h, _, piv = ref_hnf_with_transform(s, 2)
    for r in i:
        assert im.in_span(h, piv, list(r))


def test_preimage_lattice_anchor():
    # f(x, y) = (2x, 2y); preimage of 4Z^2 is 2Z^2
    f = [[2, 0], [0, 2]]
    target = [[4, 0], [0, 4]]
    pre = ref_preimage_lattice(f, target)
    assert ref_lattice_eq(pre, [[2, 0], [0, 2]])
    assert im.kernel_mod(f, [4, 4]) == [[2, 0], [0, 2]]


@st.composite
def kernel_cases(draw):
    """(F, mods): a random small F with 0-4 rows and 0-4 columns, the
    reduction of F mod mods included, and one mod >= 2 per column."""
    a, b = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    rows = draw(st.lists(st.lists(small_entries, min_size=b, max_size=b), min_size=a, max_size=a))
    return rows, draw(st.lists(st.integers(2, 40), min_size=b, max_size=b))


@given(kernel_cases())
@settings(max_examples=300, deadline=None)
def test_kernel_mod_matches_the_preimage_of_the_diagonal(case):
    rows, mods = case
    ker = im.kernel_mod(rows, mods)
    assert ker == ref_preimage_lattice(rows, im.diagonal(mods))
    # a full-rank canonical HNF, as FiniteModule.subquotient needs
    assert ker == im.hnf(ker, len(rows)) and len(ker) == len(rows)
    for x in ker:
        assert all(c % m == 0 for c, m in zip(im.vec_mat(x, rows), mods))


@st.composite
def modular_cases(draw, positive=False):
    """(rows, width, mods): up to 6 rows of width <= 5 with negative
    entries, possibly none, and one modulus per leading column, 0 (no
    modulus) and 1 included; with positive, one modulus >= 1 per column."""
    width = draw(st.integers(0, 5))
    rows = draw(st.lists(st.lists(small_entries, min_size=width, max_size=width), max_size=6))
    if positive:
        return rows, width, draw(st.lists(st.integers(1, 12), min_size=width, max_size=width))
    return rows, width, draw(st.lists(st.integers(0, 12), max_size=width))


def padded_diagonal(mods, width):
    return [[d if j == i else 0 for j in range(width)] for i, d in enumerate(mods)]


@given(modular_cases())
@settings(max_examples=400, deadline=None)
def test_hnf_mod_is_the_hnf_with_the_diagonal_stacked(case):
    rows, width, mods = case
    assert im.hnf(rows, width, mods) == im.hnf(rows + padded_diagonal(mods, width), width)


@given(modular_cases(positive=True))
@settings(max_examples=400, deadline=None)
def test_index_mod_is_the_index_of_the_stacked_hnf(case):
    rows, width, mods = case
    h = im.hnf(rows + padded_diagonal(mods, width), width)
    assert im.index_mod(rows, mods) == im.hnf_index(h) == abs(ref_det(h))


def test_hnf_mod_anchors():
    # the modulus row is the pivot of an empty column, and a row that
    # vanishes mod d leaves the elimination
    assert im.hnf([], 2, [3, 0]) == [[3, 0]]
    assert im.hnf([[6, 4]], 2, [3, 2]) == [[3, 0], [0, 2]]
    assert im.hnf([[2, 1]], 2, [4]) == [[2, 1], [0, 2]]
    assert im.index_mod([[1, 1]], [2, 2]) == 2
    assert im.index_mod([], [5, 7]) == 35


@given(kernel_cases())
@settings(max_examples=300, deadline=None)
def test_kernel_mod_matches_the_unreduced_identity_block(case):
    # the identity block taken mod lcm(mods) gives the same canonical HNF;
    # image_kernel_mod's image is the HNF of the rows and diag(mods)
    rows, mods = case
    image, ker = im.image_kernel_mod(rows, mods)
    assert ker == im.kernel_mod(rows, mods) == ref_kernel_mod(rows, mods)
    assert image == im.hnf(rows, len(mods), mods)


@pytest.mark.parametrize("seed", range(6))
def test_kernel_mod_matches_the_unreduced_identity_block_on_larger_inputs(seed):
    # 50 cases a seed up to 12 x 12 with moduli up to 10^6, including
    # all-equal moduli as the Tate blocks have, where the unreduced
    # identity block grows; every kernel entry is at most lcm(mods)
    rng = random.Random(seed)
    for _ in range(50):
        a, b = rng.randint(1, 12), rng.randint(1, 12)
        mods = [rng.choice([2, 4, 9, 2**20, 10**6 + 3])] * b if rng.random() < 0.5 else [
            rng.randint(1, 10**6) for _ in range(b)
        ]
        rows = [[rng.randint(-(10**6), 10**6) for _ in range(b)] for _ in range(a)]
        ker = im.kernel_mod(rows, mods)
        assert ker == ref_kernel_mod(rows, mods), (seed, rows, mods)
        assert all(0 <= x <= lcm(*mods) for row in ker for x in row)


def test_kernel_mod_with_no_rows_or_no_columns():
    assert im.kernel_mod([], [3, 5]) == [] == ref_preimage_lattice([], im.diagonal([3, 5]))
    assert im.kernel_mod([[], []], []) == im.identity(2) == ref_preimage_lattice([[], []], [])
    assert im.kernel_mod([], []) == []


def test_span_coefficients_roundtrip():
    rows = [[1, 2, 0], [0, 3, 1]]
    h, _, piv = ref_hnf_with_transform([list(r) for r in rows], 3)
    v = [2, 7, 1]  # 2*r0 + r1
    c = ref_span_coefficients(h, piv, v)
    assert c is not None
    got = [0, 0, 0]
    for ci, r in zip(c, h):
        for j in range(3):
            got[j] += ci * r[j]
    assert got == v


@st.composite
def full_rank_hnfs(draw):
    """(h, v): the square HNF of a random full-rank lattice of width <= 4
    and index <= 2000, and a vector of small entries."""
    n = draw(st.integers(1, 4))
    rows = draw(square(n).filter(lambda r: 0 < abs(Matrix(r).det()) <= 2000))
    return im.hnf(rows, n), draw(st.lists(small_entries, min_size=n, max_size=n))


@given(full_rank_hnfs())
@settings(max_examples=150, deadline=None)
def test_hnf_order_is_the_least_multiple_in_the_lattice(case):
    h, v = case
    n = len(h)
    order = im.hnf_order(h, v)
    assert order == next(k for k in range(1, im.hnf_index(h) + 1) if im.in_span(h, range(n), [k * x for x in v]))


def test_hnf_order_anchor():
    # Z^2 / <(2,1),(0,3)> is cyclic of order 6, generated by e_1
    h = [[2, 1], [0, 3]]
    assert [im.hnf_order(h, e) for e in im.identity(2)] == [6, 3]
    assert im.hnf_order(h, [2, 1]) == im.hnf_order(h, [0, 0]) == 1


def test_invariant_factors_anchor():
    # Z^2 / <(2,0),(0,4)> = Z/2 x Z/4
    assert ref_invariant_factors([[2, 0], [0, 4]], 2) == (2, 4)
    # Z^2 / <(1,1),(0,3)>: invariants (1,3) filtered to (3,)? keep full diagonal contract
    assert ref_invariant_factors([[1, 1], [0, 3]], 2)[-1] == 3


def valuation(d, p):
    e = 0
    while d % p == 0:
        d //= p
        e += 1
    return e


@st.composite
def full_rank_rows(draw):
    """(rows, width, p): up to two more rows than width, entries scaled by
    small powers of p so that the p-parts are often nontrivial."""
    p = draw(st.sampled_from([2, 3, 5]))
    width = draw(st.integers(min_value=1, max_value=7))
    m = draw(st.integers(min_value=width, max_value=width + 2))
    rows = [
        [draw(small_entries) * p ** draw(st.integers(0, 3)) for _ in range(width)] for _ in range(m)
    ]
    assume(Matrix(rows).rank() == width)
    return rows, width, p


@given(full_rank_rows(), st.integers(min_value=1, max_value=4))
@settings(max_examples=150, deadline=None)
def test_smith_valuations_match_sympy(case, start):
    rows, width, p = case
    s = smith_normal_form(Matrix(rows), domain=ZZ)
    theirs = sorted(valuation(abs(s[i, i]), p) for i in range(width))
    assert im.smith_valuations(rows, width, p, start) == theirs


@st.composite
def residue_blocks(draw):
    """(rows, width, p, k): up to three more rows than width, entries
    c p^e + f with c in [-30, 30], e <= k and f in {0, +-q, q^3}, so
    entries are negative, divisible by p, or far above q = p^k."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    k = draw(st.integers(min_value=1, max_value=6))
    width = draw(st.integers(min_value=1, max_value=12))
    m = draw(st.integers(min_value=width, max_value=width + 3))
    q = p**k
    scale = st.integers(0, k).map(lambda e: p**e)
    entry = st.builds(lambda c, s, f: c * s + f, small_entries, scale, st.sampled_from([0, 0, q, -q, q**3]))
    row = st.lists(entry, min_size=width, max_size=width)
    return draw(st.lists(row, min_size=m, max_size=m)), width, p, k


@given(residue_blocks())
@settings(max_examples=300, deadline=None)
def test_packed_elimination_matches_the_list_elimination(case):
    # None results included: a pass that needs precision past k
    assert im._smith_valuations_mod(*case) == ref_smith_valuations_mod(*case)


@pytest.mark.parametrize("k", range(1, 7))
def test_packed_slots_hold_the_largest_residues(k):
    # entries q - 1, the largest residue, at p = 2 and width 12: the flat
    # block has rank 1 (so no pass succeeds), the dense one is full rank
    # with every row updated at nearly every pivot before a repack
    q, width = 2**k, 12
    flat = [[q - 1] * width for _ in range(width + 3)]
    dense = [[q - 1 - (i == j) for j in range(width)] for i in range(width)]
    for rows in (flat, dense, dense + flat[:3]):
        assert im._smith_valuations_mod(rows, width, 2, k) == ref_smith_valuations_mod(rows, width, 2, k)
    assert im._smith_valuations_mod(flat, width, 2, k) is None


def test_smith_valuations_double_past_the_start(monkeypatch):
    passes = []
    real = im._smith_valuations_mod

    def counted(rows, width, p, k):
        passes.append(k)
        return real(rows, width, p, k)

    monkeypatch.setattr(im, "_smith_valuations_mod", counted)
    for p, k0 in ((2, 3), (3, 6), (5, 2)):
        passes.clear()
        rows = im.diagonal([p ** (k0 + 5), 1, 1])
        rows[1][0] = 1  # a mixed row keeps it from being diagonal already
        assert im.smith_valuations(rows, 3, p, k0) == [0, 0, k0 + 5]
        assert passes[0] == k0 and len(passes) >= 2 and passes[-1] > k0 + 5


@pytest.mark.parametrize(
    "rows, width",
    [
        ([[1, 2], [2, 4]], 2),
        ([[3, 6, 9], [1, 1, 1], [4, 7, 10]], 3),  # third row = first + second
        ([[1, 0, 0], [0, 1, 0]], 3),  # too few rows
        ([[0, 0], [0, 0], [1, 5]], 2),
        ([[0, 0]], 2),
    ],
)
def test_smith_valuations_refuse_rank_deficiency(rows, width):
    for p in (2, 3, 7):
        with pytest.raises(NotFullRankError):
            im.smith_valuations(rows, width, p, 1)
