"""Finite abelian groups, subgroup lattices, quotients, Sylow parts.

Subgroup counts for small groups are classical and serve as frozen
anchors, together with closed forms (Galois numbers, the gcd sum for
Z_m x Z_n) and the join closure the enumeration replaced; the quotient
machinery is checked by pushing elements through the projection and
reassembling.
"""

from math import gcd
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import isprime, multiplicity

import grlat.intmat as im
from grlat import abelian
from grlat.abelian import (
    FinAbGroup,
    Subgroup,
    SUBGROUP_CAP,
    canonical_lift,
    decomposition_subgroup,
    enumerate_subgroups,
    is_prime,
    make_group,
    p_split,
    prime_factors,
    quotient_data,
    sylow,
    sylow_complement,
)
from grlat.errors import CapacityError, ContainmentError, InvalidFactorError, ParentMismatchError
from reference import (
    ref_invariant_factors,
    ref_is_elementary,
    ref_is_subset_of,
    ref_lattice_quotient_coords,
    ref_meet,
    ref_noncyclic_sylow_primes,
    ref_quotient_structure,
    ref_subgroup_structure,
)


def test_make_group_canonicalizes():
    assert make_group([2, 4]).factors == (2, 4)
    assert make_group([4, 2]).factors == (2, 4)
    assert make_group([6, 4]).factors == (2, 12)
    assert make_group([1, 3]).factors == (3,)
    with pytest.raises(InvalidFactorError):
        make_group([0])
    with pytest.raises(InvalidFactorError):
        make_group([-3])


def test_element_refuses_a_wrong_number_of_coordinates():
    g = make_group([2, 4])
    assert g.element((3, 6)).coords == (1, 2)
    with pytest.raises(InvalidFactorError):
        g.element((1,))
    with pytest.raises(InvalidFactorError):
        g.element((1, 2, 3))


def test_prime_factors():
    assert prime_factors(360) == {2: 3, 3: 2, 5: 1}
    assert prime_factors(1) == {}


def test_is_prime_matches_sympy_on_both_sides_of_two_to_the_32():
    for n in [*range(-3, 200), 2**31 - 1, 2**32 - 5, 2**32 + 15, 2**61 - 1, (2**31 - 1) * (2**61 - 1)]:
        assert is_prime(n) == isprime(n), n


def test_element_arithmetic_mod_factors():
    g = make_group([3, 9])
    a = g.element((2, 7))
    b = g.element((2, 5))
    assert (a + b).coords == (1, 3)
    assert (-a).coords == (1, 2)
    assert a.order() == 9
    assert g.element((0, 3)).order() == 3


# subgroup counts: cyclic n has one subgroup per divisor; (Z/p)^2 has p+3
SUBGROUP_COUNTS = [
    ([12], 6),
    ([30], 8),
    ([3, 3], 6),
    ([2, 2], 5),
    ([2, 4], 8),
    ([5, 5], 8),
    ([2, 2, 2], 16),
    ([3, 9], 10),
]


@pytest.mark.parametrize("factors,count", SUBGROUP_COUNTS)
def test_subgroup_counts(factors, count):
    g = make_group(factors)
    assert len(enumerate_subgroups(g)) == count


def test_subgroup_lattice_closure_small():
    g = make_group([2, 4])
    subs = enumerate_subgroups(g)
    for a in subs:
        for b in subs:
            assert a.join(b).order % ref_meet(a, b).order == 0
            assert ref_is_subset_of(ref_meet(a, b), a)
            assert ref_is_subset_of(a, a.join(b))
    # orders multiply: |A||B| = |A v B| |A ^ B| for abelian join/meet
    for a in subs:
        for b in subs:
            assert a.order * b.order == a.join(b).order * ref_meet(a, b).order


@given(st.sampled_from([(6,), (2, 4), (3, 3), (12,), (2, 2, 2)]), st.data())
@settings(max_examples=60, deadline=None)
def test_cyclic_subgroup_order_matches_element(factors, data):
    g = make_group(list(factors))
    coords = tuple(data.draw(st.integers(0, d - 1)) for d in factors)
    e = g.element(coords)
    assert Subgroup.from_generators(e.group, [e]).order == e.order()


@pytest.mark.parametrize(
    "factors",
    [(8,), (2, 4), (3, 3), (2, 2, 2), (3, 9), (4, 8), (2, 2, 12), (2, 2, 2, 2)],
)
def test_subgroup_elements_match_membership_scan(factors):
    # the closure of the generators, in the order of G.elements()
    g = make_group(list(factors))
    for h in enumerate_subgroups(g):
        assert h.elements() == [e for e in g.elements() if h.contains(e)], h


def test_subgroup_elements_rejects_a_basis_without_the_relations():
    # 3Z does not contain 4Z, so this basis describes no subgroup of Z/4;
    # it is refused on construction, before any element is listed
    with pytest.raises(ContainmentError):
        Subgroup(make_group([4]), [[3]])


def test_structure_invariants():
    g = make_group([2, 12])
    h = Subgroup.from_generators(g, [g.element((1, 0)), g.element((0, 6))])
    assert ref_subgroup_structure(h) == (2, 2)
    assert FinAbGroup(ref_subgroup_structure(h)).factors == (2, 2)
    assert ref_is_elementary(ref_subgroup_structure(h))
    assert h.exponent == 2 and h.is_elementary
    # "elementary" here: at most one noncyclic Sylow part
    assert ref_is_elementary((4,))
    assert ref_is_elementary((15,))
    assert ref_is_elementary((3, 6))
    assert not ref_is_elementary((6, 6))
    assert not h.is_cyclic
    assert Subgroup.full(make_group([3, 6])).is_elementary
    assert not Subgroup.full(make_group([6, 6])).is_elementary


def test_sylow_decomposition():
    g = make_group([6, 12])
    s2 = sylow(g, 2)
    s3 = sylow(g, 3)
    assert s2.order == 8 and s3.order == 9
    assert ref_meet(s2, s3).is_trivial
    assert s2.join(s3) == Subgroup.full(g)
    comp = sylow_complement(g, 2)
    assert comp.order == 9
    assert comp == s3


def test_quotient_data_roundtrip():
    for factors in ([3, 9], [12], [2, 4], [2, 2, 4], [6, 6]):
        g = make_group(factors)
        for sub in enumerate_subgroups(g):
            qd = quotient_data(g, sub)
            assert qd.group.order == g.order // sub.order
            # proj maps the residues of the basis, one per coset, onto
            # the quotient, each element once
            images = [qd.proj(g.element(x)) for x in im.hnf_residues(sub.basis)]
            assert sorted(images, key=qd.group.index_of) == list(qd.group.elements()), sub
            # and its kernel is the subgroup
            for e in g.elements():
                assert qd.proj(e).is_zero == sub.contains(e), (sub, e)


def push(qd, sub):
    """The image of sub in the quotient qd, generated by the images of
    its generators."""
    return Subgroup.from_generators(qd.group, [qd.proj(x) for x in sub.generators()])


def test_quotient_push_subgroup():
    g = make_group([3, 9])
    h = Subgroup.from_generators(g, [g.element((0, 3))])
    qd = quotient_data(g, h)
    full_image = push(qd, Subgroup.full(g))
    assert full_image.order == qd.group.order
    assert push(qd, h).is_trivial


def test_helper_prime_classifiers():
    assert ref_noncyclic_sylow_primes((3, 6)) == frozenset({3})
    assert ref_noncyclic_sylow_primes((2, 6)) == frozenset({2})
    assert ref_noncyclic_sylow_primes((30,)) == frozenset()
    assert ref_noncyclic_sylow_primes((6, 6)) == frozenset({2, 3})


def test_element_enumeration_complete():
    g = make_group([2, 6])
    elems = list(g.elements())
    assert len(elems) == 12
    assert len(set(elems)) == 12
    assert [g.index_of(e) for e in elems] == list(range(12))


@given(
    st.integers(min_value=-(10**30), max_value=10**30).filter(bool),
    st.sampled_from([2, 3, 5, 7, 4, 6, 9]),
    st.integers(min_value=0, max_value=40),
)
@settings(max_examples=200, deadline=None)
def test_p_split_matches_sympy(base, p, k):
    n = base * p**k
    e, rest = p_split(n, p)
    assert e == multiplicity(p, n)
    assert p**e * rest == abs(n) and rest % p


def test_p_split_rejects_zero():
    with pytest.raises(ValueError):
        p_split(0, 3)


# reference routes that read a subgroup through a fresh HNF or its
# element list, as the subgroup code did before it read its stored basis


def ref_canonical_lift(sub: Subgroup, elem):
    """Lexicographically smallest representative of elem + sub."""
    if sub.group != elem.group:
        raise ParentMismatchError("subgroup and element of different groups")
    return min((elem + t for t in sub.elements()), key=lambda e: e.coords)


def ref_structure(sub: Subgroup):
    k = sub.group.rank
    if k == 0 or sub.order == 1:
        return ()
    dmat = [[sub.group.factors[i] if j == i else 0 for j in range(k)] for i in range(k)]
    coords = ref_lattice_quotient_coords(sub.basis, dmat)
    return ref_invariant_factors(coords, k)


DIFFERENTIAL_GROUPS = [
    (12,), (2, 4), (3, 3), (2, 2, 2), (4, 8), (2, 6), (3, 9), (2, 2, 4), (6, 6), (2, 2, 2, 2),
]


@pytest.mark.parametrize("factors", DIFFERENTIAL_GROUPS)
def test_stored_basis_facts_match_reference_routes(factors):
    g = make_group(list(factors))
    elems = list(g.elements())
    subs = enumerate_subgroups(g)
    points = {h: set(h.elements()) for h in subs}
    for h in subs:
        assert h.order == len(points[h]), h
        assert ref_subgroup_structure(h) == ref_structure(h), h
        assert h.exponent == max(ref_structure(h), default=1), h
        for e in elems:
            assert canonical_lift(h, e) == ref_canonical_lift(h, e), (h, e)
        for other in subs:
            assert ref_is_subset_of(h, other) == (points[h] <= points[other]), (h, other)


def test_structure_rejects_a_basis_without_the_relations():
    # no Subgroup holds such a basis, so no structure is read off one;
    # the Smith-form reference refuses the same lattice on its own
    g = make_group([4])
    with pytest.raises(ContainmentError):
        Subgroup(g, [[3]])
    with pytest.raises(ContainmentError):
        ref_subgroup_structure(SimpleNamespace(group=g, basis=((3,),)))


@pytest.mark.parametrize(
    "basis", [[[1, 0], [0, 3]], [[1, 0], [0, 8]], [[2, 1], [0, 4]], [[1, 0]]], ids=str
)
def test_a_failed_structure_is_not_kept(basis):
    # a basis without the relations d_i e_i is refused on construction,
    # on every try, where its pivot product would have floored the order
    # (2 and 1 for the first two, of no subgroup of those bases); the
    # third has pivots dividing the factors, but 2 e_1 - (2, 1) = -e_2 is
    # not in its lattice, and the fourth is missing a row
    for _ in range(3):
        with pytest.raises(ContainmentError):
            Subgroup(make_group([2, 4]), basis)


@pytest.mark.parametrize("factors", [[2, 4, 8], [3, 9]], ids=str)
def test_kept_order_hash_and_structure_match_a_fresh_subgroup(factors):
    # each value is read twice from the enumerated subgroup, the second
    # time from what the first call kept, against a subgroup made anew
    # and against the formulas it is kept from
    g = make_group(factors)
    for sub in enumerate_subgroups(g):
        for _ in range(2):
            fresh = Subgroup(g, sub.basis)
            assert sub.order == fresh.order == g.order // im.hnf_index(sub.basis) == len(sub.elements())
            assert hash(sub) == hash(fresh) == hash((g, sub.basis))
            assert sub.exponent == fresh.exponent == max(ref_subgroup_structure(sub), default=1)
            assert sub.is_cyclic == (len(ref_structure(sub)) <= 1)


@pytest.mark.parametrize("factors", [[2, 4, 8], [3, 9]], ids=str)
def test_equal_subgroups_from_different_routes_compare_and_hash_equal(factors):
    g = make_group(factors)
    subs = enumerate_subgroups(g)
    index = {sub: i for i, sub in enumerate(subs)}
    for i, sub in enumerate(subs):
        routes = [
            Subgroup.from_generators(g, sub.generators()),
            sub.join(Subgroup.trivial(g)),
            Subgroup.trivial(g).join(sub),
        ]
        for other in routes:
            assert other is not sub
            assert other == sub and hash(other) == hash(sub) and index[other] == i
    # a join of two enumerated subgroups is the enumerated subgroup of its basis
    by_basis = {sub.basis: sub for sub in subs}
    for a in subs[:: max(1, len(subs) // 12)]:
        for b in subs:
            joined = a.join(b)
            assert joined == by_basis[joined.basis] and hash(joined) == hash(by_basis[joined.basis])
            assert index[joined] == index[by_basis[joined.basis]]


# -- the subgroup lattice against the join closure and closed forms -------


def ref_enumerate_subgroups(group, cap=SUBGROUP_CAP):
    """All subgroups, by closing the cyclic ones under joins (the
    enumeration before subgroups were built directly as HNFs)."""
    cyclics = []
    seen = set()
    for e in group.elements():
        s = Subgroup.from_generators(e.group, [e])
        if s.basis not in seen:
            seen.add(s.basis)
            cyclics.append(s)
    subs = {s.basis: s for s in cyclics}
    frontier = list(cyclics)
    while frontier:
        cur = frontier.pop()
        for c in cyclics:
            j = cur.join(c)
            if j.basis not in subs:
                if len(subs) >= cap:
                    raise CapacityError(
                        f"more than {cap} subgroups in {group!r}"
                    )
                subs[j.basis] = j
                frontier.append(j)
    out = list(subs.values())
    out.sort(key=lambda s: (s.order, s.basis))
    return out


def invariant_chains(budget, prev=1):
    """Every chain d_1 | d_2 | ... with d_1 a multiple of prev, all
    d_i >= 2 and product <= budget: each abelian group once."""
    yield ()
    for d in range(max(prev, 2), budget + 1, prev):
        for rest in invariant_chains(budget // d, d):
            yield (d, *rest)


def test_enumeration_matches_the_join_closure():
    # every abelian group of order <= 64, and the larger groups of
    # acceptance criterion 3's catalogue
    chains = list(invariant_chains(64))
    assert len(chains) == 117
    for factors in chains + [(97,), (100,), (10, 10), (2, 50), (2, 2, 18)]:
        g = FinAbGroup(factors)
        assert enumerate_subgroups(g) == ref_enumerate_subgroups(g), factors


@pytest.mark.parametrize(
    "p, counts", [(2, [2, 5, 16, 67, 374, 2825]), (3, [2, 6, 28, 212])]
)
def test_elementary_abelian_counts_are_galois_numbers(p, counts):
    for n, count in enumerate(counts, 1):
        assert len(enumerate_subgroups(make_group([p] * n))) == count


def test_rank_two_counts_are_gcd_sums():
    # Hampejs, Holighaus, Toth and Wiesmeyr (2014): Z_m x Z_n has
    # sum over a | m, b | n of gcd(a, b) subgroups
    divisors = {n: [a for a in range(1, n + 1) if n % a == 0] for n in range(1, 41)}
    for n in range(1, 41):
        for m in range(1, n + 1):
            count = sum(gcd(a, b) for a in divisors[m] for b in divisors[n])
            assert len(enumerate_subgroups(make_group([m, n]))) == count, (m, n)


def test_enumeration_refuses_past_the_cap(monkeypatch):
    with pytest.raises(CapacityError):
        enumerate_subgroups(make_group([2] * 7))
    monkeypatch.setattr(abelian, "SUBGROUP_CAP", 66)
    with pytest.raises(CapacityError, match="more than 66 subgroups"):
        enumerate_subgroups(make_group([2, 2, 2, 2]))
    monkeypatch.setattr(abelian, "SUBGROUP_CAP", 67)
    assert len(enumerate_subgroups(make_group([2, 2, 2, 2]))) == 67


@pytest.mark.parametrize("factors", [(12,), (2, 4), (3, 9), (2, 2, 4), (2, 6, 6)])
def test_hnf_residues_are_the_canonical_lifts_of_the_cosets(factors):
    g = make_group(list(factors))
    for h in enumerate_subgroups(g):
        lifts = [g.element(x) for x in im.hnf_residues(h.basis)]
        assert len(lifts) == g.order // h.order, h
        assert all(canonical_lift(h, e) == e for e in lifts), h
        # canonical lifts are coset invariants, so distinct lifts are
        # distinct cosets
        assert len(set(lifts)) == len(lifts), h


@pytest.mark.parametrize("factors", [(12,), (2, 4), (3, 9), (2, 2, 4), (6, 6)])
def test_quotient_structure_matches_the_pushed_quotient(factors):
    g = make_group(list(factors))
    subs = enumerate_subgroups(g)
    for big in subs:
        for small in subs:
            got = ref_quotient_structure(big, small)
            if not ref_is_subset_of(small, big):
                assert got is None, (big, small)
                continue
            assert got == ref_subgroup_structure(push(quotient_data(g, small), big)), (big, small)
        assert ref_quotient_structure(big, Subgroup.trivial(g)) == ref_subgroup_structure(big)


@pytest.mark.parametrize("factors", [(12,), (2, 4), (3, 9), (2, 2, 2)])
def test_decomposition_subgroup_is_the_join_with_the_cyclic_subgroup(factors):
    g = make_group(list(factors))
    for inertia in enumerate_subgroups(g):
        for frob in g.elements():
            assert decomposition_subgroup(inertia, frob) == inertia.join(Subgroup.from_generators(frob.group, [frob]))
    with pytest.raises(ParentMismatchError):
        decomposition_subgroup(Subgroup.full(g), make_group([5]).zero())
