"""Finite abelian groups, subgroup lattices, quotients, Sylow parts.

Subgroup counts for small groups are classical and serve as frozen
anchors; the quotient machinery is checked by pushing elements through
the projection and reassembling.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import multiplicity

import grlat.intmat as im
from grlat.abelian import (
    FinAbGroup,
    Subgroup,
    canonical_lift,
    cyclic_subgroup,
    enumerate_subgroups,
    is_elementary,
    make_group,
    noncyclic_sylow_primes,
    p_split,
    prime_factors,
    quotient_data,
    sylow,
    sylow_complement,
)
from grlat.errors import ContainmentError, InvalidFactorError, ParentMismatchError


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
            assert a.join(b).order % a.meet(b).order == 0
            assert a.meet(b).is_subset_of(a)
            assert a.is_subset_of(a.join(b))
    # orders multiply: |A||B| = |A v B| |A ^ B| for abelian join/meet
    for a in subs:
        for b in subs:
            assert a.order * b.order == a.join(b).order * a.meet(b).order


@given(st.sampled_from([(6,), (2, 4), (3, 3), (12,), (2, 2, 2)]), st.data())
@settings(max_examples=60, deadline=None)
def test_cyclic_subgroup_order_matches_element(factors, data):
    g = make_group(list(factors))
    coords = tuple(data.draw(st.integers(0, d - 1)) for d in factors)
    e = g.element(coords)
    assert cyclic_subgroup(e).order == e.order()


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
    # 3Z does not contain 4Z, so this basis describes no subgroup of Z/4
    with pytest.raises(ContainmentError):
        Subgroup(make_group([4]), [[3]]).elements()


def test_structure_invariants():
    g = make_group([2, 12])
    h = Subgroup.from_generators(g, [g.element((1, 0)), g.element((0, 6))])
    assert h.structure() == (2, 2)
    assert h.as_group().factors == (2, 2)
    assert is_elementary(h.structure())
    # "elementary" here: at most one noncyclic Sylow part
    assert is_elementary((4,))
    assert is_elementary((15,))
    assert is_elementary((3, 6))
    assert not is_elementary((6, 6))
    assert not h.is_cyclic


def test_sylow_decomposition():
    g = make_group([6, 12])
    s2 = sylow(g, 2)
    s3 = sylow(g, 3)
    assert s2.order == 8 and s3.order == 9
    assert s2.meet(s3).is_trivial
    assert s2.join(s3) == Subgroup.full(g)
    comp = sylow_complement(g, 2)
    assert comp.order == 9
    assert comp == s3


def test_quotient_data_roundtrip():
    g = make_group([3, 9])
    h = Subgroup.from_generators(g, [g.element((0, 3))])
    qd = quotient_data(g, h)
    assert qd.group.order == g.order // h.order
    for coords in [(0, 0), (1, 2), (2, 8), (0, 4)]:
        e = g.element(coords)
        image = qd.proj(e)
        back = qd.lift(image)
        # lift is a section: proj(lift(x)) = x
        assert qd.proj(back) == image
        # e and its lift differ by an element of h
        assert h.contains(e - back)


def test_quotient_push_subgroup():
    g = make_group([3, 9])
    h = Subgroup.from_generators(g, [g.element((0, 3))])
    qd = quotient_data(g, h)
    full_image = qd.push(Subgroup.full(g))
    assert full_image.order == qd.group.order
    assert qd.push(h).is_trivial


def test_helper_prime_classifiers():
    assert noncyclic_sylow_primes((3, 6)) == frozenset({3})
    assert noncyclic_sylow_primes((2, 6)) == frozenset({2})
    assert noncyclic_sylow_primes((30,)) == frozenset()
    assert noncyclic_sylow_primes((6, 6)) == frozenset({2, 3})


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
    coords = im.lattice_quotient_coords(sub.basis, dmat)
    return im.invariant_factors(coords, k)


def ref_is_subset_of(inner: Subgroup, outer: Subgroup):
    h, piv = im.hnf_with_pivots(list(map(list, outer.basis)))
    return all(im.in_span(h, piv, r) for r in map(list, inner.basis))


DIFFERENTIAL_GROUPS = [
    (12,), (2, 4), (3, 3), (2, 2, 2), (4, 8), (2, 6), (3, 9), (2, 2, 4), (6, 6), (2, 2, 2, 2),
]


@pytest.mark.parametrize("factors", DIFFERENTIAL_GROUPS)
def test_stored_basis_facts_match_reference_routes(factors):
    g = make_group(list(factors))
    elems = list(g.elements())
    subs = enumerate_subgroups(g)
    for h in subs:
        assert h.order == len(h.elements()), h
        assert h.structure() == ref_structure(h), h
        for e in elems:
            assert canonical_lift(h, e) == ref_canonical_lift(h, e), (h, e)
        for other in subs:
            assert h.is_subset_of(other) == ref_is_subset_of(h, other), (h, other)


def test_structure_rejects_a_basis_without_the_relations():
    with pytest.raises(ContainmentError):
        Subgroup(make_group([4]), [[3]]).structure()
